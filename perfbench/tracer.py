"""Per-layer tracing from outside the program.

The benchmark edits nothing under ``src/``: :class:`Tracer` wraps the
public entry points of each ``repro`` package (its *boundary*) in place,
for one traced pass, and restores them afterwards.  Every call through a
wrapped boundary while the tracer is armed becomes a span -- boundary
name, start, end, parent span -- and spans of one top-level benchmark
call share a trace id.  Spans are kept in flat in-memory arrays and
written out by :meth:`Tracer.write_spans` when the run ends.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  A wrapper's own overhead outside its timed interval
lands in the parent's self time; ``trace.overhead_ratio`` reports how
much slower the traced pass ran.

The same wrappers count calls and, for a few boundaries, inspect the
return value (bloom negatives, frozen-index hits, settles that ran a
job, WAL records scanned by the replication cursor), so ratios are taken
where the work happens.
"""

import gc
import json
import time
from array import array

# Boundaries, by layer: (layer, "module:Class", attributes).  A method is
# wrapped on the class that defines it, once, whichever subclass names it.
_METHODS = (
    ("kvstore", "repro.kvstore.api:KVStore",
     ("put", "get", "delete", "scan", "multi_get", "multi_put", "quiesce")),
    ("core", "repro.core.miodb:MioDB", ("_put", "_get", "_scan")),
    ("core", "repro.core.pmtable:PMTable", ("get",)),
    ("core", "repro.core.repository:NvmRepository", ("get", "ingest")),
    ("core", "repro.core.compaction:CompactionManager", ("check",)),
    ("skiplist", "repro.skiplist.skiplist:SkipList",
     ("insert", "get", "lookup", "first_ge", "frozen_index")),
    ("skiplist", "repro.skiplist.merge:ZeroCopyMerge", ("run",)),
    ("bloom", "repro.bloom.filter:BloomFilter",
     ("may_contain", "add_all", "merge_from")),
    ("persist", "repro.persist.wal:WriteAheadLog",
     ("append", "append_batch", "sync", "truncate_through", "records_since")),
    ("sim", "repro.sim.executor:Executor",
     ("submit", "settle", "drain", "wait_for")),
    ("sim", "repro.sim.latency:LatencyRecorder", ("record",)),
    ("mem", "repro.mem.device:Device",
     ("read", "write", "pointer_write", "allocate", "release")),
    ("replication", "repro.replication.group:ReplicaGroup",
     ("put", "get", "catch_up", "quiesce")),
    ("cluster", "repro.cluster.router:ShardRouter", ("route", "put", "get")),
    ("obs", "repro.obs.live.recorder:LiveRecorder",
     ("span", "op_batch", "instant", "transfer")),
    ("baselines", "repro.baselines.leveldb:LevelDBStore",
     ("_put", "_get", "_scan")),
    ("baselines", "repro.baselines.matrixkv:MatrixKVStore",
     ("_put", "_get", "_scan")),
    ("baselines", "repro.baselines.novelsm:NoveLSMStore",
     ("_put", "_get", "_scan")),
    ("baselines", "repro.baselines.slmdb:SLMDBStore",
     ("_put", "_get", "_scan")),
    ("sstable", "repro.sstable.table:SSTable", ("get", "scan_all")),
    ("btree", "repro.btree.tree:BPlusTree", ("get", "insert")),
)

# Engine classes whose ``_batch_lookup`` closure is a boundary of the
# engine's layer (the closure, not the factory call, does the lookups).
_BATCH_LOOKUPS = (
    ("core", "repro.core.miodb:MioDB"),
    ("baselines", "repro.baselines.leveldb:LevelDBStore"),
    ("baselines", "repro.baselines.matrixkv:MatrixKVStore"),
    ("baselines", "repro.baselines.novelsm:NoveLSMStore"),
    ("baselines", "repro.baselines.slmdb:SLMDBStore"),
)

# Module-level functions: (layer, defining module, name, modules that
# imported the name and call it through their own namespace).
_FUNCTIONS = (
    ("sstable", "repro.sstable.table", "build_sstable",
     ("repro.sstable", "repro.baselines.lsm", "repro.baselines.slmdb")),
    ("sstable", "repro.sstable.merge", "merge_tables", ("repro.sstable",)),
    ("cluster", "repro.cluster.driver", "run_cluster", ("repro.cluster",)),
)


def _resolve(path):
    import importlib

    module, __, name = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, name) if name else mod


def _defining_class(cls, attr):
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.armed = False
        self.names = []
        self.layers = []
        self.calls = []
        self.self_s = []
        #: Counters taken from boundary return values.
        self.counts = {
            "frozen_index_hits": 0,
            "bloom_negatives": 0,
            "settles_useful": 0,
            "cursor_records": 0,
        }
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0
        self._stack = []
        self._trace = -1
        # One entry per span, in call (pre-)order: a span's id is its
        # index, so parents and trace ids are indexes too.
        self.sp_parent = array("i")
        self.sp_trace = array("i")
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._restore = []

    # ------------------------------------------------------------ wrappers

    def _boundary(self, layer, name):
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, bid, on_result=None):
        """A traced stand-in for ``fn``, booked under boundary ``bid``."""
        tracer = self
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        perf = time.perf_counter
        names = self.sp_name
        sp_parent = self.sp_parent.append
        sp_trace = self.sp_trace.append
        sp_name = names.append
        sp_start = self.sp_start.append
        sp_end = self.sp_end.append
        ends = self.sp_end

        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            sid = len(names)
            if stack:
                frame = stack[-1]
                sp_parent(frame[0])
                sp_trace(tracer._trace)
            else:
                tracer._trace = sid
                sp_parent(-1)
                sp_trace(sid)
            sp_name(bid)
            sp_end(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            sp_start(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                ends[sid] = t1
                span = t1 - t0
                self_s[bid] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                calls[bid] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------ result hooks

    def _on_frozen_index(self, args, result):
        if result is not None:
            self.counts["frozen_index_hits"] += 1

    def _on_may_contain(self, args, result):
        if not result:
            self.counts["bloom_negatives"] += 1

    def _on_settle(self, args, result):
        if result:
            self.counts["settles_useful"] += 1

    def _on_records_since(self, args, result):
        # The cursor filters the WAL's whole retained record list.
        self.counts["cursor_records"] += args[0].record_count

    # --------------------------------------------------- install / remove

    def install(self):
        """Wrap every boundary in place; returns ``self``."""
        hooks = {
            "SkipList.frozen_index": self._on_frozen_index,
            "BloomFilter.may_contain": self._on_may_contain,
            "Executor.settle": self._on_settle,
            "WriteAheadLog.records_since": self._on_records_since,
        }
        done = set()
        for layer, path, attrs in _METHODS:
            cls = _resolve(path)
            for attr in attrs:
                owner = _defining_class(cls, attr)
                if (owner, attr) in done:
                    continue
                done.add((owner, attr))
                name = f"{owner.__name__}.{attr}"
                fn = owner.__dict__[attr]
                bid = self._boundary(layer, name)
                self._set(owner, attr, self._wrap(fn, bid, hooks.get(name)))
        for layer, path in _BATCH_LOOKUPS:
            cls = _resolve(path)
            self._set(cls, "_batch_lookup",
                      self._wrap_batch_lookup(cls.__dict__["_batch_lookup"], layer,
                                              f"{cls.__name__}._batch_lookup"))
        for layer, module, name, importers in _FUNCTIONS:
            fn = getattr(_resolve(module), name)
            traced = self._wrap(fn, self._boundary(layer, name))
            for mod_name in (module,) + importers:
                mod = _resolve(mod_name)
                if mod.__dict__.get(name) is fn:
                    self._set(mod, name, traced)
        gc.callbacks.append(self._on_gc)
        return self

    def _wrap_batch_lookup(self, factory, layer, name):
        """``_batch_lookup`` returns a closure; trace the closure's calls."""
        traced_factory = self._wrap(factory, self._boundary(layer, name))
        closure_bid = self._boundary(layer, name + ".<lookup>")
        wrap = self._wrap

        def batch_lookup(store):
            lookup = traced_factory(store)
            return None if lookup is None else wrap(lookup, closure_bid)

        batch_lookup.__wrapped__ = factory
        return batch_lookup

    def uninstall(self):
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -------------------------------------------------------------- gc

    def _on_gc(self, phase, info):
        if not self.armed:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # ----------------------------------------------------------- queries

    def layer_totals(self):
        """``{layer: (calls, self_seconds)}`` summed over its boundaries."""
        out = {}
        for layer, calls, self_s in zip(self.layers, self.calls, self.self_s):
            c, s = out.get(layer, (0, 0.0))
            out[layer] = (c + calls, s + self_s)
        return out

    def calls_of(self, name):
        """Calls through the boundary called ``name``."""
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def write_spans(self, path):
        """Write the spans: one JSON header line, then the raw arrays.

        Span ``i`` is entry ``i`` of every array; ``parent`` and
        ``trace`` hold span indexes (-1: no parent).
        """
        arrays = [("parent", self.sp_parent), ("trace", self.sp_trace),
                  ("name", self.sp_name), ("start", self.sp_start),
                  ("end", self.sp_end)]
        header = {
            "names": self.names,
            "layers": self.layers,
            "spans": len(self.sp_name),
            "arrays": [[label, arr.typecode] for label, arr in arrays],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for __, arr in arrays:
                arr.tofile(out)


def read_spans(path):
    """Inverse of :meth:`Tracer.write_spans`: ``(header, {label: array})``."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        arrays = {}
        for label, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(src, header["spans"])
            arrays[label] = arr
    return header, arrays

