"""The benchmark's four workloads, each with its own output check.

Every workload builds its inputs from the run's seed, drives the
program only through the public API of ``repro.kvstore``,
``repro.replication`` and ``repro.cluster``, and checks every result
against a dict oracle built from the generated op stream.

The timed phase is a sequence of fixed-size *rounds*.  A round's ops are
generated (and the oracle advanced) before it runs and checked after, so
neither counts as timed work.  The state after round ``r`` is a pure
function of the seed, which is what makes the simulated metrics and the
fingerprint, taken after the last round, exact.
"""

import gc
import hashlib
import json
import math
import time

import repro.cluster as cluster_api
from repro.bench.config import KB, MB, BenchScale
from repro.bench.factory import make_store
from repro.bloom.hashing import probe_positions
from repro.cluster import AdmissionControl, ClientSpec, Cluster, ShardRouter
from repro.kvstore.values import SizedValue
from repro.replication import (
    ACK_QUORUM, READ_FOLLOWER_EVENTUAL, ReplicaGroup, ReplicationConfig)
from repro.sim.latency import percentile
from repro.sim.rng import XorShiftRng
from repro.workloads import key_for
from repro.workloads.zipfian import ScrambledZipfian, ZipfianGenerator

PRELOAD_BATCH = 256
#: Preloaded records between two calibration points of a setup.
LAP_RECORDS = 8192
SCAN_LENGTH = 50
MULTI_GET_BATCH = 128


def _load_items(n, value_size, rng):
    """``n`` preload pairs in a seeded, shuffled (random-looking) order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(key_for(i), SizedValue(("load", i), value_size)) for i in order]


def _preload(store, items, lap):
    for at in range(0, len(items), PRELOAD_BATCH):
        if at and at % LAP_RECORDS == 0:
            lap()
        store.multi_put(items[at:at + PRELOAD_BATCH])


def _stats_sum(systems, keys):
    return {key: sum(s.stats.get(key) for s in systems) for key in keys}


class Workload:
    """One named workload: setup, rounds, checks and simulated metrics."""

    name = ""
    #: Ops per round, and the fewest rounds a pass runs whatever
    #: ``--seconds`` asks for.
    round_ops = 0
    min_rounds = 1
    #: Runs hold whole cycles of this many rounds.
    rounds_per_cycle = 1
    #: Setups per untraced run (``setup_s`` is their median).
    setup_repeats = 3
    #: Ops one second of timed work holds at the reference speed (see
    #: ``speed.py``); sizes the run for ``--seconds``.
    reference_ops_per_s = 0
    #: Stats keys whose timed-phase deltas feed per-layer metrics.
    STAT_KEYS = (
        "flush.count", "compact.count", "compact.lazy_count",
        "compact.ptr_writes", "stall.interval_s", "stall.cumulative_s",
    )

    def __init__(self, seed):
        self.seed = seed

    # The subclass API ----------------------------------------------------

    def setup(self, watch):
        """Build fresh stores and preload them, timed by ``watch`` (a
        :class:`speed.Stopwatch`); oracle resets are not timed."""
        raise NotImplementedError

    def rounds_for(self, seconds):
        """Rounds for ``seconds`` of timed work, in whole cycles."""
        cycle = self.rounds_per_cycle
        per_cycle = self.round_ops * cycle
        rounds = math.ceil(seconds * self.reference_ops_per_s / per_cycle) * cycle
        return max(rounds, self.min_rounds)

    def make_round(self, index):
        """The next round's ops, with the oracle advanced past them."""
        raise NotImplementedError

    def run_round(self, ops, call_times):
        """Run one round through the program (the timed work)."""
        raise NotImplementedError

    def check_round(self, ops, results):
        """``(ops_done, failed)`` for one round."""
        raise NotImplementedError

    def finish(self):
        """Checks after the timed phase; returns the failure count."""
        return 0

    def systems(self):
        """Every simulated machine of the workload."""
        raise NotImplementedError

    def mio_systems(self):
        """The machines running MioDB (the ``core`` layer)."""
        return self.systems()

    def sim_elapsed(self):
        """Simulated seconds since :meth:`begin`, summed over clocks."""
        raise NotImplementedError

    def sim_latencies(self):
        """Per-op simulated latencies since :meth:`begin`."""
        raise NotImplementedError

    def sim_percentiles(self):
        """Simulated ``(p50, p99)`` seconds of the ops since :meth:`begin`."""
        lat = sorted(self.sim_latencies())
        return percentile(lat, 50), percentile(lat, 99)

    def extra_fingerprint(self):
        return []

    # Shared machinery ----------------------------------------------------

    def _build(self, build, watch):
        """Run ``build(lap)`` from a cold probe memo, timed by ``watch``,
        after freeing the previous setup's stores."""
        self.release()
        gc.collect()
        probe_positions.cache_clear()
        watch.start()
        build(watch.lap)
        watch.stop()

    def release(self):
        """Drop references to the stores of the last setup."""

    def begin(self):
        """Mark the start of the timed phase."""
        systems = self.systems()
        self._stats0 = _stats_sum(self.mio_systems(), self.STAT_KEYS)
        self._persist0 = sum(s.persistent_bytes_written() for s in systems)
        self._memo0 = probe_positions.cache_info()

    def write_amp(self):
        systems = self.systems()
        user = sum(s.stats.get("user.bytes_written") for s in systems)
        return sum(s.persistent_bytes_written() for s in systems) / user

    def sim_metrics(self, ops):
        """The simulated end-to-end metrics over the first ``ops`` ops."""
        p50, p99 = self.sim_percentiles()
        return {
            "sim_kiops": ops / self.sim_elapsed() / 1e3,
            "sim_p50_us": p50 * 1e6,
            "sim_p99_us": p99 * 1e6,
            "write_amp": self.write_amp(),
        }

    def fingerprint(self):
        """Digest of every clock and every system's stats snapshot."""
        doc = [
            [s.clock.now for s in self.systems()],
            [s.stats.snapshot() for s in self.systems()],
            self.extra_fingerprint(),
        ]
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def layer_counters(self, ops):
        """Simulated per-layer counters over the timed phase so far."""
        now = _stats_sum(self.mio_systems(), self.STAT_KEYS)
        stats = {key: now[key] - self._stats0[key] for key in self.STAT_KEYS}
        memo = probe_positions.cache_info()
        hits = memo.hits - self._memo0.hits
        misses = memo.misses - self._memo0.misses
        persisted = sum(s.persistent_bytes_written() for s in self.systems())
        stall_s = stats["stall.interval_s"] + stats["stall.cumulative_s"]
        return {
            # Layers only repl-cluster runs read zero elsewhere.
            "replication.ack_wait_us_per_put": 0.0,
            "replication.shipped_per_put": 0.0,
            "cluster.queue_depth_max": 0.0,
            "cluster.deferred_ratio": 0.0,
            "obs.retained_ratio": 0.0,
            "core.flush_count": stats["flush.count"],
            "core.compact_count": stats["compact.count"],
            "core.lazy_copy_count": stats["compact.lazy_count"],
            "core.stall_us_per_op": stall_s * 1e6 / ops,
            "core.ptr_writes_per_op": stats["compact.ptr_writes"] / ops,
            "bloom.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "mem.persistent_bytes_per_op": (persisted - self._persist0) / ops,
        }


class _YcsbStream:
    """Closed-loop YCSB-A op stream over one store, with its oracle.

    Each op draws its kind, then its key (scrambled zipfian, theta
    0.99), as :func:`repro.workloads.run_workload` does.  A get carries
    the value the oracle holds for its key; a put carries a fresh value
    and updates the oracle.
    """

    def __init__(self, rng, records, value_size, items):
        self.rng = rng.fork(1)
        self.chooser = ScrambledZipfian(records, rng.fork(3))
        self.keys = [key_for(i) for i in range(records)]
        self.value_size = value_size
        self.oracle = dict(items)
        self.made = 0

    def make(self, n):
        rng, chooser, keys, oracle = self.rng, self.chooser, self.keys, self.oracle
        ops = []
        for __ in range(n):
            read = rng.next_float() < 0.5
            key = keys[chooser.next()]
            if read:
                ops.append((key, None, oracle[key]))
            else:
                value = SizedValue(("upd", self.made), self.value_size)
                oracle[key] = value
                ops.append((key, value, None))
            self.made += 1
        return ops


def _per_op_loop(store, ops, call_times):
    """One get/put call per op, each timed; returns the gets' values."""
    get = store.get
    put = store.put
    perf = time.perf_counter
    record = call_times.append
    results = []
    keep = results.append
    for key, value, __ in ops:
        t0 = perf()
        if value is None:
            got = get(key)[0]
        else:
            put(key, value)
            got = None
        record(perf() - t0)
        keep(got)
    return results


def _check_per_op(ops, results):
    failed = 0
    for (__, value, expected), got in zip(ops, results):
        if value is None and got != expected:
            failed += 1
    return len(ops), failed


class _DirectStores(Workload):
    """Shared parts of the workloads that drive stores directly, each
    on its own simulated machine and clock."""

    kinds = ("get", "put")

    def begin(self):
        super().begin()
        self._marks = [
            (s, s.clock.now, {k: s.latency.count(k) for k in self.kinds})
            for s in self.systems()
        ]

    def sim_elapsed(self):
        return sum(s.clock.now - clock0 for s, clock0, __ in self._marks)

    def sim_latencies(self):
        return [x for mark in self._marks for x in _latencies_since(mark)]


def _latencies_since(mark):
    system, __, counts = mark
    return [x for kind, index in counts.items()
            for __, x in system.latency.samples_since(kind, index)]


class _SingleStore(_DirectStores):
    """One store on one machine."""

    def release(self):
        self.store = self.system = None

    def systems(self):
        return [self.system]


class YcsbA(_SingleStore):
    """One MioDB store; YCSB-A through per-op get/put calls."""

    name = "ycsb-a"
    reference_ops_per_s = 38_000

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.records = 2048 if smoke else 32768
        self.value_size = 4 * KB
        self.memtable = 64 * KB if smoke else 1 * MB
        self.round_ops = 512 if smoke else 4096
        # Past the first lazy copy, at the smoke size too.
        self.min_rounds = 20 if smoke else 40
        self.items = _load_items(self.records, self.value_size, XorShiftRng(seed))

    def setup(self, watch):
        def build(lap):
            self.store, self.system = make_store(
                "miodb", BenchScale(memtable_bytes=self.memtable))
            _preload(self.store, self.items, lap)

        self._build(build, watch)
        self.stream = _YcsbStream(
            XorShiftRng(self.seed).fork(7), self.records, self.value_size,
            self.items)

    def make_round(self, index):
        return self.stream.make(self.round_ops)

    def run_round(self, ops, call_times):
        return _per_op_loop(self.store, ops, call_times)

    def check_round(self, ops, results):
        return _check_per_op(ops, results)


class ReadScan(_SingleStore):
    """One quiesced MioDB store; batched uniform reads plus scans."""

    name = "read-scan"
    reference_ops_per_s = 36_000
    kinds = ("get", "scan")
    # A setup takes about 9 s; two keep the run short enough.
    setup_repeats = 2

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.records = 4096 if smoke else 131072
        self.value_size = 1 * KB
        self.memtable = 64 * KB if smoke else 1 * MB
        self.round_ops = 1024 if smoke else 8192
        self.items = _load_items(self.records, self.value_size, XorShiftRng(seed))
        self.keys = [key_for(i) for i in range(self.records)]
        self.oracle = dict(self.items)

    def setup(self, watch):
        def build(lap):
            self.store, self.system = make_store(
                "miodb", BenchScale(memtable_bytes=self.memtable))
            _preload(self.store, self.items, lap)
            lap()
            self.store.quiesce()

        self._build(build, watch)
        self.rng = XorShiftRng(self.seed).fork(7)

    def make_round(self, index):
        """Units of work: ``(keys, expected)`` for one multi_get batch, or
        ``(start_key, expected_pairs)`` for one scan.  The store is
        read-only, so reads batch up without reordering any result."""
        rng, keys, oracle, n = self.rng, self.keys, self.oracle, self.records
        units = []
        batch = []
        for __ in range(self.round_ops):
            if rng.next_float() < 0.95:
                batch.append(keys[rng.next_below(n)])
                if len(batch) == MULTI_GET_BATCH:
                    units.append((batch, [oracle[k] for k in batch]))
                    batch = []
            else:
                start = rng.next_below(n)
                expect = [(keys[i], oracle[keys[i]])
                          for i in range(start, min(n, start + SCAN_LENGTH))]
                units.append((keys[start], expect))
        if batch:
            units.append((batch, [oracle[k] for k in batch]))
        return units

    def run_round(self, units, call_times):
        multi_get = self.store.multi_get
        scan = self.store.scan
        perf = time.perf_counter
        record = call_times.append
        results = []
        keep = results.append
        for what, __ in units:
            t0 = perf()
            if isinstance(what, list):
                got = [value for value, __ in multi_get(what)]
            else:
                got = scan(what, SCAN_LENGTH)[0]
            record(perf() - t0)
            keep(got)
        return results

    def check_round(self, units, results):
        ops = failed = 0
        for (what, expect), got in zip(units, results):
            if isinstance(what, list):
                ops += len(what)
                failed += sum(1 for g, e in zip(got, expect) if g != e)
                failed += abs(len(got) - len(expect))
            else:
                ops += 1
                failed += got != expect
        return ops, failed


class Engines(_DirectStores):
    """The YCSB-A mix on each baseline engine in turn, round-robin."""

    name = "engines"
    reference_ops_per_s = 29_600
    ENGINES = ("leveldb", "matrixkv", "novelsm", "slmdb")
    # A round on each engine in turn, so each runs the same number.
    rounds_per_cycle = len(ENGINES)

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.records = 1024 if smoke else 8192
        self.value_size = 4 * KB
        self.memtable = 64 * KB if smoke else 1 * MB
        self.round_ops = 256 if smoke else 4096
        self.items = _load_items(self.records, self.value_size, XorShiftRng(seed))

    def release(self):
        self.stores = []

    def setup(self, watch):
        def build(lap):
            scale = BenchScale(memtable_bytes=self.memtable)
            for name in self.ENGINES:
                if self.stores:
                    lap()
                store, __ = make_store(name, scale)
                _preload(store, self.items, lap)
                self.stores.append(store)

        self._build(build, watch)
        base = XorShiftRng(self.seed).fork(7)
        self.streams = [
            _YcsbStream(base.fork(i + 1), self.records, self.value_size, self.items)
            for i in range(len(self.ENGINES))
        ]

    def systems(self):
        return [store.system for store in self.stores]

    def mio_systems(self):
        return []

    def make_round(self, index):
        engine = index % len(self.ENGINES)
        return engine, self.streams[engine].make(self.round_ops)

    def run_round(self, work, call_times):
        engine, ops = work
        return _per_op_loop(self.stores[engine], ops, call_times)

    def check_round(self, work, results):
        return _check_per_op(work[1], results)

    def sim_percentiles(self):
        """The geometric mean over the engines of each engine's own
        percentile.  Pooled, the engines' ops form one mixed
        distribution: leveldb stalls on about 2% of its ops, novelsm on
        1.5%, matrixkv on 0.5% and slmdb on 0.07%, so about 1% of the
        pooled ops stall for a millisecond and the pooled p99 jumps
        between 14 us and 1,002 us from seed to seed."""
        each = []
        for mark in self._marks:
            lat = sorted(_latencies_since(mark))
            each.append((percentile(lat, 50), percentile(lat, 99)))
        return tuple(math.prod(col) ** (1 / len(each)) for col in zip(*each))


class ReplCluster(Workload):
    """4 replicated shards driven open-loop through ``run_cluster``."""

    name = "repl-cluster"
    reference_ops_per_s = 7_700
    SHARDS = 4
    CLIENTS = 4
    RATE_PER_S = 100_000.0

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.records = 2048 if smoke else 16384
        self.value_size = 1 * KB
        self.memtable = 64 * KB if smoke else 256 * KB
        self.round_ops = 512 if smoke else 4096
        # 24 rounds (98,304 ops): the open-loop p99 and the wall rate
        # vary most here, so a run holds more rounds than --seconds
        # alone asks for.
        self.min_rounds = 3 if smoke else 24
        self.items = _load_items(self.records, self.value_size, XorShiftRng(seed))

    def release(self):
        self.cluster = self.router = None

    def setup(self, watch):
        def build(lap):
            config = ReplicationConfig(
                followers=2, ack_policy=ACK_QUORUM,
                read_policy=READ_FOLLOWER_EVENTUAL)
            self.cluster = Cluster(
                "miodb", n_shards=self.SHARDS,
                scale=BenchScale(memtable_bytes=self.memtable),
                replication=config)
            self.router = ShardRouter(self.cluster)
            for at, (key, value) in enumerate(self.items):
                if at and at % LAP_RECORDS == 0:
                    lap()
                self.router.put(key, value)
            lap()
            self.router.quiesce()
            self.live = self.cluster.attach_live()

        self._build(build, watch)
        self.admission = AdmissionControl(max_queue_depth=64, policy="defer")
        self.oracle = dict(self.items)
        self.client_rng = XorShiftRng(self.seed).fork(7)

    def systems(self):
        return [m.system for g in self.cluster.groups for m in g.members]

    def leaders(self):
        return [g.members[g.leader_idx] for g in self.cluster.groups]

    def make_round(self, index):
        """Client specs for one ``run_cluster`` call.

        The oracle replays each client's seeded stream (arrival process,
        op kinds, zipfian keys, value tags) as ``run_cluster`` generates it,
        and applies the writes in arrival order -- the order a FIFO
        shard queue serves them in when nothing is deferred.
        """
        n_ops = self.round_ops // self.CLIENTS
        rate = self.RATE_PER_S / self.CLIENTS
        specs = [
            ClientSpec(n_ops=n_ops, rate_per_s=rate, key_space=self.records,
                       read_fraction=0.5, theta=0.99,
                       value_size=self.value_size,
                       seed=self.client_rng.next_u64() | 1)
            for __ in range(self.CLIENTS)
        ]
        start = self.cluster.clock.now
        writes = []
        for client, spec in enumerate(specs):
            rng = XorShiftRng(spec.seed)
            gaps, kinds = rng.fork(1), rng.fork(2)
            keys = ZipfianGenerator(spec.key_space, rng.fork(3), spec.theta)
            arrival = start
            for i in range(spec.n_ops):
                arrival += -math.log(1.0 - gaps.next_float()) / spec.rate_per_s
                put = kinds.next_float() >= spec.read_fraction
                key = key_for(keys.next())
                if put:
                    writes.append((arrival, (client, i), key))
        writes.sort()
        self.puts += len(writes)
        for __, tag, key in writes:
            self.oracle[key] = SizedValue(tag, self.value_size)
        return specs

    def run_round(self, specs, call_times):
        with _CallTimer(ReplicaGroup, ("put", "get"), call_times):
            result = cluster_api.run_cluster(
                self.router, specs, admission=self.admission)
        self.results.append(result)
        return result

    def check_round(self, specs, result):
        offered = sum(spec.n_ops for spec in specs)
        return result.completed, result.dropped + (offered - result.offered)

    def finish(self):
        """Quiesce; every group must be caught up, and a leader read of
        every key must match the oracle."""
        self.router.quiesce()
        failed = sum(1 for g in self.cluster.groups if g.lag() != 0)
        for key, expected in self.oracle.items():
            group = self.cluster.groups[self.router.route(key)]
            value, __ = group.members[group.leader_idx].store.get(key)
            failed += value != expected
        return failed

    def begin(self):
        super().begin()
        self._clock0 = self.cluster.clock.now
        self._repl0 = dict(self.cluster.stats.snapshot())
        self.results = []
        self.puts = 0

    def sim_elapsed(self):
        return self.cluster.clock.now - self._clock0

    def sim_latencies(self):
        lat = []
        for result in self.results:
            lat.extend(result.merged_recorder().latencies("response"))
        return lat

    def write_amp(self):
        # Every replica's persistent bytes per byte the clients wrote.
        systems = self.systems()
        user = sum(m.system.stats.get("user.bytes_written") for m in self.leaders())
        return sum(s.persistent_bytes_written() for s in systems) / user

    def extra_fingerprint(self):
        return [self.cluster.stats.snapshot(),
                [g.snapshot() for g in self.cluster.groups]]

    def layer_counters(self, ops):
        out = super().layer_counters(ops)
        stats = self.cluster.stats
        delta = {k: stats.get(k) - self._repl0.get(k, 0.0)
                 for k in ("repl.ack_wait_s", "repl.shipped_records",
                           "cluster.deferred")}
        offered = sum(r.offered for r in self.results)
        seen = sum(r.sampling_meta()["ops_seen"] for r in self.live)
        kept = sum(r.sampling_meta()["ops_retained"] for r in self.live)
        out.update({
            "replication.ack_wait_us_per_put": delta["repl.ack_wait_s"] * 1e6 / self.puts,
            "replication.shipped_per_put": delta["repl.shipped_records"] / self.puts,
            "cluster.queue_depth_max": max(
                row["max_queue_depth"] for r in self.results for row in r.per_shard),
            "cluster.deferred_ratio": delta["cluster.deferred"] / offered,
            "obs.retained_ratio": kept / seen if seen else 0.0,
        })
        return out


class _CallTimer:
    """Times every call to ``cls.<names>`` into ``out`` while active."""

    def __init__(self, cls, names, out):
        self.cls = cls
        self.names = names
        self.out = out
        self.saved = []

    def __enter__(self):
        record = self.out.append
        perf = time.perf_counter
        for name in self.names:
            fn = self.cls.__dict__[name]

            def timed(*args, _fn=fn, **kwargs):
                t0 = perf()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    record(perf() - t0)

            self.saved.append((name, fn))
            setattr(self.cls, name, timed)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved:
            setattr(self.cls, name, fn)
        self.saved.clear()
        return False


WORKLOADS = {cls.name: cls for cls in (YcsbA, ReadScan, ReplCluster, Engines)}

