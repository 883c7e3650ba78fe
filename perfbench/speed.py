"""Machine-speed calibration for the wall-clock metrics.

On a shared virtual machine the interpreter's speed drifts by tens of
percent over seconds to minutes, for every program alike.  The
benchmark times :meth:`Calibration.kernel` -- fixed pure-Python work of
the kind the simulator does: walking a large linked structure in a
random order (as a skiplist descent does), probing a large dict keyed
by bytes, allocating, sorting and indexing small slotted records -- at
*calibration points*: before the first timed round and after every
round, and in every setup at its start, at its end and between pieces
of a few thousand preloaded records.  A point runs the kernel once
to re-touch its own structure, discards that time, then keeps
:data:`KEPT` samples, all with the cyclic garbage collector paused.  The
*factor* of a piece of work is the median of the samples at the points
on either side of it over :data:`REFERENCE_S`: above 1 the machine ran
slower than the reference.  Each round and each piece of a setup is
scaled by its own factor (:class:`Stopwatch`), so drift within a run is
corrected where it happens: rates
are multiplied by the factor, times divided by it.  The raw values are
reported beside the scaled ones.

The kernel's structure is larger than the CPU caches on purpose: a
cache-resident kernel over-corrects the simulator, whose own working
set is large.  The allocation half is as long as the walk half: on the
2-vCPU development VM, timing a fixed batch of store reads against the
kernel for minutes, the program-to-kernel time ratio, taken as medians
over blocks of 100 samples, varied by 2.9% with the walk alone and by
0.8% with both halves, while the program's own time varied by 16%.  The kernel shares the program's process, so some
coupling remains: the discarded first run absorbs most of the cache
misses a round leaves behind, but the allocator's state and the
remaining cache contents still depend on what the program just did, so
a change to the program's memory behaviour can shift the factor by a
little and partly cancel itself in the scaled figures.  Compare the raw
figures too when a change is about memory layout.
"""

import gc
import statistics
import time
from operator import attrgetter

#: Median seconds of the kernel on the reference machine (2 vCPUs,
#: CPython 3.11.7).  Any constant works for comparing two commits; this
#: one keeps scaled values close to raw ones there.
REFERENCE_S = 0.0098

#: Samples kept per calibration point.
KEPT = 2

_NODES = 1 << 17
_STEPS = 6000


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class Calibration:
    """The calibration kernel and its (GC-invisible) state.

    Nodes are tuples of atomic values and link by index, so the cyclic
    collector untracks them and the program's own collections do not
    walk them.
    """

    def __init__(self):
        # Link the nodes in a fixed pseudo-random order, so the walk
        # jumps across the heap instead of along allocation order.
        order = list(range(_NODES))
        x = 12345
        for i in range(_NODES - 1, 0, -1):
            x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
            j = (x >> 33) % (i + 1)
            order[i], order[j] = order[j], order[i]
        successor = [0] * _NODES
        for a, b in zip(order, order[1:]):
            successor[a] = b
        self._nodes = [
            (((i * 2654435761) & 0xFFFFFFFF).to_bytes(4, "big"), i, successor[i])
            for i in range(_NODES)
        ]
        self._table = {key: value for key, value, __ in self._nodes}

    def kernel(self):
        nodes, table = self._nodes, self._table
        node = nodes[0]
        total = 0
        for __ in range(_STEPS):
            total += node[1]
            node = nodes[node[2]]
        for key, __, __ in nodes[:: _NODES // _STEPS]:
            total += table[key]
        fresh = [_Record(i.to_bytes(4, "big"), i) for i in range(1500)]
        fresh.sort(key=attrgetter("key"), reverse=True)
        records = [_Record(i, str(i)) for i in range(8000)]
        index = {record.value: record for record in records}
        return total + len(index)

    def sample(self):
        """Seconds the kernel takes now, with the cyclic GC paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def point(self):
        """The kept samples of one calibration point."""
        self.sample()
        return [self.sample() for __ in range(KEPT)]


def factor(samples):
    """Median kernel time over the reference time."""
    return statistics.median(samples) / REFERENCE_S


class Stopwatch:
    """Times work in segments, each scaled by its own factor.

    The first :meth:`start` takes a calibration point; each :meth:`stop`
    takes the next one and scales the segment by the factor of the
    points on either side of it.  The points are never timed.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = None

    def start(self):
        if self._before is None:
            self._before = self.calibration.point()
        self._t0 = time.perf_counter()

    def stop(self):
        """End a segment; returns its ``(raw seconds, factor)``."""
        elapsed = time.perf_counter() - self._t0
        after = self.calibration.point()
        scale = factor(self._before + after)
        self._before = after
        self.raw_s += elapsed
        self.scaled_s += elapsed / scale
        return elapsed, scale

    def lap(self):
        """End a segment and start the next."""
        self.stop()
        self.start()
