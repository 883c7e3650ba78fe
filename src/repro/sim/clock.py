"""Simulated clock.

The clock only moves forward.  Foreground operations advance it by the
simulated duration of the work they perform; stalls advance it to the
completion time of the background job being waited on.
"""


class SimClock:
    """A monotonically non-decreasing simulated clock, in seconds.

    ``now`` is a plain attribute -- it is read many times per simulated
    operation, so it pays no property call.  :meth:`advance` and
    :meth:`advance_to` are its only writers; the ``CLK001`` lint rule
    (``repro check``) rejects assignments to ``.now`` anywhere else.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulated time in seconds.
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time.

        Negative durations are rejected: simulated work cannot take
        negative time, and silently clamping would hide cost-model bugs.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        return self.now

    def advance_to(self, deadline: float) -> float:
        """Move the clock to ``deadline`` if it lies in the future.

        Advancing to a past instant is a no-op (the clock never rewinds),
        which is the natural semantics for "wait until job X is done":
        if it already finished, there is nothing to wait for.
        """
        if deadline > self.now:
            self.now = deadline
        return self.now

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.9f})"
