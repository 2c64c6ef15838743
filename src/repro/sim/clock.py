"""Per-process drifting clocks.

The paper assumes that, after the stabilization time ``TS``, process clocks
run at a rate within a known factor ``ρ`` of real time (``ρ ≪ 1``).  We model
each process clock as linear with a constant rate drawn from
``[1 − ρ, 1 + ρ]``: local time advances ``rate`` local-seconds per real
second.  Protocols set timers in *local* time, so a timer of local duration
``L`` elapses after a real duration in ``[L / (1 + ρ), L / (1 − ρ)]`` — this
is exactly the envelope the Modified Paxos session timer relies on to fire
within ``[4δ, σ]`` real seconds (:class:`repro.params.TimingParams` programs
it as ``session_timeout_local``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["DriftingClock"]


class DriftingClock:
    """A linear local clock with a constant rate, reading 0 at real time 0.

    Args:
        rate: Local seconds elapsed per real second; must be positive.
    """

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ConfigurationError(f"clock rate must be positive, got {rate}")
        self.rate = rate

    def __repr__(self) -> str:
        return f"DriftingClock(rate={self.rate:.6f})"

    def local_time(self, real_time: float) -> float:
        """Local clock reading at the given real time."""
        return real_time * self.rate

    def real_duration(self, local_duration: float) -> float:
        """Real seconds needed for the local clock to advance ``local_duration``."""
        if local_duration < 0:
            raise ConfigurationError("local_duration must be non-negative")
        return local_duration / self.rate
