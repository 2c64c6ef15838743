"""Model constants shared by the kernel, the protocols, and the analysis.

These are the quantities the paper assumes the algorithm *knows*:

* ``delta`` — the post-stabilization bound on message delivery + processing
  time (the paper's ``δ``).
* ``rho`` — the bound on local clock rate error after stabilization
  (the paper's ``ρ``).
* ``epsilon`` — the keep-alive interval: a process re-sends a phase 1a
  message if it has not sent a phase 1a or 2a message within the last
  ``epsilon`` local seconds (the paper's ``ε``), with ``ε = O(δ)``.
* ``session_timeout_real_min`` — the minimum real duration of the session
  timer; the paper requires at least ``4δ``.

Quantities the algorithm does **not** know — the stabilization time ``TS``
and which processes are faulty — live in the scenario / network
configuration instead, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["TimingParams"]


@dataclass(frozen=True)
class TimingParams:
    """Known timing constants of the eventually-synchronous model."""

    delta: float = 1.0
    rho: float = 0.0
    epsilon: float = 0.1
    session_timeout_factor: float = 4.0

    def __post_init__(self) -> None:
        # Each check is also false for NaN.
        if not 0.0 < self.delta < math.inf:
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 4.0 <= self.session_timeout_factor < math.inf:
            raise ConfigurationError(
                "session_timeout_factor must be finite and >= 4 (the paper requires the "
                f"session timer to wait at least 4*delta), got {self.session_timeout_factor}"
            )

    # -- derived quantities -------------------------------------------------
    @property
    def session_timeout_real_min(self) -> float:
        """Minimum real duration of the session timer (the paper's ``4δ``)."""
        return self.session_timeout_factor * self.delta

    @property
    def session_timeout_local(self) -> float:
        """Local duration to program the session timer with.

        Chosen as ``4δ(1 + ρ)`` so the real expiry is never earlier than
        ``4δ`` even on the fastest admissible clock.
        """
        return self.session_timeout_real_min * (1.0 + self.rho)

    @property
    def sigma(self) -> float:
        """The paper's ``σ``: worst-case real expiry of the session timer."""
        return self.session_timeout_local / (1.0 - self.rho)

    @property
    def tau(self) -> float:
        """The paper's ``τ = max(2δ + ε, σ)`` used throughout the proof."""
        return max(2.0 * self.delta + self.epsilon, self.sigma)

    def with_epsilon(self, epsilon: float) -> "TimingParams":
        """Return a copy with a different keep-alive interval."""
        return replace(self, epsilon=epsilon)

    def describe(self) -> str:
        """One-line human-readable summary used by reports."""
        return (
            f"delta={self.delta:g} rho={self.rho:g} epsilon={self.epsilon:g} "
            f"sigma={self.sigma:g} tau={self.tau:g}"
        )
