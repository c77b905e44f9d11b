"""Step clocks, support parity, and the smoothed contact schedule.

The gait is a fixed-duration alternation: step parity n counts completed
steps (even n plans the left foot while the right foot supports, odd n the
opposite). One clock runs: t since the current step began. The two-step
clock t' = (n % 2) * Ts + t, since the start of the last right-foot step,
follows from t and the parity; its two-step phase (cycle_phase) gives the
contact schedule and the sine/cosine phase clock (phase_signals). The
stance side is the parity's, not the sign of the contact schedule, which
is +6.1e-16 at an odd step's first tick. The simulator sets the clock from
the tick index, t = (i % k) * dt and n = i // k at tick i of k ticks per
step, so a step boundary falls exactly on t = 0.
"""

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class GaitParams:
    step_duration: float = 0.35

    def __post_init__(self):
        if not (self.step_duration > 0.0 and math.isfinite(self.step_duration)):
            raise ValueError(f"step duration must be positive, got {self.step_duration}")


@dataclass(frozen=True)
class GaitState:
    """Step clock t in [0, Ts) and parity, the integer number of completed
    steps (>= 0); the two-step clock t_prime in [0, 2*Ts) is derived from them."""

    t: float
    parity: int
    params: GaitParams

    def __post_init__(self):
        Ts = self.params.step_duration
        if not (0.0 <= self.t < Ts):
            raise ValueError(f"t must lie in [0, {Ts}), got {self.t}")
        if isinstance(self.parity, bool) or not isinstance(self.parity, numbers.Integral):
            raise ValueError(f"parity must be a non-negative integer, got {self.parity!r}")
        if self.parity < 0:
            raise ValueError(f"parity must be non-negative, got {self.parity}")

    @property
    def t_prime(self) -> float:
        """Two-step clock (parity % 2) * Ts + t."""
        return (self.parity % 2) * self.params.step_duration + self.t


def remaining_time(g: GaitState) -> float:
    """Time left in the current step, in (0, Ts]."""
    return g.params.step_duration - g.t


def cycle_phase(g: GaitState) -> float:
    """Two-step phase t' / (2 Ts) in [0, 1)."""
    return g.t_prime / (2.0 * g.params.step_duration)


def phase_signals(phase: float) -> tuple[float, float, float]:
    """(contact schedule, sin, cos) at a two-step phase in [0, 1): the sine of
    the phase angle smoothed into a square wave in [-1, 1], and the phase clock.
    """
    a = 2.0 * math.pi * phase
    s = math.sin(a)
    return s / math.sqrt(s * s + 0.04), s, math.cos(a)
