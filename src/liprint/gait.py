"""Step clocks, support parity, and the smoothed contact schedule.

The gait is a fixed-duration alternation: step parity n counts completed
steps (even n plans the left foot while the right foot supports, odd n the
opposite). One clock runs: t since the current step began. The two-step
clock t' = (n % 2) * Ts + t, since the start of the last right-foot step,
follows from t and the parity; it drives the two-step phase used by the
contact schedule and the sine/cosine phase clock.
"""

import math
from dataclasses import dataclass

_WRAP_TOL = 1e-9


@dataclass(frozen=True)
class GaitParams:
    step_duration: float = 0.35

    def __post_init__(self):
        if not (self.step_duration > 0.0 and math.isfinite(self.step_duration)):
            raise ValueError(f"step duration must be positive, got {self.step_duration}")


@dataclass(frozen=True)
class GaitState:
    """Step clock t in [0, Ts) and parity; the two-step clock t_prime in
    [0, 2*Ts) is derived from them."""

    t: float
    parity: int
    params: GaitParams

    def __post_init__(self):
        Ts = self.params.step_duration
        if not (0.0 <= self.t < Ts):
            raise ValueError(f"t must lie in [0, {Ts}), got {self.t}")

    @property
    def t_prime(self) -> float:
        """Two-step clock (parity % 2) * Ts + t."""
        return (self.parity % 2) * self.params.step_duration + self.t

    @classmethod
    def start(cls, params: GaitParams) -> "GaitState":
        return cls(t=0.0, parity=0, params=params)


def advance(g: GaitState, dt: float) -> tuple[GaitState, bool]:
    """Tick the step clock by dt; returns (new state, crossed a step boundary)."""
    Ts = g.params.step_duration
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt >= Ts:
        raise ValueError(f"clock tick {dt} must be shorter than the step duration {Ts}")
    t = g.t + dt
    parity = g.parity
    boundary = False
    if t >= Ts - _WRAP_TOL:
        t -= Ts
        if abs(t) < _WRAP_TOL:
            t = 0.0
        parity += 1
        boundary = True
    return GaitState(t=t, parity=parity, params=g.params), boundary


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


def contact_schedule(g: GaitState) -> float:
    """Smoothed square wave in [-1, 1]: positive half assigns right-foot stance."""
    return phase_signals(cycle_phase(g))[0]


def phase_clock(g: GaitState) -> tuple[float, float]:
    """(sin, cos) of the two-step phase angle."""
    return phase_signals(cycle_phase(g))[1:]


def swing_foot(g: GaitState) -> str:
    """Foot currently being planned: 'left' for even parity, 'right' for odd."""
    return "left" if g.parity % 2 == 0 else "right"
