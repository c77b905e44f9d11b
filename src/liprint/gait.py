"""Step clocks, support parity, and the smoothed contact schedule.

The gait is a fixed-duration alternation: step parity n counts completed
steps (even n plans the left foot while the right foot supports, odd n the
opposite). Two clocks run together: t since the current step began, and t'
since the start of the last right-foot step, which drives the two-step
phase used by the contact schedule and the sine/cosine phase clock.
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
    """Clocks and parity; t in [0, Ts), t_prime in [0, 2*Ts)."""

    t: float
    t_prime: float
    parity: int
    params: GaitParams

    def __post_init__(self):
        Ts = self.params.step_duration
        if not (0.0 <= self.t < Ts):
            raise ValueError(f"t must lie in [0, {Ts}), got {self.t}")
        if not (0.0 <= self.t_prime < 2.0 * Ts):
            raise ValueError(f"t_prime must lie in [0, {2 * Ts}), got {self.t_prime}")

    @classmethod
    def start(cls, params: GaitParams) -> "GaitState":
        return cls(t=0.0, t_prime=0.0, parity=0, params=params)


def advance(g: GaitState, dt: float) -> tuple[GaitState, bool]:
    """Tick both clocks by dt; returns (new state, crossed a step boundary)."""
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
    tp = g.t_prime + dt
    if tp >= 2.0 * Ts - _WRAP_TOL:
        tp -= 2.0 * Ts
        if abs(tp) < _WRAP_TOL:
            tp = 0.0
    return GaitState(t=t, t_prime=tp, parity=parity, params=g.params), boundary


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
