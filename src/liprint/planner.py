"""Step-pattern generation: foot placement from the predicted capture point.

For offsets over a span dT of the step (the remaining step time, or
plan_step's horizon), the desired step length is |v_cmd| * dT and the
width |w_cmd| * (dT / Ts). Predicting the capture point at the end
of the step and subtracting a constant offset (b_x, b_y) in the walking
frame yields a placement whose next step advances the capture point by
exactly the desired length; the lateral offset alternates sign with the
step parity. Turning rotates the same offsets by the command heading.

The types here validate their fields, and plan_step makes the simulator's
two placement calls, `_kernels.placement_offsets` then
`_kernels.placement_at`; the offsets themselves are `_kernels.offset_pair`
and the heading `_kernels.command_heading`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lip_core
from .gait import GaitState, remaining_time
from ._kernels import placement_at, placement_offsets
from .lip_core import FootPosition, LipState


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = math.fmod(a, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class StepCommand:
    """Velocity and step-width command; the speed |v_cmd| must be finite.
    fallback_heading is used while the commanded speed is below the zero
    threshold (stepping in place must not spin); it must be finite and is
    stored wrapped to (-pi, pi]."""

    v_cmd: np.ndarray
    w_cmd: float = 0.3
    fallback_heading: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v_cmd", lip_core._vec2(self.v_cmd, "v_cmd"))
        vx, vy = map(float, self.v_cmd)
        if not math.isfinite(math.hypot(vx, vy)):
            raise ValueError(f"commanded speed overflows: |({vx!r}, {vy!r})| is not finite")
        if not (self.w_cmd > 0.0 and math.isfinite(self.w_cmd)):
            raise ValueError(f"step width command must be positive, got {self.w_cmd}")
        if not math.isfinite(self.fallback_heading):
            raise ValueError(f"fallback heading must be finite, got {self.fallback_heading}")
        object.__setattr__(self, "fallback_heading", wrap_angle(self.fallback_heading))


@dataclass(frozen=True)
class PlannedStep:
    """Desired foot placement with heading and the planning parity."""

    p_d: np.ndarray
    heading: float
    parity: int

    def __post_init__(self):
        object.__setattr__(self, "p_d", lip_core._vec2(self.p_d, "p_d"))
        object.__setattr__(self, "heading", wrap_angle(self.heading))


def plan_step(state: LipState, stance: FootPosition, cmd: StepCommand,
              gait: GaitState, horizon: float | None = None) -> PlannedStep:
    """Desired foot placement for the current swing foot.

    p_d = xi_f + R(gamma) @ (-b_x, (-1)^n b_y), with xi_f predicted over the
    remaining step time. By default the offsets use the same remaining time;
    passing `horizon` evaluates step length, width, and offsets over that
    duration instead (the simulator replans every tick with the full step
    duration as horizon so that the executed touchdown keeps the per-step
    velocity recurrence). The placement is the simulator's two kernel
    calls, placement_offsets over that span then placement_at over the
    remaining time, so with step_duration = ticks_per_step * dt and
    horizon = Ts the result equals the simulator's target bit for bit.
    """
    dT = remaining_time(gait)  # in (0, Ts], as GaitState holds 0 <= t < Ts
    Ts = gait.params.step_duration
    span = dT if horizon is None else horizon
    if not (0.0 < span <= Ts):
        raise ValueError(f"step horizon must lie in (0, {Ts}], got {span}")
    xi0 = lip_core.icp_of(state).xi  # first: a non-finite one raises before expm1 overflows
    offs = placement_offsets(state.params.omega0, span, Ts, cmd.v_cmd[0], cmd.v_cmd[1],
                             cmd.w_cmd, gait.parity, cmd.fallback_heading)
    x, y = placement_at(xi0[0], xi0[1], stance.p[0], stance.p[1], state.params.omega0, dT, offs)
    return PlannedStep(p_d=(x, y), heading=offs[4], parity=gait.parity)
