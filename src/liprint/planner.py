"""Step-pattern generation: foot placement from the predicted capture point.

The desired step length is |v_cmd| * Ts and the width |w_cmd|, over the
step duration Ts. Predicting the capture point at the end of the step and
subtracting a constant offset (b_x, b_y) in the walking frame yields a
placement whose next step advances the capture point by exactly the
desired length, at any time of the step; the lateral offset alternates
sign with the step parity. Turning rotates the same offsets by the command
heading.

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


def _check_step_length(v_cmd, Ts: float) -> None:
    """Raise ValueError unless the step length |v_cmd| * Ts is finite."""
    if not math.isfinite(math.hypot(*v_cmd) * Ts):
        raise ValueError(f"step length overflows: speed {math.hypot(*v_cmd)!r} m/s times "
                         f"step duration {Ts!r} s is not finite")


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
              gait: GaitState) -> PlannedStep:
    """Desired foot placement for the current swing foot.

    p_d = xi_f + R(gamma) @ (-b_x, (-1)^n b_y), with xi_f predicted over the
    remaining step time and the offsets over the step duration Ts, so that
    the next step advances the capture point by |v_cmd| * Ts (which must be
    finite). The placement is the simulator's two kernel calls,
    placement_offsets then placement_at, so with step_duration =
    ticks_per_step * dt the result equals the simulator's target bit for bit.
    """
    dT = remaining_time(gait)  # in (0, Ts], as GaitState holds 0 <= t < Ts
    Ts = gait.params.step_duration
    _check_step_length(cmd.v_cmd, Ts)
    xi0 = lip_core.icp_of(state).xi  # first: a non-finite one raises before expm1 overflows
    offs = placement_offsets(state.params.omega0, Ts, cmd.v_cmd[0], cmd.v_cmd[1],
                             cmd.w_cmd, gait.parity, cmd.fallback_heading)
    x, y = placement_at(xi0[0], xi0[1], stance.p[0], stance.p[1], state.params.omega0, dT, offs)
    return PlannedStep(p_d=(x, y), heading=offs[4], parity=gait.parity)
