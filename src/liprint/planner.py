"""Step-pattern generation: foot placement from the predicted capture point.

Given the remaining step time dT, the desired step length is |v_cmd| * dT
and the width |w_cmd| * (dT / Ts). Predicting the capture point at the end
of the step and subtracting a constant offset (b_x, b_y) in the walking
frame yields a placement whose next step advances the capture point by
exactly the desired length; the lateral offset alternates sign with the
step parity. Turning reuses the same offsets rotated by the command heading.

The functions here validate typed arguments and call the scalar kernels
the simulator runs (`_kernels.plan_placement` and its parts).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lip_core
from .gait import GaitState, remaining_time
from ._kernels import command_heading, offset_pair, plan_placement, step_width
from .lip_core import FootPosition, IcpPoint, LipState


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
    """Velocity and step-width command; fallback_heading is used while the
    commanded speed is below the zero threshold (stepping in place must not
    spin); it must be finite and is stored wrapped to (-pi, pi]."""

    v_cmd: np.ndarray
    w_cmd: float = 0.3
    fallback_heading: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v_cmd", lip_core._vec2(self.v_cmd, "v_cmd"))
        if not (self.w_cmd > 0.0 and math.isfinite(self.w_cmd)):
            raise ValueError(f"step width command must be positive, got {self.w_cmd}")
        if not math.isfinite(self.fallback_heading):
            raise ValueError(f"fallback heading must be finite, got {self.fallback_heading}")
        object.__setattr__(self, "fallback_heading", wrap_angle(self.fallback_heading))

    @property
    def speed(self) -> float:
        return float(math.hypot(self.v_cmd[0], self.v_cmd[1]))


@dataclass(frozen=True)
class PlannedStep:
    """Desired foot placement with heading and the planning parity."""

    p_d: np.ndarray
    z_d: float
    heading: float
    parity: int

    def __post_init__(self):
        object.__setattr__(self, "p_d", lip_core._vec2(self.p_d, "p_d"))
        if not math.isfinite(self.z_d):
            raise ValueError(f"step height must be finite, got {self.z_d}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class OffsetVector:
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", lip_core._vec2(self.b, "b"))

    @property
    def b_x(self) -> float:
        return float(self.b[0])

    @property
    def b_y(self) -> float:
        return float(self.b[1])


def desired_step_length(cmd: StepCommand, dT: float) -> float:
    """s_d = |v_cmd| * dT."""
    if dT <= 0.0:
        raise ValueError(f"remaining time must be positive, got {dT}")
    return cmd.speed * dT


def desired_step_width(w_cmd: float, dT: float, Ts: float) -> float:
    """w_d = |w_cmd| * (dT / Ts)."""
    if not (0.0 < dT <= Ts):
        raise ValueError(f"remaining time must lie in (0, {Ts}], got {dT}")
    return step_width(w_cmd, dT, Ts)


def predict_final_icp(xi0: IcpPoint, stance: FootPosition, omega0: float,
                      dT: float) -> IcpPoint:
    """Capture point at the end of the step; the exact propagation."""
    return lip_core.icp_trajectory(xi0, stance, omega0, dT)


def offsets(s_d: float, w_d: float, omega0: float, dT: float) -> OffsetVector:
    """Constant offsets b_x = s_d/(e^{w dT} - 1), b_y = w_d/(e^{w dT} + 1).

    Evaluated via expm1 so the dT -> 0 limit (b_x -> s_d/(omega0*dT) with
    s_d proportional to dT, b_y -> w_d/2) carries full precision.
    """
    if dT < 0.0:
        raise ValueError(f"remaining time must be non-negative, got {dT}")
    if dT == 0.0 and s_d != 0.0:
        raise ValueError("dT == 0 with a nonzero step length has no finite offset")
    bx, by = offset_pair(s_d, w_d, omega0, dT)
    return OffsetVector(b=(bx, by))


def turning_angle(cmd: StepCommand) -> float:
    """Command heading in (-pi, pi] via full-quadrant arctangent; held at the
    fallback heading while the commanded speed is effectively zero."""
    return command_heading(cmd.v_cmd[0], cmd.v_cmd[1], cmd.fallback_heading)


def plan_step(state: LipState, stance: FootPosition, cmd: StepCommand,
              gait: GaitState, horizon: float | None = None) -> PlannedStep:
    """Desired foot placement for the current swing foot.

    p_d = xi_f + R(gamma) @ (-b_x, (-1)^n b_y), with xi_f predicted over the
    remaining step time. By default the offsets use the same remaining time;
    passing `horizon` evaluates step length, width, and offsets over that
    duration instead (the simulator replans every tick with the full step
    duration as horizon so that the executed touchdown keeps the per-step
    velocity recurrence). With step_duration = ticks_per_step * dt and
    horizon = Ts the result equals the simulator's target bit for bit.
    """
    dT = remaining_time(gait)  # in (0, Ts], as GaitState holds 0 <= t < Ts
    Ts = gait.params.step_duration
    span = dT if horizon is None else horizon
    if not (0.0 < span <= Ts):
        raise ValueError(f"step horizon must lie in (0, {Ts}], got {span}")
    xi0 = lip_core.icp_of(state).xi
    x, y, gamma = plan_placement(
        xi0[0], xi0[1], stance.p[0], stance.p[1], state.params.omega0, dT, span, Ts,
        cmd.v_cmd[0], cmd.v_cmd[1], cmd.w_cmd, gait.parity, cmd.fallback_heading)
    return PlannedStep(p_d=(x, y), z_d=stance.z, heading=gamma, parity=gait.parity)
