"""Closed-form 3D-LIPM and instantaneous-capture-point dynamics.

With the CoM held at constant height above the stance foot, the planar
dynamics decouple per axis and both the CoM state and the capture point
xi = x + xdot/omega0 propagate in closed form. These exact solutions are
the substrate for the planner and the stepping simulator; derivative
evaluators are kept alongside so numerical oracles can cross-check them.

All types are immutable values and all operations are pure functions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

GRAVITY = 9.81
BASE_HEIGHT = 0.62


def natural_frequency(g: float, z0: float) -> float:
    """Pendulum natural frequency sqrt(g / z0); g, z0 and their ratio must
    be positive and finite."""
    if not (g > 0.0 and math.isfinite(g)):
        raise ValueError(f"gravity must be positive and finite, got {g}")
    if not (z0 > 0.0 and math.isfinite(z0)):
        raise ValueError(f"pendulum height must be positive and finite, got {z0}")
    ratio = g / z0
    if not (ratio > 0.0 and math.isfinite(ratio)):
        raise ValueError(f"g / z0 must be positive and finite, got {g} / {z0} = {ratio}")
    return math.sqrt(ratio)


def _vec2(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LipParams:
    """Pendulum constants; omega0 = natural_frequency(g, z0) is derived."""

    g: float = GRAVITY
    z0: float = BASE_HEIGHT
    omega0: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega0", natural_frequency(self.g, self.z0))


@dataclass(frozen=True)
class LipState:
    """Planar CoM position and velocity plus pendulum parameters."""

    com_pos: np.ndarray
    com_vel: np.ndarray
    params: LipParams

    def __post_init__(self):
        object.__setattr__(self, "com_pos", _vec2(self.com_pos, "com_pos"))
        object.__setattr__(self, "com_vel", _vec2(self.com_vel, "com_vel"))


@dataclass(frozen=True)
class FootPosition:
    """Stance-foot ground position (planar) and height."""

    p: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _vec2(self.p, "p"))
        if not math.isfinite(self.z):
            raise ValueError(f"foot height must be finite, got {self.z}")


@dataclass(frozen=True)
class IcpPoint:
    """Instantaneous capture point."""

    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", _vec2(self.xi, "xi"))


def lip_acceleration(s: LipState, f: FootPosition) -> np.ndarray:
    """CoM acceleration omega0^2 * (x - p)."""
    w = s.params.omega0
    return w * w * (s.com_pos - f.p)


def com_trajectory(s0: LipState, f: FootPosition, t: float) -> LipState:
    """Exact CoM state after time t with the foot in ground contact throughout."""
    if t < 0.0:
        raise ValueError(f"duration must be non-negative, got {t}")
    w = s0.params.omega0
    cx, cy, vx, vy = _kernels.lip_step(
        s0.com_pos[0], s0.com_pos[1], s0.com_vel[0], s0.com_vel[1],
        f.p[0], f.p[1], w, math.cosh(w * t), math.sinh(w * t))
    return LipState(com_pos=(cx, cy), com_vel=(vx, vy), params=s0.params)


def icp_of(s: LipState) -> IcpPoint:
    """Capture point xi = x + xdot / omega0."""
    return IcpPoint(xi=s.com_pos + s.com_vel / s.params.omega0)


def icp_derivative(xi: IcpPoint, f: FootPosition, omega0: float) -> np.ndarray:
    """Capture-point velocity omega0 * (xi - p)."""
    return omega0 * (xi.xi - f.p)


def icp_trajectory(xi0: IcpPoint, f: FootPosition, omega0: float, t: float) -> IcpPoint:
    """Exact capture point after time t: xi(t) = e^{w t} xi0 + (1 - e^{w t}) p."""
    if t < 0.0:
        raise ValueError(f"duration must be non-negative, got {t}")
    xx, xy = _kernels.icp_step(xi0.xi[0], xi0.xi[1], f.p[0], f.p[1], omega0, t)
    return IcpPoint(xi=(xx, xy))
