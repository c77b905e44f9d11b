"""Reward evaluators and the joint PD law.

`reward_table` evaluates every reward term over whole columns: (n,) for
scalar signals, (n, k) for per-joint vectors, (n, 2, 2) for the feet.
`total_reward` runs the same core on one `RobotSample` and its
contact-schedule value C and stance side and returns its total and
per-term breakdown (`regularization` picks the regularization terms out of
it), so each formula exists once. A gait state enters as numbers: C, and
the stance side from its parity; neither form infers the side from C.
Each row's values are bit-identical to scoring that row alone: exp is
`math.exp` and squares of scalar signals use `pow` (Python's `**`), where
np.exp and x * x can differ in the last bit; row dot products use stacked
matmul (the BLAS dot of `x @ x`) and row sums run over C-contiguous rows.

The task terms peak at 1 (base height), 2 (base heading), 4 (velocity
tracking), and 9 (contact schedule). Each of the eleven regularization
terms is its constant weight in REG_WEIGHTS, the penalty table, times its
unweighted term; the limits and the action period are RewardParams inputs.
The termination term evaluates its five conditions on the sample
(self-collision is an input flag, not computed).
Note the heading term decays with |error|/sigma, not the squared error;
its shaping scale therefore carries different units than the height term.
This is deliberate and kept verbatim.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .lip_core import BASE_HEIGHT

RIGHT, LEFT = 0, 1

TASK_TERMS = ("base_height", "base_orientation", "velocity_tracking", "contact_schedule")
# The weight of each regularization term, in the order of the penalty table.
REG_WEIGHTS = {"joint_torques": 1e-4, "torque_limits": 1e-2, "joint_velocity": 1e-3,
               "joint_limits": 10.0, "action_smoothness_1": 1e-3, "action_smoothness_2": 1e-4,
               "hip_regularization": 1.25, "base_rollpitch_velocity": 1e-2,
               "base_z_velocity": 1e-1, "base_tilting": 1.0, "termination": 100.0}
REG_TERMS = tuple(REG_WEIGHTS)


def _arr(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(-1)


def _exp(x: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.exp, x.tolist())), dtype=np.float64)


def _sq(x: np.ndarray) -> np.ndarray:
    vals = x.tolist()
    try:
        return np.array([v ** 2 for v in vals], dtype=np.float64)
    except OverflowError:  # ** raises past sqrt(max float), where the square is inf
        return np.array([math.inf if abs(v) > 1.3407807929942596e154 else v ** 2 for v in vals])


def _rowdot(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x)
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class RobotSample:
    """One observation of the robot; vector fields default to empty."""

    base_height: float = BASE_HEIGHT
    base_heading: float = 0.0
    base_vel_world: np.ndarray = (0.0, 0.0)
    base_vel_z: float = 0.0
    base_ang_vel: np.ndarray = (0.0, 0.0, 0.0)
    gravity_proj: np.ndarray = (0.0, 0.0, -1.0)
    q: np.ndarray = ()
    dq: np.ndarray = ()
    tau: np.ndarray = ()
    foot_pos: np.ndarray = ((0.0, 0.0), (0.0, 0.0))
    foot_contact: tuple = (False, False)
    action: np.ndarray = ()
    action_prev: np.ndarray = ()
    action_prev2: np.ndarray = ()
    q_hip_xz: np.ndarray = ()
    self_collision: bool = False

    def __post_init__(self):
        for name in ("base_vel_world", "base_ang_vel", "gravity_proj", "q", "dq",
                     "tau", "action", "action_prev", "action_prev2", "q_hip_xz"):
            object.__setattr__(self, name, _arr(getattr(self, name)))
        object.__setattr__(self, "foot_pos",
                           np.asarray(self.foot_pos, dtype=np.float64).reshape(2, 2))


_DEFAULT_SAMPLE = RobotSample()


def _columns(n: int, cols: dict) -> SimpleNamespace:
    """Every RobotSample field as an n-row C-contiguous column; omitted
    fields repeat the RobotSample default."""
    if not cols.keys() <= vars(_DEFAULT_SAMPLE).keys():
        raise ValueError(f"unknown sample columns {sorted(cols.keys() - vars(_DEFAULT_SAMPLE))}")
    out = SimpleNamespace()
    for name, default in vars(_DEFAULT_SAMPLE).items():
        default = np.asarray(default)  # float64, or bool for the two flags
        v = np.asarray(cols.get(name, np.broadcast_to(default, (n,) + default.shape)),
                       dtype=default.dtype)
        if v.shape[:1] != (n,):
            raise ValueError(f"column {name} has shape {v.shape}, expected {n} rows")
        setattr(out, name, np.ascontiguousarray(v))
    return out


@dataclass(frozen=True)
class RewardParams:
    """The reward's inputs: the task terms' targets and shaping scale, the
    robot's limits (non-negative, scalar or one per joint, inf for none) and
    the log's action period. The regularization weights are the constant
    REG_WEIGHTS."""

    sigma: float = 0.25
    base_height_target: float = BASE_HEIGHT
    heading_target: float = 0.0
    vel_cmd: np.ndarray = (0.0, 0.0)
    tau_max: np.ndarray = math.inf
    q_max: np.ndarray = math.inf
    action_dt: float = 0.01

    def __post_init__(self):
        for name in ("sigma", "action_dt"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        object.__setattr__(self, "vel_cmd", _arr(self.vel_cmd))
        if self.vel_cmd.shape != (2,):
            raise ValueError(f"vel_cmd must have 2 entries (x, y), got {self.vel_cmd}")
        for name in ("tau_max", "q_max"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.ndim > 1 or not np.all(value >= 0.0):
                raise ValueError(f"{name} must be a non-negative scalar or one per joint "
                                 f"(inf for no limit), got {getattr(self, name)}")
        for name in ("base_height_target", "vel_cmd", "heading_target"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # reward_table divides by 1 + its norm, which numpy takes as the root
        # of the squared norm: an overflow there would zero every error
        if not math.isfinite(sum(v * v for v in self.vel_cmd.ravel().tolist())):
            raise ValueError(f"vel_cmd must have a finite squared norm, got {self.vel_cmd}")


@np.errstate(over="ignore")
def reward_table(columns: dict, params: RewardParams, schedule, targets,
                 stance_side) -> tuple[np.ndarray, dict]:
    """Every task and regularization term of n samples, and their totals.

    columns: RobotSample fields as arrays with a leading row axis (omitted
    fields take the RobotSample default); schedule: (n,) contact-schedule
    values C; targets: (n, 2, 2) per-foot desired placements [right, left];
    stance_side: (n,) RIGHT or LEFT. Returns (total, breakdown): breakdown
    maps TASK_TERMS, then REG_TERMS, to (n,) columns, and each total sums
    its row's terms in that order.
    """
    schedule = np.asarray(schedule, dtype=np.float64)
    n = len(schedule)
    s = _columns(n, columns)
    sig, dt = params.sigma, params.action_dt
    a, a1, a2 = s.action, s.action_prev, s.action_prev2
    omega, g = s.base_ang_vel, s.gravity_proj
    tau_max, q_max = (np.asarray(v, dtype=np.float64) for v in (params.tau_max, params.q_max))
    for name, limit, col in (("tau_max", tau_max, s.tau), ("q_max", q_max, s.q)):
        if limit.ndim and limit.shape != col.shape[1:]:
            raise ValueError(f"{name} must be a scalar or one per joint ({col.shape[1]}), "
                             f"got {limit.size} entries")
    height_err = params.base_height_target - s.base_height
    heading_err = np.fmod(params.heading_target - s.base_heading, 2.0 * math.pi)
    heading_err = np.where(np.abs(heading_err) > math.pi,
                           heading_err - np.copysign(2.0 * math.pi, heading_err), heading_err)
    vel_err = ((params.vel_cmd - s.base_vel_world)
               / (1.0 + float(np.linalg.norm(params.vel_cmd))))
    rows, side = np.arange(n), np.asarray(stance_side, dtype=np.intp)
    foot_err = np.sqrt(_rowdot(np.asarray(targets, dtype=np.float64)[rows, side]
                               - s.foot_pos[rows, side]))
    speed = np.sqrt(_rowdot(s.base_vel_world) + _sq(s.base_vel_z))
    terminated = (s.self_collision | (speed >= 10.0) | (np.sqrt(_rowdot(omega)) >= 5.0)
                  | (np.abs(g[:, 0]) >= 0.7) | (np.abs(g[:, 1]) >= 0.7)
                  | (s.base_height < 0.3))
    breakdown = {
        "base_height": _exp(-height_err * height_err / sig),
        "base_orientation": 2.0 * _exp(-np.abs(heading_err) / sig),
        "velocity_tracking": 4.0 * _exp(-_rowdot(vel_err) / sig),
        "contact_schedule": 9.0 * (s.foot_contact[:, RIGHT].astype(np.float64)
                                   - s.foot_contact[:, LEFT])
            * schedule * _exp(-foot_err / sig),
    }
    unweighted = {
        "joint_torques": -_rowdot(s.tau),
        "torque_limits": -np.maximum(np.abs(s.tau) - 0.9 * tau_max, 0.0).sum(axis=1),
        "joint_velocity": -_rowdot(s.dq),
        "joint_limits": -np.clip(np.abs(s.q) - 0.9 * q_max, 0.0, 1.0).sum(axis=1),
        "action_smoothness_1": -(((a - a1) / dt) ** 2).sum(axis=1) if a.shape[1] else np.zeros(n),
        "action_smoothness_2": (-(((a - 2.0 * a1 + a2) / dt) ** 2).sum(axis=1) if a.shape[1]
                                else np.zeros(n)),
        "hip_regularization": _exp(-_rowdot(s.q_hip_xz) / sig),
        "base_rollpitch_velocity": -(_sq(omega[:, 0]) + _sq(omega[:, 1])),
        "base_z_velocity": -_sq(s.base_vel_z),
        "base_tilting": _exp(-(_sq(g[:, 0]) + _sq(g[:, 1])) / sig),
        "termination": np.where(terminated, -1.0, 0.0),
    }
    breakdown.update((k, w * unweighted[k]) for k, w in REG_WEIGHTS.items())
    total = np.zeros(n)
    for v in breakdown.values():
        total = total + v
    return total, breakdown


def pd_torque(q_ref, dq_action, q, qd, kp=30.0, kd=1.0) -> np.ndarray:
    """Joint PD law tau = Kp (q_ref + dq_action - q) + Kd (0 - qd).

    kp and kd are the diagonal gains, scalar or per-joint.
    """
    q_ref, dq_action, q, qd = _arr(q_ref), _arr(dq_action), _arr(q), _arr(qd)
    return np.asarray(kp) * (q_ref + dq_action - q) - np.asarray(kd) * qd


def regularization(s: RobotSample, params: RewardParams) -> dict:
    """Weighted regularization terms, keyed by name."""
    # the stance side is immaterial: the contact term is 0 at C = 0
    breakdown = total_reward(s, params, 0.0, np.zeros((2, 2)), RIGHT)[1]
    return {k: breakdown[k] for k in REG_TERMS}


def total_reward(s: RobotSample, params: RewardParams, c: float, targets,
                 stance_side: int) -> tuple[float, dict]:
    """Sum of the four task terms and all regularization terms of one sample.

    c is the contact-schedule value C. targets is a (2, 2) array of
    per-foot desired placements [right, left]; the contact term's placement
    error is the stance foot's (stance_side, RIGHT or LEFT) distance to its
    target. A caller holding a gait state passes the side of its parity,
    as score does (RIGHT on an even step). Returns (total, breakdown):
    breakdown maps TASK_TERMS, then REG_TERMS, to floats, and sums to the
    total exactly.
    """
    total, breakdown = reward_table(
        {k: np.asarray(v)[None] for k, v in vars(s).items()}, params, [float(c)],
        np.asarray(targets, dtype=np.float64).reshape(1, 2, 2), [stance_side])
    return float(total[0]), {k: float(v[0]) for k, v in breakdown.items()}
