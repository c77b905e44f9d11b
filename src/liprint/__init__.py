"""Footstep planning on the linear inverted pendulum, a terrain-adaptive
reduced-order walking simulator, and locomotion reward evaluators."""

from .lip_core import (FootPosition, IcpPoint, LipParams, LipState,
                       com_trajectory, icp_derivative, icp_of, icp_trajectory,
                       lip_acceleration, natural_frequency)
from .gait import (GaitParams, GaitState, advance, contact_schedule,
                   phase_clock, remaining_time, swing_foot)
from .planner import (OffsetVector, PlannedStep, StepCommand,
                      desired_step_length, desired_step_width, offsets,
                      plan_step, predict_final_icp, turning_angle)
from .terrain import (Heightmap, TerrainSpec, generate, height_at,
                      is_steppable, nearest_steppable)
from .sim import (SimConfig, SimResult, StepEvent, run, success_metric, sweep, turn_maneuver)
from . import metrics

__version__ = "0.1.0"

# perfbench/run.py reads this for its report's backend field; it can go once
# perfbench reads it with getattr (ROADMAP item 1).
NUMBA_ENABLED = False

__all__ = [
    "__version__",
    "FootPosition", "IcpPoint", "LipParams", "LipState",
    "com_trajectory", "icp_derivative", "icp_of", "icp_trajectory",
    "lip_acceleration", "natural_frequency",
    "GaitParams", "GaitState", "advance", "contact_schedule",
    "phase_clock", "remaining_time", "swing_foot",
    "OffsetVector", "PlannedStep", "StepCommand",
    "desired_step_length", "desired_step_width", "offsets",
    "plan_step", "predict_final_icp", "turning_angle",
    "Heightmap", "TerrainSpec", "generate", "height_at",
    "is_steppable", "nearest_steppable",
    "SimConfig", "SimResult", "StepEvent", "run", "success_metric", "sweep", "turn_maneuver",
    "metrics",
]
