"""Footstep planning on the linear inverted pendulum, a terrain-adaptive
reduced-order walking simulator, and locomotion reward evaluators."""

from .lip_core import (FootPosition, IcpPoint, LipParams, LipState,
                       com_trajectory, icp_derivative, icp_of, icp_trajectory,
                       lip_acceleration, natural_frequency)
from .gait import GaitParams, GaitState, cycle_phase, phase_signals, remaining_time
from .planner import PlannedStep, StepCommand, plan_step
from .terrain import (Heightmap, TerrainSpec, generate, height_at,
                      is_steppable, nearest_steppable)
from .sim import (SimConfig, SimResult, run, success_metric, sweep, turn_maneuver)
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
    "GaitParams", "GaitState", "cycle_phase", "phase_signals", "remaining_time",
    "PlannedStep", "StepCommand", "plan_step",
    "Heightmap", "TerrainSpec", "generate", "height_at",
    "is_steppable", "nearest_steppable",
    "SimConfig", "SimResult", "run", "success_metric", "sweep", "turn_maneuver",
    "metrics",
]
