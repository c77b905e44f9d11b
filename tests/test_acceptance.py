"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

import liprint as lp
from liprint import (FootPosition, GaitParams, GaitState, LipParams, LipState,
                     SimConfig, StepCommand, TerrainSpec, cycle_phase,
                     phase_signals, plan_step, icp_of, icp_trajectory, is_steppable,
                     run, sweep, turn_maneuver)
from liprint import sim as sim_mod
from liprint import terrain as terrain_mod
from liprint._kernels import (COL_COM_X, COL_COM_Y, COL_ICP_X, COL_PARITY, COL_TIME,
                              COL_VEL_X, offset_pair)
from liprint.cli import main as cli_main
from liprint.metrics import RIGHT, RobotSample, RewardParams, regularization, total_reward

from oracles import bisect_offsets, rk4_lip

TS = 0.35


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_offset_formula_oracle():
    with criterion(1, "offset formula matches bisection oracle (1000 tuples, <1s)"):
        rng = np.random.default_rng(2024)
        cases = [(rng.uniform(0.0, 0.7), rng.uniform(0.0, 0.4),
                  rng.uniform(2.0, 6.0), rng.uniform(0.05, 0.5))
                 for _ in range(1000)]
        t0 = time.perf_counter()
        worst = 0.0
        for s_d, w_d, w, dT in cases:
            bx_ref, by_ref = bisect_offsets(s_d, w_d, w, dT)
            bx, by = offset_pair(s_d, w_d, w, dT)
            worst = max(worst, abs(bx - bx_ref), abs(by - by_ref))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst offset deviation {worst}"
        assert elapsed < 1.0, f"oracle comparison took {elapsed:.2f} s"


def test_criterion_2_closed_form_vs_rk4():
    with criterion(2, "closed-form CoM propagation matches RK4 at 1e-8 (<5s)"):
        rng = np.random.default_rng(7)
        n = 100
        pos0 = rng.uniform(-0.3, 0.3, (n, 2))
        vel0 = rng.uniform(-1.0, 1.0, (n, 2))
        feet = rng.uniform(-0.3, 0.3, (n, 2))
        omegas = np.sqrt(9.81 / rng.uniform(0.4, 1.0, n))
        t0 = time.perf_counter()
        ref_pos, ref_vel = rk4_lip(pos0, vel0, feet, omegas, 0.35, 1e-5)
        elapsed = time.perf_counter() - t0
        for i in range(n):
            params = LipParams(g=9.81, z0=9.81 / omegas[i] ** 2)
            s = lp.com_trajectory(
                LipState(com_pos=pos0[i], com_vel=vel0[i], params=params),
                FootPosition(p=feet[i]), 0.35)
            npt.assert_allclose(s.com_pos, ref_pos[i], atol=1e-8)
        assert elapsed < 5.0, f"RK4 oracle took {elapsed:.2f} s"


def test_criterion_3_step_length_recurrence_and_velocity_tracking():
    with criterion(3, "per-step ICP advance == |v|*Ts to 1e-9; mean velocity "
                      "within 1% (vx in 0.2..2.0)"):
        for vx in (0.2, 0.5, 1.0, 1.5, 2.0):
            cfg = SimConfig(cmd=StepCommand(v_cmd=(vx, 0.0)),
                            total_duration=10.0, reach_limit=0.9)
            res = run(cfg)
            assert res.completed, (vx, res.failure_reason)
            adv = np.diff(res.sample_array[::res.config.ticks_per_step, COL_ICP_X])
            npt.assert_allclose(adv[1:], vx * TS, atol=1e-9)
            sel = res.sample_array[:, COL_TIME] >= 3 * TS
            mean_vx = res.sample_array[sel, COL_VEL_X].mean()
            assert abs(mean_vx - vx) <= 0.01 * vx, (vx, mean_vx)


def test_criterion_4_contact_schedule_properties():
    with criterion(4, "contact schedule: period 2Ts, bounds, antisymmetry, "
                      "0.980581 at quarter phase, exact Ts stance windows"):
        params = GaitParams(step_duration=TS)

        def C(tp):
            return phase_signals(cycle_phase(GaitState(t=tp % TS, parity=int(tp // TS),
                                                       params=params)))[0]

        for tp in np.linspace(0.0, 2 * TS, 141):
            assert -1.0 <= C(tp) <= 1.0
            assert C(tp) == pytest.approx(C(tp + 2 * TS), abs=1e-9)  # period 2Ts
            assert C(tp + TS) == pytest.approx(-C(tp), abs=1e-9)  # antisymmetry
        assert C(0.25 * 2 * TS) == pytest.approx(0.980581, abs=1e-6)

        # the commanded stance window per foot is exactly Ts, on the clock
        # the simulator runs: the ticks where its parity column changes
        res = run(SimConfig(cmd=StepCommand(v_cmd=(1.0, 0.0)), dt=0.01, total_duration=2.8))
        assert res.completed, res.failure_reason
        flips = np.flatnonzero(np.diff(res.sample_array[:, COL_PARITY])) + 1
        windows = np.diff(flips) * res.config.dt
        assert len(windows) >= 6
        npt.assert_allclose(windows, TS, atol=1e-12)


def test_criterion_5_turning():
    with criterion(5, "90/180 degree turns converge within 0.05 rad in <=6 "
                      "steps; zero-heading plan reduces componentwise exactly"):
        for angle in (math.pi / 2, math.pi):
            cfg = SimConfig(cmd=StepCommand(v_cmd=(1.0, 0.0)),
                            total_duration=10.0,
                            replan=sim_mod.REPLAN_EVERY_TICK)
            res = turn_maneuver(cfg, angle, switch_time=3.0)
            assert res.completed, res.failure_reason
            arr = res.sample_array
            k = cfg.ticks_per_step
            switch_step = math.ceil(3.0 / TS)
            for m in range(switch_step + 6, arr.shape[0] // k):
                i1, i0 = m * k, (m - 2) * k
                d = math.atan2(arr[i1, COL_COM_Y] - arr[i0, COL_COM_Y],
                               arr[i1, COL_COM_X] - arr[i0, COL_COM_X])
                err = (d - angle + math.pi) % (2 * math.pi) - math.pi
                assert abs(err) <= 0.05, (angle, m, err)

        # rotation by gamma = 0 must reduce to the unrotated formula bit-exactly
        p = LipParams()
        state = LipState(com_pos=(0.03, -0.01), com_vel=(0.7, 0.1), params=p)
        foot = FootPosition(p=(0.0, -0.15))
        for parity in (0, 1):
            g = GaitState(t=0.0, parity=parity, params=GaitParams(TS))
            step = plan_step(state, foot, StepCommand(v_cmd=(1.0, 0.0)), g)
            xi_f = icp_trajectory(icp_of(state), foot, p.omega0, TS)
            bx, by = offset_pair(1.0 * TS, 0.3, p.omega0, TS)
            sign = 1.0 if parity % 2 == 0 else -1.0
            assert step.p_d[0] == xi_f.xi[0] - bx
            assert step.p_d[1] == xi_f.xi[1] + sign * by


def test_criterion_6_terrain_adaptation():
    with criterion(6, "gap terrain: 10 s run, all touchdowns steppable; rough "
                      "terrain: per-tick success rate >= at-step-start "
                      "(200 paired trials)"):
        gap = TerrainSpec(kind="gap", gap_width=0.15, gap_period=0.8)
        cfg = SimConfig(cmd=StepCommand(v_cmd=(1.0, 0.0)), total_duration=10.0,
                        replan=sim_mod.REPLAN_EVERY_TICK, terrain=gap)
        res = run(cfg)
        assert res.completed, res.failure_reason
        hmap = terrain_mod.generate(gap, sim_mod._auto_extent(cfg, [(0.0, 1.0, 0.0, 0.3)]),
                                    sim_mod.TERRAIN_RESOLUTION)
        assert len(res.step_events) >= 25
        for ev in res.step_events:
            assert is_steppable(hmap, (ev["realized"]["x"], ev["realized"]["y"])), ev

        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=0)
        cfgs = [SimConfig(cmd=StepCommand(v_cmd=(1.0, 0.0)), total_duration=6.0,
                          replan=mode, terrain=rough)
                for mode in (sim_mod.REPLAN_EVERY_TICK, sim_mod.REPLAN_AT_STEP_START)]
        rows = sweep(cfgs, trials=200, base_seed=1)
        per_tick, at_start = rows[0], rows[1]
        assert per_tick.trials == at_start.trials == 200
        assert per_tick.successes >= at_start.successes, \
            (per_tick.successes, at_start.successes)


def test_criterion_7_reward_evaluators():
    with criterion(7, "reward maxima (1, 2, 4, 9); breakdown sums to total at "
                      "1e-12; termination triggers at each stated threshold"):
        ideal = RobotSample(base_height=0.62, base_heading=0.0,
                            base_vel_world=(1.0, 0.0),
                            foot_pos=((0.1, -0.15), (0.5, 0.15)),
                            foot_contact=(True, False))
        params = RewardParams(vel_cmd=(1.0, 0.0))
        targets = [(0.1, -0.15), (0.9, 0.15)]
        total, breakdown = total_reward(ideal, params, 1.0, targets, RIGHT)
        assert breakdown["base_height"] == 1.0
        assert breakdown["base_orientation"] == 2.0
        assert breakdown["velocity_tracking"] == 4.0
        assert breakdown["contact_schedule"] == 9.0
        assert total == pytest.approx(sum(breakdown.values()), abs=1e-12)

        rng = np.random.default_rng(3)
        for _ in range(25):
            s = RobotSample(base_height=rng.uniform(0.2, 1.0),
                            base_heading=rng.uniform(-3, 3),
                            base_vel_world=rng.uniform(-2, 2, 2),
                            q=rng.uniform(-1, 1, 10), dq=rng.uniform(-5, 5, 10),
                            tau=rng.uniform(-40, 40, 10),
                            action=rng.uniform(-1, 1, 10),
                            action_prev=rng.uniform(-1, 1, 10),
                            action_prev2=rng.uniform(-1, 1, 10),
                            q_hip_xz=rng.uniform(-1, 1, 4))
            p = RewardParams(vel_cmd=(1.0, 0.0), tau_max=30.0, q_max=1.5)
            total, breakdown = total_reward(s, p, rng.uniform(-1, 1),
                                            rng.uniform(-1, 1, (2, 2)), RIGHT)
            assert total == pytest.approx(sum(breakdown.values()), abs=1e-12)

        def term(**kw):
            return regularization(RobotSample(**kw), params)["termination"]

        assert term(self_collision=True) == -100.0
        assert term(base_vel_world=(10.0, 0.0)) == -100.0
        assert term(base_vel_world=(9.999, 0.0)) == 0.0
        assert term(base_ang_vel=(0.0, 0.0, 5.0)) == -100.0
        assert term(base_ang_vel=(0.0, 0.0, 4.999)) == 0.0
        assert term(gravity_proj=(0.7, 0.0, -0.7)) == -100.0
        assert term(gravity_proj=(0.0, 0.7, -0.7)) == -100.0
        assert term(gravity_proj=(0.699, 0.699, -0.7)) == 0.0
        assert term(base_height=0.299) == -100.0
        assert term(base_height=0.3) == 0.0


def test_criterion_8_deterministic_cli_output(tmp_path):
    with criterion(8, "CLI reruns with the same seed are byte-identical"):
        for name, args in {
            "sim": ["simulate", "--vx", "1.0", "--duration", "5",
                    "--terrain", "rough:0.05:0.5:9", "--replan", "every-tick"],
            "sweep": ["sweep", "--vx-list", "0.5,1.0", "--trials", "3",
                      "--duration", "6", "--terrain", "rough:0.04:0.5:0",
                      "--seed", "5"],
        }.items():
            a = tmp_path / f"{name}_a.csv"
            b = tmp_path / f"{name}_b.csv"
            assert cli_main(args + ["--out", str(a)]) == 0
            assert cli_main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), name
