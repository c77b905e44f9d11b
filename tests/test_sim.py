import functools
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from decimal import Decimal

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (FootPosition, GaitParams, GaitState, IcpPoint, LipParams,
                     LipState, SimConfig, StepCommand, TerrainSpec,
                     cycle_phase, icp_trajectory, is_steppable, phase_signals,
                     plan_step, run, success_metric, sweep, turn_maneuver)
from liprint import _kernels
from liprint import sim as sim_mod
from liprint import terrain as terrain_mod
from liprint.planner import wrap_angle
from liprint._kernels import (COL_COM_X, COL_COM_Y, COL_CONTACT_SCHED, COL_ICP_X,
                              COL_ICP_Y, COL_PARITY, COL_PHASE_COS, COL_PHASE_SIN,
                              COL_STANCE_X, COL_STANCE_Y, COL_STANCE_Z,
                              COL_TARGET_HEADING, COL_TARGET_X, COL_TARGET_Y,
                              COL_TARGET_Z, COL_TIME, COL_VEL_X, COL_VEL_Y, FOOT_RADIUS)

from oracles import (lip_decimal, lip_step_over, reference_run, step_to_step_run,
                     sweep_per_trial, write_rewards_csv_per_value, write_step_events_per_event,
                     write_trajectory_csv_per_value)


def config(vx=1.0, vy=0.0, duration=10.0, replan=sim_mod.REPLAN_AT_STEP_START,
           terrain=None, reach=0.6, width=0.3):
    return SimConfig(cmd=StepCommand(v_cmd=(vx, vy), w_cmd=width),
                     total_duration=duration, replan=replan, terrain=terrain,
                     reach_limit=reach)


def gap_spec(width=0.15, period=0.8, offset=0.4):
    return TerrainSpec(kind="gap", gap_width=width, gap_period=period,
                       gap_offset=offset)


def loop_call(cfg, schedule):
    """(sim_loop's positional arguments, its grid keyword) for a run of cfg
    under schedule, as sim._simulate passes them."""
    grid = sim_mod._terrain_grid(cfg, schedule)
    return sim_mod._loop_args(cfg, schedule, grid), grid


class TestConfigValidation:
    def test_dt_must_divide_step(self):
        with pytest.raises(ValueError):
            SimConfig(cmd=StepCommand(v_cmd=(1, 0)), dt=0.012)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            SimConfig(cmd=StepCommand(v_cmd=(1, 0)), total_duration=0.0)
        with pytest.raises(ValueError):
            SimConfig(cmd=StepCommand(v_cmd=(1, 0)), reach_limit=-1.0)
        with pytest.raises(ValueError):
            SimConfig(cmd=StepCommand(v_cmd=(1, 0)), replan="sometimes")
        with pytest.raises(ValueError, match="sweep needs at least one config"):
            sweep([], trials=1)

    def test_step_length_overflow(self):
        # the speed is finite, the step length |v_cmd| * Ts is not
        with pytest.raises(ValueError, match=r"step length overflows: speed 1e\+308 m/s "
                                             r"times step duration 2.0 s is not finite"):
            SimConfig(cmd=StepCommand(v_cmd=(1e308, 0.0)), gait=GaitParams(step_duration=2.0))

    def test_terrain_of_another_type(self):
        # a path is not a terrain: the config fails where it is built
        with pytest.raises(ValueError, match="terrain must be a Heightmap, TerrainSpec, or None"):
            SimConfig(cmd=StepCommand(v_cmd=(1, 0)), terrain="map.json")


class TestFlatRuns:
    def test_forward_tracking(self):
        res = run(config(vx=1.0))
        assert res.completed
        arr = res.sample_array
        assert arr.shape[0] == 1000
        sel = arr[:, COL_TIME] >= 3 * 0.35
        mean_vx = arr[sel, COL_VEL_X].mean()
        assert mean_vx == pytest.approx(1.0, rel=0.01)

    def test_in_place_limit_cycle(self):
        res = run(config(vx=0.0))
        assert res.completed
        arr = res.sample_array
        assert abs(arr[-1, COL_COM_X] - arr[0, COL_COM_X]) <= 1e-6
        assert np.abs(arr[:, COL_COM_Y]).max() < 1.0  # bounded lateral cycle
        # the lateral cycle repeats with period 2 Ts once the transient decays
        ys = res.sample_array[::res.config.ticks_per_step][16:, COL_COM_Y]
        npt.assert_allclose(ys[2:], ys[:-2], atol=1e-9)

    def test_fast_command_completes(self):
        res = run(config(vx=2.0, reach=0.9))
        assert res.completed
        sel = res.sample_array[:, COL_TIME] >= 3 * 0.35
        assert res.sample_array[sel, COL_VEL_X].mean() == pytest.approx(2.0, rel=0.01)

    def test_per_step_icp_advance(self):
        for vx in (0.2, 0.5, 1.0, 1.5, 2.0):
            res = run(config(vx=vx, reach=0.9))
            b = res.sample_array[::res.config.ticks_per_step]
            adv = np.diff(b[:, COL_ICP_X])
            npt.assert_allclose(adv[1:], vx * 0.35, atol=1e-9)

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("vx,vy", [(0.8, 0.0), (0.6, -0.3), (0.0, 0.0), (-0.4, 0.5),
                                       (1.5, 0.2)])
    def test_deadbeat_offsets_at_touchdown(self, replan, vx, vy):
        # at each touchdown the capture point sits at R(heading) (b_x, -b_y)
        # from the new stance, the offsets of the last plan, with b_y signed
        # by its parity (positive when even): the H-LIP step-to-step rule,
        # its offsets over Ts computed here in numpy
        cfg = config(vx=vx, vy=vy, duration=4.0, replan=replan, reach=0.9)
        res = run(cfg)
        assert res.completed
        k = cfg.ticks_per_step
        Ts = k * cfg.dt
        e = np.exp(cfg.lip.omega0 * Ts)
        bx = np.hypot(vx, vy) * Ts / (e - 1.0)
        by = cfg.cmd.w_cmd / (e + 1.0)
        touch, planned = sim_mod._touchdown_rows(res.sample_array, k)
        assert len(touch) == 11
        by_signed = np.where(planned[:, COL_PARITY] % 2 == 0, by, -by)
        h = planned[:, COL_TARGET_HEADING]
        expected = np.column_stack((np.cos(h) * bx + np.sin(h) * by_signed,
                                    np.sin(h) * bx - np.cos(h) * by_signed))
        got = touch[:, COL_ICP_X:COL_ICP_Y + 1] - touch[:, COL_STANCE_X:COL_STANCE_Y + 1]
        npt.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("vx,vy", [(1.0, 0.0), (0.5, 0.3), (1.5, 0.0), (0.8, -0.2)])
    def test_two_step_contraction(self, replan, vx, vy):
        # H-LIP's step-to-step map: with the capture point deadbeat, what is
        # left of a touchdown state's distance from the period-2 orbit is the
        # pendulum's stable mode, which shrinks by e^(-omega Ts) per step. So
        # per axis, d_m = s_(m+2) - s_m of s = CoM - stance and of s = velocity
        # at touchdowns m = 1, 2, ... shrinks by e^(-2 omega Ts) per two steps
        cfg = config(vx=vx, vy=vy, duration=6.0, replan=replan)
        res = run(cfg)
        assert res.completed
        k = cfg.ticks_per_step
        rate = np.exp(-2.0 * np.sqrt(cfg.lip.g / cfg.lip.z0) * (k * cfg.dt))
        touch = sim_mod._touchdown_rows(res.sample_array, k)[0]
        for s in (touch[:, COL_COM_X:COL_COM_Y + 1] - touch[:, COL_STANCE_X:COL_STANCE_Y + 1],
                  touch[:, COL_VEL_X:COL_VEL_Y + 1]):
            d = s[2:] - s[:-2]
            assert np.abs(d[:6]).min() > 1e-6  # no ratio of rounding noise
            npt.assert_allclose(d[2:6] / d[:4], rate, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("vx,vy,turn", [(1.0, 0.0, None), (0.5, 0.3, None),
                                            (1.5, 0.0, None), (0.8, -0.2, math.pi / 2)])
    def test_every_tick_matches_step_to_step_map(self, replan, vx, vy, turn):
        # every tick of a 10 s run against H-LIP's step-to-step map in numpy:
        # each quantity to 1e-12 of its largest magnitude over the run; the
        # turn switches at the start of step 7
        cfg = config(vx=vx, vy=vy, replan=replan)
        schedule = sim_mod._constant_schedule(cfg)
        if turn is None:
            res = run(cfg)
        else:
            switch = 7 * cfg.gait.step_duration
            res = sim_mod.turn_maneuver(cfg, turn, switch)
            c, s = math.cos(turn), math.sin(turn)
            schedule.append((switch, c * vx - s * vy, s * vx + c * vy, cfg.cmd.w_cmd))
        assert res.completed
        arr = res.sample_array
        ref = step_to_step_run(cfg, schedule)
        assert arr.shape[0] == len(ref["time"]) == cfg.n_ticks
        assert arr[:, COL_TIME].tolist() == ref["time"].tolist()
        for key, col in (("com", COL_COM_X), ("vel", COL_VEL_X), ("icp", COL_ICP_X),
                         ("stance", COL_STANCE_X), ("target", COL_TARGET_X)):
            scale = np.abs(ref[key]).max()
            npt.assert_allclose(arr[:, col:col + 2], ref[key], rtol=0.0, atol=1e-12 * scale,
                                err_msg=key)
        npt.assert_allclose(arr[:, COL_TARGET_HEADING], ref["heading"], rtol=0.0, atol=1e-12)
        if turn is not None:
            # not vacuous: the heading turns at the switch
            k = cfg.ticks_per_step
            assert ref["heading"][7 * k] - ref["heading"][7 * k - 1] == pytest.approx(turn)

    def test_icp_continuous_across_transfer(self):
        res = run(config(vx=1.2))
        arr = res.sample_array
        k = res.config.ticks_per_step
        w = res.config.lip.omega0
        for m in range(1, 6):
            pre = arr[m * k - 1]
            post = arr[m * k]
            xi = icp_trajectory(IcpPoint(xi=pre[COL_ICP_X:COL_ICP_Y + 1]),
                                FootPosition(p=pre[COL_STANCE_X:COL_STANCE_Y + 1]),
                                w, res.config.dt)
            npt.assert_allclose(post[COL_ICP_X:COL_ICP_Y + 1], xi.xi, atol=1e-12)

    def test_touchdown_equals_plan(self):
        res = run(config(vx=1.0))
        for ev in res.step_events:
            assert ev["realized"] == {k: ev["planned"][k] for k in "xyz"}

    def test_touchdown_within_reach(self):
        res = run(config(vx=2.0, reach=0.9))
        arr = res.sample_array
        b = res.sample_array[::res.config.ticks_per_step]
        d = np.hypot(b[:, COL_ICP_X] - b[:, COL_STANCE_X],
                     b[:, COL_ICP_Y] - b[:, COL_STANCE_Y])
        assert d.max() <= 0.9

    def test_replan_modes_agree_on_flat(self):
        r1 = run(config(vx=1.0, replan=sim_mod.REPLAN_AT_STEP_START))
        r2 = run(config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK))
        td1 = np.array([[ev["realized"][k] for k in "xyz"] for ev in r1.step_events])
        td2 = np.array([[ev["realized"][k] for k in "xyz"] for ev in r2.step_events])
        npt.assert_allclose(td1, td2, atol=1e-9)
        sel = r2.sample_array[:, COL_TIME] >= 3 * 0.35
        assert r2.sample_array[sel, COL_VEL_X].mean() == pytest.approx(1.0, rel=0.01)


def planned_from_row(cfg, row, fallback_heading=0.0):
    """plan_step at a recorded sample, with the simulator's tick grid: the
    placement the simulator plans there, unsnapped."""
    k, dt = cfg.ticks_per_step, cfg.dt
    Ts = k * dt
    i = round(row[COL_TIME] / dt)
    parity = int(row[COL_PARITY])
    lip = LipParams(g=cfg.lip.g, z0=cfg.lip.z0 - row[COL_STANCE_Z])
    state = LipState(com_pos=row[COL_COM_X:COL_COM_Y + 1],
                     com_vel=row[COL_VEL_X:COL_VEL_Y + 1], params=lip)
    stance = FootPosition(p=row[COL_STANCE_X:COL_STANCE_Y + 1], z=row[COL_STANCE_Z])
    c = StepCommand(v_cmd=cfg.cmd.v_cmd, w_cmd=cfg.cmd.w_cmd,
                    fallback_heading=fallback_heading)
    gait = GaitState(t=i % k * dt, parity=parity, params=GaitParams(step_duration=Ts))
    return plan_step(state, stance, c, gait)


class TestSharedCore:
    """plan_step and the gait clocks against the simulator, compared with ==."""

    def test_first_target_equals_plan_step(self):
        rng = np.random.default_rng(11)
        for n in range(240):
            dt = (0.01, 0.005, 0.02)[n % 3]
            k = int(rng.integers(10, 50))
            vx, vy = rng.uniform(-1.5, 1.5, 2) if n % 8 else (0.0, 0.0)
            cfg = SimConfig(cmd=StepCommand(v_cmd=(vx, vy), w_cmd=rng.uniform(0.1, 0.4)),
                            gait=GaitParams(step_duration=k * dt),
                            lip=LipParams(z0=rng.uniform(0.4, 1.0)),
                            dt=dt, total_duration=dt)
            state = LipState(com_pos=rng.uniform(-0.2, 0.2, 2),
                             com_vel=rng.uniform(-1.0, 1.0, 2), params=cfg.lip)
            stance = FootPosition(p=rng.uniform(-0.3, 0.3, 2))
            row = run(cfg, initial=(state, stance)).sample_array[0]
            step = planned_from_row(cfg, row)
            assert (step.p_d[0], step.p_d[1]) == (row[COL_TARGET_X], row[COL_TARGET_Y])
            assert step.heading == row[COL_TARGET_HEADING]

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("vx,vy", [(0.8, 0.0), (0.6, -0.3), (0.0, 0.0)])
    def test_touchdown_targets_equal_plan_step(self, replan, vx, vy):
        cfg = config(vx=vx, vy=vy, duration=4.0, replan=replan)
        res = run(cfg)
        assert res.completed
        arr = res.sample_array
        k = cfg.ticks_per_step
        rows = range(k, len(arr), k) if replan == sim_mod.REPLAN_AT_STEP_START \
            else range(1, len(arr))
        assert {int(arr[i, COL_PARITY]) % 2 for i in rows} == {0, 1}
        for i in rows:
            step = planned_from_row(cfg, arr[i], arr[i - 1, COL_TARGET_HEADING])
            assert (step.p_d[0], step.p_d[1]) == (arr[i, COL_TARGET_X],
                                                  arr[i, COL_TARGET_Y])

    def test_every_tick_targets_equal_plan_step(self):
        # every target of flat-ground every-tick runs, each planned at its
        # own time of the step, is plan_step's at that row
        rng = np.random.default_rng(41)
        n_targets = 0
        for _ in range(4):
            dt = float(rng.choice([0.005, 0.01, 0.02]))
            k = int(rng.integers(10, 25))
            speed, angle = rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)
            cfg = SimConfig(cmd=StepCommand(v_cmd=(speed * math.cos(angle),
                                                   speed * math.sin(angle)),
                                            w_cmd=rng.uniform(0.1, 0.4)),
                            gait=GaitParams(step_duration=k * dt),
                            lip=LipParams(z0=rng.uniform(0.5, 1.0)), dt=dt,
                            total_duration=400 * dt, replan=sim_mod.REPLAN_EVERY_TICK,
                            reach_limit=0.9)
            res = run(cfg)
            assert res.completed
            arr = res.sample_array
            for i in range(len(arr)):
                fallback = arr[i - 1, COL_TARGET_HEADING] if i else cfg.cmd.fallback_heading
                step = planned_from_row(cfg, arr[i], fallback)
                assert (step.p_d[0], step.p_d[1], step.heading) == (
                    arr[i, COL_TARGET_X], arr[i, COL_TARGET_Y], arr[i, COL_TARGET_HEADING]), i
                n_targets += 1
        assert n_targets == 1600

    @pytest.mark.parametrize("fb", [0.7, -2.0, 4.0, math.pi, -math.pi])
    @pytest.mark.parametrize("vx,vy", [(0.0, 0.0), (0.6, -0.3)])
    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    def test_fallback_heading_reaches_the_simulator(self, fb, vx, vy, replan):
        cfg = SimConfig(cmd=StepCommand(v_cmd=(vx, vy), fallback_heading=fb),
                        total_duration=1.0, replan=replan)
        res = run(cfg)
        assert res.completed
        arr = res.sample_array
        step = planned_from_row(cfg, arr[0], fb)
        assert (step.p_d[0], step.p_d[1]) == (arr[0, COL_TARGET_X], arr[0, COL_TARGET_Y])
        assert step.heading == arr[0, COL_TARGET_HEADING]
        # stepping in place holds the wrapped fallback on every row
        expected = wrap_angle(fb) if (vx, vy) == (0.0, 0.0) else math.atan2(vy, vx)
        assert set(arr[:, COL_TARGET_HEADING].tolist()) == {expected}

    def test_failed_snap_keeps_raw_target(self):
        cfg = config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1))
        res = run(cfg)
        assert res.failure_reason == sim_mod._FAIL_REASONS[_kernels.OUTCOME_NO_GROUND]
        row = res.sample_array[0]
        step = planned_from_row(cfg, row)
        target = (row[COL_TARGET_X], row[COL_TARGET_Y])
        assert target == (step.p_d[0], step.p_d[1])
        assert target != (0.0, 0.0)
        assert row[COL_TARGET_Z] == 0.0

    @pytest.mark.parametrize("cfg", [
        config(vx=0.9, duration=3.0),
        config(vx=1.0, duration=3.0, terrain=gap_spec(width=2.0, period=0.1)),
        config(vx=1.0, reach=0.2),
        SimConfig(cmd=StepCommand(v_cmd=(0.7, 0.1)), gait=GaitParams(step_duration=0.4),
                  dt=0.005, total_duration=2.0, replan=sim_mod.REPLAN_EVERY_TICK),
    ], ids=["completed", "no-ground", "reach", "dt-0.005-Ts-0.4"])
    def test_phase_columns_equal_gait_clocks(self, cfg):
        arr = run(cfg).sample_array
        k, dt = cfg.ticks_per_step, cfg.dt
        Ts = k * dt
        for i, row in enumerate(arr):
            parity = int(row[COL_PARITY])
            g = GaitState(t=i % k * dt, parity=parity, params=GaitParams(step_duration=Ts))
            assert (row[COL_CONTACT_SCHED], row[COL_PHASE_SIN],
                    row[COL_PHASE_COS]) == phase_signals(cycle_phase(g))


class TestSampleConsistency:
    def test_icp_matches_state(self):
        res = run(config(vx=0.7))
        arr = res.sample_array
        w = res.config.lip.omega0  # flat terrain: stance height 0 throughout
        npt.assert_allclose(arr[:, COL_ICP_X],
                            arr[:, COL_COM_X] + arr[:, COL_VEL_X] / w, atol=1e-12)
        npt.assert_allclose(arr[:, COL_ICP_Y],
                            arr[:, COL_COM_Y] + arr[:, COL_VEL_Y] / w, atol=1e-12)

    def test_times_strictly_increasing(self):
        res = run(config(vx=0.7, duration=3.0))
        assert np.all(np.diff(res.sample_array[:, COL_TIME]) > 0)

    def test_sample_objects(self):
        res = run(config(vx=0.7, duration=1.0))
        arr = res.sample_array
        assert arr.shape[0] == 100
        s = arr[40]
        assert s[COL_TIME] == pytest.approx(0.40, abs=1e-12)
        assert s[COL_PARITY] == 1
        realized = res.step_events[0]["realized"]
        npt.assert_array_equal(s[COL_STANCE_X:COL_STANCE_Y + 1], [realized["x"], realized["y"]])


class TestTurning:
    def test_quarter_turn_heading_convergence(self):
        res = turn_maneuver(config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK),
                            math.pi / 2, switch_time=3.0)
        assert res.completed
        self._assert_heading(res, math.pi / 2, switch_time=3.0)

    def test_half_turn_heading_convergence(self):
        res = turn_maneuver(config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK),
                            math.pi, switch_time=3.0)
        assert res.completed
        self._assert_heading(res, math.pi, switch_time=3.0)

    def _assert_heading(self, res, target, switch_time):
        arr = res.sample_array
        k = res.config.ticks_per_step
        Ts = res.config.gait.step_duration
        switch_step = math.ceil(switch_time / Ts)
        # mean CoM velocity direction over trailing two-step windows
        for m in range(switch_step + 6, arr.shape[0] // k):
            i1, i0 = m * k, (m - 2) * k
            d = math.atan2(arr[i1, COL_COM_Y] - arr[i0, COL_COM_Y],
                           arr[i1, COL_COM_X] - arr[i0, COL_COM_X])
            err = (d - target + math.pi) % (2 * math.pi) - math.pi
            assert abs(err) <= 0.05

    @pytest.mark.parametrize("angle,switch_time", [(math.nan, 3.0), (math.pi / 2, math.inf)],
                             ids=["angle-nan", "time-inf"])
    def test_non_finite_turn_raises(self, angle, switch_time):
        with pytest.raises(ValueError, match="turn angle and time must be finite"):
            turn_maneuver(config(vx=1.0, duration=1.0), angle, switch_time)

    def test_zero_turn_is_plain_run(self):
        r1 = run(config(vx=1.0, duration=5.0))
        r2 = turn_maneuver(config(vx=1.0, duration=5.0), 0.0, switch_time=2.0)
        npt.assert_array_equal(r1.sample_array, r2.sample_array)

    def test_zero_turn_is_plain_run_on_terrain(self):
        """A switch that keeps (vx, vy) adds no segment to the map's extent,
        so a zero turn at any time equals run() on terrain too."""
        rough = functools.partial(TerrainSpec, kind="rough", amplitude=0.05, correlation=0.5)
        # the extent of two equal segments once rounded apart from one segment's
        cfg = config(vx=-0.8896342779715511, vy=-0.2376866595581505, duration=2.0,
                     terrain=rough(seed=0))
        assert (turn_maneuver(cfg, 0.0, 1.5007293452601052).sample_array.tobytes()
                == run(cfg).sample_array.tobytes())
        rng = np.random.default_rng(43)
        for draw in range(300):
            vx, vy = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-0.5, 0.5))
            duration = float(rng.choice([2.0, 3.7, 5.0, 6.3, 10.0]))
            switch_time = float(rng.uniform(0.0, duration))
            cfg = config(vx=vx, vy=vy, duration=duration,
                         terrain=rough(seed=draw) if draw % 2 == 0 else gap_spec())
            schedule = sim_mod._constant_schedule(cfg)
            assert (sim_mod._auto_extent(cfg, schedule + [(switch_time, vx, vy, 0.3)])
                    == sim_mod._auto_extent(cfg, schedule)), draw
            plain, turned = run(cfg), turn_maneuver(cfg, 0.0, switch_time)
            assert (turned.outcome, turned.failure_time) == (plain.outcome, plain.failure_time)
            assert turned.sample_array.tobytes() == plain.sample_array.tobytes(), draw

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("terrain", [None, TerrainSpec(kind="rough", amplitude=0.03,
                                                           correlation=0.5, seed=4)],
                             ids=["flat", "rough"])
    def test_turn_at_tick_zero_is_rotated_run(self, replan, terrain):
        """A switch at t = 0 governs row 0 too: the run equals a plain run
        under the pre-rotated command."""
        cfg = config(vx=0.6, vy=0.1, duration=3.0, replan=replan, terrain=terrain)
        v = cfg.cmd.v_cmd
        for angle in (math.pi, math.pi / 2, -0.7):
            c, s = math.cos(angle), math.sin(angle)
            rotated = StepCommand(v_cmd=(c * v[0] - s * v[1], s * v[0] + c * v[1]),
                                  w_cmd=cfg.cmd.w_cmd)
            turned = turn_maneuver(cfg, angle, 0.0)
            plain = run(replace(cfg, cmd=rotated))
            assert turned.completed and plain.completed
            assert turned.sample_array.shape == plain.sample_array.shape
            assert (turned.sample_array == plain.sample_array).all()
            assert turned.sample_array[0, COL_TARGET_HEADING] == math.atan2(
                rotated.v_cmd[1], rotated.v_cmd[0])

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("terrain", [None, TerrainSpec(kind="rough", amplitude=0.05,
                                                           correlation=0.5, seed=0),
                                         gap_spec()],
                             ids=["flat", "rough", "gap"])
    def test_turn_after_run_end_is_plain_run(self, replan, terrain):
        """A switch at or after the end neither acts nor widens the map."""
        cfg = config(vx=1.0, duration=3.0, replan=replan, terrain=terrain)
        plain = run(cfg)
        for switch_time in (3.0, 5.0, 1e300):
            turned = turn_maneuver(cfg, math.pi / 2, switch_time)
            assert turned.outcome == plain.outcome
            assert turned.sample_array.shape == plain.sample_array.shape
            assert (turned.sample_array == plain.sample_array).all()


class TestSuccessMetric:
    def test_tracking_run_succeeds(self):
        res = run(config(vx=1.0))
        assert success_metric(res, 1.0, window=5.0)

    def test_failed_run_fails(self):
        res = run(config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1)))
        assert not res.completed
        assert not success_metric(res, 1.0, window=res.config.total_duration)

    def test_velocity_mismatch_fails(self):
        res = run(config(vx=1.0))
        assert not success_metric(res, 2.0, window=5.0)

    def test_window_validation(self):
        res = run(config(vx=1.0, duration=4.0))
        with pytest.raises(ValueError):
            success_metric(res, 1.0, window=5.0)
        for window, tolerance in ((0.0, 0.1), (-1.0, 0.1), (math.nan, 0.1),
                                  (1.0, -0.1), (1.0, math.nan)):
            with pytest.raises(ValueError):
                success_metric(res, 1.0, window=window, tolerance=tolerance)

    def test_tiny_window_holds_last_sample(self):
        res = run(config(vx=1.0, duration=4.0))
        last_vx = res.sample_array[-1, COL_VEL_X]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean of an empty selection
            for tolerance in (0.05, 0.5):
                assert success_metric(res, 1.0, window=1e-13, tolerance=tolerance) == (
                    abs(last_vx - 1.0) <= tolerance)

    def test_window_of_k_ticks_holds_the_last_k_samples(self):
        """A window of k * dt selects the last k samples: the one at
        t_end - window lies 1e-12 s outside it. The tolerance is the distance
        of that mean from the command, so a mean over any other selection
        fails as often as not."""
        cfg = config(vx=1.0, duration=2.0, replan=_EVERY, terrain=gap_spec())
        res = run(cfg)
        vel_x = res.sample_array[:, COL_VEL_X]
        assert res.completed and len(vel_x) == 200
        for k in range(1, 200):
            window = k * cfg.dt
            tolerance = abs(vel_x[-k:].copy().mean() - 1.0)
            assert success_metric(res, 1.0, window, tolerance), k
            if k in (1, 2, 34, 35, 99, 100, 101, 199):
                assert sweep([cfg], 1, window=window, tolerance=tolerance)[0].successes == 1, k


class TestTerrainRuns:
    def test_gap_run_completes_on_steppable_ground(self):
        cfg = config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK,
                     terrain=gap_spec())
        res = run(cfg)
        assert res.completed
        hmap = terrain_mod.generate(cfg.terrain,
                                    sim_mod._auto_extent(cfg, [(0.0, 1.0, 0.0, 0.3)]),
                                    sim_mod.TERRAIN_RESOLUTION)
        for ev in res.step_events:
            assert is_steppable(hmap, (ev["realized"]["x"], ev["realized"]["y"]))

    def test_impassable_gap_fails(self):
        cfg = config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1))
        res = run(cfg)
        assert res.outcome == "failed"
        assert res.failure_reason == "no steppable ground within search radius"
        assert res.failure_time == 0.0
        # its raw target lies on the map, so the reason is not the off-map one
        grid = sim_mod._terrain_grid(cfg, sim_mod._constant_schedule(cfg))
        row = res.sample_array[-1]
        assert _kernels.grid_contains(grid, row[COL_TARGET_X], row[COL_TARGET_Y])

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START, sim_mod.REPLAN_EVERY_TICK])
    def test_walking_off_the_map_fails_as_off_map(self, replan):
        cfg = config(vx=1.0, duration=6.0, replan=replan, terrain=small_flat_map())
        res = run(cfg)
        assert res.failure_reason == "target outside the heightmap"
        assert res.failure_reason == sim_mod._FAIL_REASONS[_kernels.OUTCOME_OFF_MAP]
        row = res.sample_array[-1]
        assert res.failure_time == row[COL_TIME] > 0.0
        assert not _kernels.grid_contains(cfg.terrain.grid, row[COL_TARGET_X],
                                          row[COL_TARGET_Y])
        # the raw target is kept at height 0, as on a miss on the map
        step = planned_from_row(cfg, row)
        assert (row[COL_TARGET_X], row[COL_TARGET_Y]) == (step.p_d[0], step.p_d[1])
        assert row[COL_TARGET_Z] == 0.0

    def test_reach_limit_failure(self):
        res = run(config(vx=1.0, reach=0.05))
        assert res.outcome == "failed"
        assert "reach" in res.failure_reason
        assert res.failure_time == pytest.approx(0.35, abs=1e-9)

    def test_rough_modes_equal_success(self):
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=0)
        cfgs = [config(vx=1.0, duration=6.0, replan=m, terrain=rough)
                for m in (sim_mod.REPLAN_EVERY_TICK, sim_mod.REPLAN_AT_STEP_START)]
        rows = sweep(cfgs, trials=20, base_seed=5)
        assert rows[0].trials == rows[1].trials == 20
        assert rows[0].successes >= rows[1].successes

    def test_node_grid_built_lazily_once_per_run(self, monkeypatch):
        # the node grid is a per-run memo of steppable() at the nodes a miss
        # tests: filled only on misses, and each node at most once per run
        calls = []  # (x, y) of every steppable() call: queries and node tests
        snaps = []  # one entry per snap_to_steppable() call, one a tick
        scans = []  # the snap of each query scan (steppable() with a list)
        refusals = []  # the snaps whose query certificate refuses
        real, real_snap = _kernels.steppable, _kernels.snap_to_steppable

        def spy(grid, x, y, radius, max_dev, cert=None, height=None):
            calls.append((x, y))
            if cert is not None:
                scans.append(len(snaps) - 1)
            return real(grid, x, y, radius, max_dev, cert, height)

        def snap_spy(grid, radius, max_dev, max_search, memo, x, y, last, height=None):
            # the reuse rule of snap_to_steppable's docstring
            if not (last and math.hypot(x - last[0], y - last[1]) + 4e-15 * last[3] < last[3]):
                refusals.append(len(snaps))
            snaps.append((x, y))
            return real_snap(grid, radius, max_dev, max_search, memo, x, y, last, height)

        monkeypatch.setattr(_kernels, "steppable", spy)
        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        # gentle rough ground: every snap query is itself steppable, so no
        # node is tested, and a query is scanned once per step, where its
        # certificate refuses: at the step's first tick, as the target jumps
        gentle = TerrainSpec(kind="rough", amplitude=0.005, correlation=0.5, seed=1)
        cfg = config(vx=1.0, duration=4.0, replan=sim_mod.REPLAN_EVERY_TICK, terrain=gentle)
        res = run(cfg)
        n, k = res.sample_array.shape[0], cfg.ticks_per_step
        assert res.completed and len(snaps) == n
        assert scans == refusals == list(range(0, n, k))
        assert len(calls) == len(scans)
        # gap ground moves targets on many ticks, and the misses of a run
        # share one memo: beyond the same query scans, each node is tested once
        calls.clear()
        snaps.clear()
        scans.clear()
        refusals.clear()
        cfg = config(vx=0.7, duration=4.0, replan=sim_mod.REPLAN_EVERY_TICK,
                     terrain=gap_spec())
        res = run(cfg)
        assert res.completed
        n = res.sample_array.shape[0]
        assert len(snaps) == n and scans == refusals == list(range(0, n, k))
        hmap = terrain_mod.generate(cfg.terrain,
                                    sim_mod._auto_extent(cfg, [(0.0, 0.7, 0.0, 0.3)]),
                                    sim_mod.TERRAIN_RESOLUTION)
        ox, oy, r = float(hmap.origin[0]), float(hmap.origin[1]), hmap.resolution
        nodes = [(x, y) for x, y in calls
                 if x == ox + round((x - ox) / r) * r and y == oy + round((y - oy) / r) * r]
        assert len(calls) - len(nodes) == len(scans)
        assert len(nodes) == len(set(nodes)) > 0

    def test_one_search_per_miss_step(self, monkeypatch):
        # every-tick replanning moves the target by about 1e-15 m within a
        # step, so the search's certificate should carry a step's first miss
        # through the rest of the step: one search per step whose target
        # misses (its snap does not return the query itself), none elsewhere
        snaps = []  # per snap_to_steppable() call, one a tick: whether it missed
        searches = []  # the snap index of each _nearest_steppable_node() call
        real_snap, real_search = _kernels.snap_to_steppable, _kernels._nearest_steppable_node

        def snap_spy(grid, radius, max_dev, max_search, memo, x, y, last, height=None):
            got = real_snap(grid, radius, max_dev, max_search, memo, x, y, last, height)
            snaps.append(got != (True, x, y))
            return got

        def search_spy(*args):
            searches.append(len(snaps))
            return real_search(*args)

        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        monkeypatch.setattr(_kernels, "_nearest_steppable_node", search_spy)
        rng = np.random.default_rng(24)
        total = 0
        for _ in range(12):
            vx, width, period, offset = rng.uniform((0.4, 0.1, 0.6, 0.0), (1.2, 0.25, 1.0, 0.6))
            cfg = config(vx=vx, duration=3.0, replan=sim_mod.REPLAN_EVERY_TICK,
                         terrain=gap_spec(width, period, offset))
            snaps.clear()
            searches.clear()
            run(cfg)
            k = cfg.ticks_per_step
            for m in range(0, len(snaps), k):
                n = sum(m <= s < m + k for s in searches)
                assert n == any(snaps[m:m + k]), (vx, width, period, offset, m // k)
            total += len(searches)
        assert total > 0

    def test_rough_heights_filled_only_where_read(self, monkeypatch):
        # spies: the grid views sim builds (a run's through generate_grid,
        # each sweep trial's from its config's layout), and every
        # terrain.generate call
        grids, generate_calls = [], []
        real_grid, real_generate = terrain_mod.layout_grid, terrain_mod.generate

        def grid_spy(*args):
            grids.append(real_grid(*args))
            return grids[-1]

        def generate_spy(*args):
            generate_calls.append(args)
            return real_generate(*args)

        monkeypatch.setattr(terrain_mod, "layout_grid", grid_spy)
        monkeypatch.setattr(terrain_mod, "generate", generate_spy)
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=7)
        assert run(config(vx=1.0, duration=6.0, terrain=rough)).completed
        assert sweep([config(vx=1.0, duration=6.0, terrain=rough)], trials=2)[0].successes == 2
        assert len(grids) == 3 and generate_calls == []
        for grid in grids:
            filled = sum(len(row) for row in grid.h.values())
            assert 0 < filled < 0.02 * grid.rows * grid.cols, filled

    def test_spec_runs_build_no_map(self, monkeypatch):
        # spies: every terrain.generate call and every Heightmap built
        built = []
        real_generate, real_post_init = terrain_mod.generate, terrain_mod.Heightmap.__post_init__

        def generate_spy(*args):
            built.append("generate")
            return real_generate(*args)

        def post_init_spy(self):
            built.append("Heightmap")
            real_post_init(self)

        monkeypatch.setattr(terrain_mod, "generate", generate_spy)
        monkeypatch.setattr(terrain_mod.Heightmap, "__post_init__", post_init_spy)
        gap = gap_spec()
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=7)
        for replan in (sim_mod.REPLAN_AT_STEP_START, sim_mod.REPLAN_EVERY_TICK):
            assert run(config(vx=1.0, duration=4.0, replan=replan, terrain=gap)).completed
        assert turn_maneuver(config(vx=1.0, duration=4.0, terrain=gap), math.pi / 2,
                             1.2).completed
        rows = sweep([config(vx=0.8, duration=6.0, terrain=t) for t in (gap, rough)], trials=2)
        assert [r.successes for r in rows] == [2, 2]
        assert built == []

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START, sim_mod.REPLAN_EVERY_TICK])
    def test_rough_run_equals_run_on_generated_map(self, replan):
        specs = [TerrainSpec(kind="rough", amplitude=0.06, correlation=0.4, seed=seed)
                 for seed in (0, 7, 12)]
        specs += [gap_spec(), gap_spec(width=0.12, period=0.67, offset=0.29),
                  gap_spec(width=0.23, period=0.71, offset=0.37),
                  # no supporting ground: the run fails at its first snap
                  gap_spec(width=0.9, period=0.8, offset=0.4)]
        reasons = []
        for spec in specs:
            cfg = config(vx=1.2, duration=4.0, replan=replan, terrain=spec)
            schedule = sim_mod._constant_schedule(cfg)
            hmap = terrain_mod.generate(spec, sim_mod._auto_extent(cfg, schedule),
                                        sim_mod.TERRAIN_RESOLUTION)
            lazy, eager = run(cfg), run(replace(cfg, terrain=hmap))
            assert (lazy.outcome, lazy.failure_time) == (eager.outcome, eager.failure_time)
            assert lazy.sample_array.tobytes() == eager.sample_array.tobytes()
            if spec.kind == "rough":
                assert np.abs(lazy.sample_array[:, COL_STANCE_Z]).max() > 1e-4
            reasons.append(lazy.failure_reason)
        assert reasons[3:] == [None, None, "step beyond reach limit",
                               "no steppable ground within search radius"]

    def test_rough_stance_height_follows_terrain(self):
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=12)
        res = run(config(vx=1.0, duration=6.0, replan=sim_mod.REPLAN_EVERY_TICK,
                         terrain=rough))
        assert res.completed
        arr = res.sample_array
        z = arr[:, COL_STANCE_Z]
        assert np.abs(z).max() > 1e-4  # stance actually rides the terrain
        assert np.abs(z).max() <= 0.05
        # the pendulum frequency follows the stance height at every tick
        w = np.sqrt(9.81 / (0.62 - z))
        npt.assert_allclose(arr[:, COL_ICP_X],
                            arr[:, COL_COM_X] + arr[:, COL_VEL_X] / w, atol=1e-12)
        npt.assert_allclose(arr[:, COL_ICP_Y],
                            arr[:, COL_COM_Y] + arr[:, COL_VEL_Y] / w, atol=1e-12)


class TestSnapHeights:
    """A target's height is the one snap_to_steppable returns with it, read
    once per answer: steppable's h0 for a kept query, the bilinear sum in
    the scan's kept cell for a reused query answer, one grid_bilinear call
    for a node a search finds, and the height kept in the search
    certificate for a reused node answer."""

    SPECS = [TerrainSpec(kind="rough", amplitude=a, correlation=0.5, seed=seed)
             for a in (0.05, 0.2) for seed in (0, 1)]

    @staticmethod
    def _loop(cfg, monkeypatch):
        """sim_loop's result and arguments for cfg, with each grid_bilinear
        call's (x, y) and each snap's (x, y, result)."""
        reads, snaps = [], []
        real_read, real_snap = _kernels.grid_bilinear, _kernels.snap_to_steppable

        def read_spy(grid, x, y):
            reads.append((x, y))
            return real_read(grid, x, y)

        def snap_spy(*args):
            got = real_snap(*args)
            snaps.append((*args[5:7], got))
            return got

        args, grid = loop_call(cfg, sim_mod._constant_schedule(cfg))
        monkeypatch.setattr(_kernels, "grid_bilinear", read_spy)
        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        result = _kernels.sim_loop(*args, grid=grid)
        monkeypatch.undo()
        return result, args, reads, snaps

    def test_at_step_start_reads_stance_and_snapped_nodes(self, monkeypatch):
        moved_runs = 0
        for spec in self.SPECS:
            cfg = config(vx=1.0, duration=6.0, terrain=spec)
            (n_rec, outcome, _, _), args, reads, snaps = self._loop(cfg, monkeypatch)
            assert outcome == _kernels.OUTCOME_COMPLETED and len(snaps) == 18
            # the initial stance, then each snapped node: planning once a
            # step, every snap that moves its query is a search of its own
            nodes = []
            for x, y, (found, sx, sy) in snaps:
                assert found
                if (sx, sy) != (x, y):
                    nodes.append((sx, sy))
            assert reads == [args[12:14]] + nodes
            moved_runs += bool(nodes)
            if spec.amplitude == 0.05:
                # every target is kept: the stance is the only read
                assert reads == [args[12:14]]
        assert moved_runs == 2

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START, sim_mod.REPLAN_EVERY_TICK])
    def test_target_z_is_the_bilinear_height(self, replan):
        kept = moved = 0
        for spec in self.SPECS:
            cfg = config(vx=1.0, duration=6.0, replan=replan, terrain=spec)
            schedule = sim_mod._constant_schedule(cfg)
            args, grid = loop_call(cfg, schedule)
            n_rec, outcome, _, rows = _kernels.sim_loop(*args, grid=grid)
            assert outcome == _kernels.OUTCOME_COMPLETED and n_rec == 600
            # read on a fresh view of the same terrain
            grid = sim_mod._terrain_grid(cfg, schedule)
            targets = rows[:, COL_TARGET_X:COL_TARGET_Y + 1].tolist()
            z = [_kernels.grid_bilinear(grid, x, y) for x, y in targets]
            assert np.array(z).tobytes() == rows[:, COL_TARGET_Z].tobytes()
            for x, y in targets:
                j, i = round((x - grid.ox) / grid.res), round((y - grid.oy) / grid.res)
                on_node = (x, y) == (grid.ox + j * grid.res, grid.oy + i * grid.res)
                moved += on_node
                kept += not on_node
        # not vacuous: rows hold kept queries and snapped nodes
        assert kept > 0 and moved > 0

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START, sim_mod.REPLAN_EVERY_TICK])
    def test_every_answer_height_is_grid_bilinear_read_once(self, monkeypatch, replan):
        # per found snap: (moved, searched, grid_bilinear reads, height has
        # grid_bilinear's bits at the answer, gap terrain)
        answers = []
        searches, reads = [], []
        real_read, real_search = _kernels.grid_bilinear, _kernels._nearest_steppable_node
        real_snap = _kernels.snap_to_steppable

        def read_spy(grid, x, y):
            reads.append(None)
            return real_read(grid, x, y)

        def search_spy(*args):
            searches.append(None)
            return real_search(*args)

        def snap_spy(grid, radius, max_dev, max_search, memo, x, y, last=None, height=None):
            n_reads, n_searches = len(reads), len(searches)
            height[0] = math.nan  # each found answer writes its own height
            got = real_snap(grid, radius, max_dev, max_search, memo, x, y, last, height)
            found, sx, sy = got
            if found:
                bits = np.float64(real_read(grid, sx, sy)).tobytes()
                answers.append(((sx, sy) != (x, y), len(searches) > n_searches,
                                len(reads) - n_reads, np.float64(height[0]).tobytes() == bits,
                                on_gap))
            return got

        monkeypatch.setattr(_kernels, "grid_bilinear", read_spy)
        monkeypatch.setattr(_kernels, "_nearest_steppable_node", search_spy)
        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        for spec in self.SPECS + [gap_spec(), gap_spec(width=0.3, offset=0.1)]:
            on_gap = spec.kind == "gap"
            for vx, vy in ((0.7, 0.0), (1.0, 0.2)):
                res = run(config(vx=vx, vy=vy, duration=6.0, replan=replan, terrain=spec))
                assert res.sample_array.shape[0] > 100
        assert all(same for *_, same, _ in answers)
        # a kept query reads no grid_bilinear, a found node one, a reused node none
        assert all(n == (moved and searched) for moved, searched, n, _, _ in answers)
        nodes = [(searched, gap) for moved, searched, _, _, gap in answers if moved]
        fresh = sum(searched for searched, _ in nodes)
        gap_nodes = [searched for searched, gap in nodes if gap]
        assert fresh > 10 and len(answers) - len(nodes) > 10
        if replan == sim_mod.REPLAN_EVERY_TICK:
            # not vacuous: most node answers on gap ground are reused
            assert len(gap_nodes) - sum(gap_nodes) > len(gap_nodes) / 2
        else:
            assert fresh == len(nodes)

    def test_reused_answer_height_is_grid_bilinear_bit_for_bit(self, monkeypatch):
        scans = []  # one entry per query scan, a steppable() call with a list
        checked = []  # (reused, height equal to grid_bilinear's bits) per kept query
        real, real_snap = _kernels.steppable, _kernels.snap_to_steppable

        def spy(grid, x, y, radius, max_dev, cert=None, height=None):
            if cert is not None:
                scans.append(None)
            return real(grid, x, y, radius, max_dev, cert, height)

        def snap_spy(grid, radius, max_dev, max_search, memo, x, y, last=None, height=None):
            n_scans = len(scans)
            got = real_snap(grid, radius, max_dev, max_search, memo, x, y, last, height)
            if got == (True, x, y):
                bits = np.float64(_kernels.grid_bilinear(grid, x, y)).tobytes()
                checked.append((len(scans) == n_scans,
                                np.float64(height[0]).tobytes() == bits))
            return got

        monkeypatch.setattr(_kernels, "steppable", spy)
        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        for spec in self.SPECS + [gap_spec(), gap_spec(width=0.3, offset=0.1)]:
            for vx, vy in ((0.7, 0.0), (1.0, 0.2)):
                res = run(config(vx=vx, vy=vy, duration=6.0, replan=sim_mod.REPLAN_EVERY_TICK,
                                 terrain=spec))
                assert res.sample_array.shape[0] > 100
        assert all(same for _, same in checked)
        # not vacuous: most kept heights come from a reused answer's cell
        reused = sum(r for r, _ in checked)
        assert len(checked) - reused > 20 and reused > len(checked) / 2


def small_flat_map():
    """`terrain gen --spec flat --extent=-1:-1:2:1`'s map: a run at 1 m/s
    plans beyond x = 2 within 3 s."""
    return terrain_mod.generate(TerrainSpec(kind="flat"), (-1.0, -1.0, 2.0, 1.0),
                                sim_mod.TERRAIN_RESOLUTION)


def loaded_map(step_height=0.0, gap=False):
    """Flat map over x in [-1, 5], y in [-1.5, 1.5] whose part at x >= 0.6 is
    raised by step_height, or masked out when gap is set."""
    xs = np.arange(-1.0, 5.0 + 1e-9, 0.05)
    ys = np.arange(-1.5, 1.5 + 1e-9, 0.05)
    ahead = np.broadcast_to(xs >= 0.6, (len(ys), len(xs)))
    return terrain_mod.Heightmap(origin=(-1.0, -1.5), resolution=0.05,
                                 heights=np.where(ahead, step_height, 0.0),
                                 mask=ahead & gap)


class TestStepEvents:
    """step_events are read from the sample rows at each touchdown."""

    @pytest.mark.parametrize("case", ["reach", "height", "overflow", "plan-overflow"])
    def test_failed_touchdown_is_last_event(self, case):
        if case == "reach":
            cfg = config(vx=1.0, reach=0.05)
            outcome = _kernels.OUTCOME_REACH
        elif case == "height":
            # the ground ahead is higher than the 0.62 m pendulum
            cfg = config(vx=1.0, terrain=loaded_map(step_height=0.7))
            outcome = _kernels.OUTCOME_BAD_HEIGHT
        elif case == "overflow":
            # ground 1e-13 m below the base height: cosh(omega * dt) overflows
            cfg = config(vx=1.0, terrain=loaded_map(step_height=0.62 - 1e-13))
            outcome = _kernels.OUTCOME_NON_FINITE
        else:
            # ground 1e-6 m below the base height: cosh(omega * dt) stays
            # finite, but exp(omega * Ts) of the touchdown's plan overflows
            cfg = config(vx=1.0, terrain=loaded_map(step_height=0.62 - 1e-6))
            outcome = _kernels.OUTCOME_NON_FINITE
        res = run(cfg)
        assert res.failure_reason == sim_mod._FAIL_REASONS[outcome]
        events = res.step_events
        assert res.n_steps == len(events) >= 1
        last = events[-1]
        realized = [last["realized"][k] for k in "xyz"]
        arr = res.sample_array
        assert last["time"] == res.failure_time == arr[-1, COL_TIME] > 0.0
        npt.assert_array_equal(realized, arr[-1, COL_STANCE_X:COL_STANCE_Z + 1])
        assert [last["planned"][k] for k in "xyz"] == realized
        if case == "height":
            assert realized[2] >= cfg.lip.z0
        if case == "overflow":
            assert 0.0 < cfg.lip.z0 - realized[2] < 1e-12
            assert np.isfinite(arr).all()
        if case == "plan-overflow":
            assert 1e-12 < cfg.lip.z0 - realized[2] < 2e-6
            assert np.isfinite(arr).all()
            # the failed plan leaves the target the stance moved onto
            npt.assert_array_equal(arr[-1, COL_TARGET_X:COL_TARGET_Z + 1],
                                   arr[-1, COL_STANCE_X:COL_STANCE_Z + 1])

    @pytest.mark.parametrize("case", ["no-ground-mid-step", "no-ground-at-start",
                                      "height-at-start"])
    def test_no_event_after_last_completed_touchdown(self, case):
        if case == "no-ground-mid-step":
            # a half turn mid-step throws the every-tick target over the gap,
            # beyond the snap search radius
            cfg = config(vx=2.0, duration=3.0, reach=1.5, replan=sim_mod.REPLAN_EVERY_TICK,
                         terrain=loaded_map(gap=True))
            res = turn_maneuver(cfg, math.pi, 0.85)
            outcome = _kernels.OUTCOME_NO_GROUND
        elif case == "no-ground-at-start":
            cfg = config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1))
            res = run(cfg)
            outcome = _kernels.OUTCOME_NO_GROUND
        else:
            cfg = replace(config(vx=0.8, terrain=TerrainSpec(
                kind="rough", amplitude=0.08, correlation=1.0, seed=5)),
                lip=LipParams(z0=0.02))
            res = run(cfg)
            outcome = _kernels.OUTCOME_BAD_HEIGHT
        assert res.failure_reason == sim_mod._FAIL_REASONS[outcome]
        k = cfg.ticks_per_step
        fail_tick = round(res.failure_time / cfg.dt)
        times = [ev["time"] for ev in res.step_events]
        assert res.n_steps == len(times) == fail_tick // k
        assert all(t < res.failure_time for t in times)
        if case == "no-ground-mid-step":
            assert fail_tick % k != 0 and len(times) == 2
        else:
            assert res.failure_time == 0.0 and times == []

    def test_event_log_heading_equals_planned_heading(self, tmp_path):
        # a backward command with a -0.0 lateral part plans a half turn: pi
        runs = _seeded_runs() + [(config(vx=-1.0, vy=-0.0, duration=1.0), None, None)]
        backward = []
        for cfg, schedule, _ in runs:
            res = sim_mod._simulate(cfg, schedule or sim_mod._constant_schedule(cfg))
            sim_mod.write_step_events(res, tmp_path / "e.json")
            logged = [ev["planned"]["heading"] for ev in
                      json.loads((tmp_path / "e.json").read_text())["step_events"]]
            planned = [ev["planned"]["heading"] for ev in res.step_events]
            assert np.array(logged).tobytes() == np.array(planned).tobytes()
            backward = planned
        assert backward and set(backward) == {math.pi}

    def test_sweep_builds_no_step_events(self, tmp_path, monkeypatch):
        calls = []
        real_rows = sim_mod._touchdown_rows

        def counting_rows(*args):
            calls.append(args[1])
            return real_rows(*args)

        monkeypatch.setattr(sim_mod, "_touchdown_rows", counting_rows)
        cfgs = [config(vx=vx, duration=2.0, terrain=spec, reach=reach)
                for spec in _sweep_terrains(tmp_path).values()
                for vx, reach in ((0.6, 0.6), (2.5, 0.35))]
        sweep(cfgs, trials=2, window=1.0)
        assert calls == []
        # not vacuous: reading the events goes through the counter, once
        assert len(run(cfgs[0]).step_events) > 0
        assert calls == [cfgs[0].ticks_per_step]


class TestSweep:
    def test_flat_grid_all_success(self):
        cfgs = [config(vx=vx, duration=6.0) for vx in (0.5, 1.0, 1.5, 2.0)]
        rows = sweep(cfgs, trials=3, base_seed=1)
        for row in rows:
            assert row.successes == row.trials == 3
            assert row.success_rate == 1.0

    def test_zero_trials(self):
        rows = sweep([config(vx=1.0, duration=6.0)], trials=0)
        assert rows[0].trials == 0 and rows[0].successes == 0
        assert math.isnan(rows[0].success_rate)

    def test_deterministic(self):
        rough = TerrainSpec(kind="rough", amplitude=0.04, correlation=0.5, seed=0)
        cfgs = [config(vx=1.0, duration=6.0, replan=sim_mod.REPLAN_EVERY_TICK,
                       terrain=rough)]
        r1 = sweep(cfgs, trials=5, base_seed=3)
        r2 = sweep(cfgs, trials=5, base_seed=3)
        assert r1 == r2

    def test_zero_trials_set_nothing_up(self):
        # the map covers [5, 7] x [5, 7], not the initial stance (0, -0.15)
        hmap = terrain_mod.generate(TerrainSpec(kind="flat"), (5.0, 5.0, 7.0, 7.0), 0.05)
        cfgs = [config(vx=1.0, duration=2.0, terrain=hmap)]
        assert sweep(cfgs, trials=0, window=1.0) == [sim_mod.SweepRow(vx_cmd=1.0, trials=0,
                                                                      successes=0)]
        # not vacuous: a trial sets the config up, which rejects the map
        with pytest.raises(ValueError, match="initial stance foot lies outside the heightmap"):
            sweep(cfgs, trials=1, window=1.0)

    @pytest.mark.parametrize("base_seed", [-1, -2**40, 1.0, 2.5, True, "3", None])
    @pytest.mark.parametrize("terrain", [None, TerrainSpec(kind="rough")], ids=["flat", "rough"])
    def test_bad_base_seed_is_rejected_before_any_run(self, monkeypatch, base_seed, terrain):
        loops = []
        monkeypatch.setattr(_kernels, "sim_loop", lambda *args, **kw: loops.append(args))
        with pytest.raises(ValueError, match=re.escape(
                f"base_seed must be a non-negative integer, got {base_seed!r}")):
            sweep([config(vx=1.0, duration=2.0, terrain=terrain)], trials=2,
                  base_seed=base_seed, window=1.0)
        assert loops == []

    @pytest.mark.parametrize("trials", [-1, -2**40, 1.0, 2.5, True, False, "3", None])
    @pytest.mark.parametrize("terrain", [None, TerrainSpec(kind="rough")], ids=["flat", "rough"])
    def test_bad_trials_is_rejected_before_any_run(self, monkeypatch, trials, terrain):
        loops = []
        monkeypatch.setattr(_kernels, "sim_loop", lambda *args, **kw: loops.append(args))
        with pytest.raises(ValueError, match=re.escape(
                f"trials must be a non-negative integer, got {trials!r}")):
            sweep([config(vx=1.0, duration=2.0, terrain=terrain)], trials=trials,
                  window=1.0)
        assert loops == []

    def test_numpy_integer_trials_equals_int(self):
        cfgs = [config(vx=vx, duration=2.0, terrain=terrain)
                for vx in (0.6, 2.5) for terrain in (None, TerrainSpec(kind="rough"))]
        assert (sweep(cfgs, trials=np.int64(2), window=1.0)
                == sweep(cfgs, trials=2, window=1.0))

    def test_numpy_integer_base_seed_equals_int(self):
        cfgs = [config(vx=vx, duration=2.0, terrain=TerrainSpec(kind="rough"))
                for vx in (0.6, 2.5)]
        assert (sweep(cfgs, trials=2, base_seed=np.uint32(5), window=1.0)
                == sweep(cfgs, trials=2, base_seed=5, window=1.0))

    def test_each_rough_trial_runs_on_a_fresh_grid(self, monkeypatch):
        grids = []
        real_sim_loop = _kernels.sim_loop

        def grid_spy(*args, **kwargs):
            grids.append(kwargs["grid"])
            assert not grids[-1].h  # no node of this trial's grid is filled yet
            return real_sim_loop(*args, **kwargs)

        monkeypatch.setattr(_kernels, "sim_loop", grid_spy)
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5)
        sweep([config(vx=vx, duration=2.0, terrain=rough) for vx in (0.6, 0.9)], trials=3,
              window=1.0)
        assert len(grids) == 6 and len({id(g.h) for g in grids}) == 6
        assert all(g.h for g in grids)


def _sweep_terrains(tmp_path):
    path = tmp_path / "map.json"
    terrain_mod.generate(TerrainSpec(kind="rough", amplitude=0.03, correlation=0.5, seed=2),
                         (-2.0, -2.0, 6.0, 2.0), 0.05).save(path)
    return {"none": None, "flat": TerrainSpec(kind="flat"), "gap": gap_spec(),
            "heightmap": terrain_mod.Heightmap.load(path),
            "rough": TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=0)}


class TestSweepRunsTrialInvariantConfigsOnce:
    """sweep against the per-trial reference loop, compared with ==."""

    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START,
                                        sim_mod.REPLAN_EVERY_TICK])
    @pytest.mark.parametrize("trials", [0, 1, 3])
    @pytest.mark.parametrize("terrain", ["none", "flat", "gap", "heightmap", "rough"])
    def test_matches_per_trial_reference(self, tmp_path, terrain, trials, replan):
        spec = _sweep_terrains(tmp_path)[terrain]
        cfgs = [config(vx=vx, duration=2.0, replan=replan, terrain=spec, reach=reach)
                for vx, reach in ((0.6, 0.6), (2.5, 0.35))]
        rows = sweep(cfgs, trials, base_seed=7, window=1.0, tolerance=0.3)
        assert rows == sweep_per_trial(cfgs, trials, base_seed=7, window=1.0, tolerance=0.3)
        # not vacuous: the slow config succeeds, the fast one fails its reach
        assert [r.successes for r in rows] == [trials, 0]

    @pytest.mark.parametrize("trials", [0, 1, 3])
    def test_run_calls(self, tmp_path, monkeypatch, trials):
        """One set-up per config that runs, none without trials; per rough
        trial one lattice draw and one sim_loop; each trial seed made once
        per sweep; no map built."""
        expected_seeds = [sim_mod._trial_seed(0, trial) for trial in range(trials)]
        calls = {}  # spied function name -> the positional arguments of each call

        def spy(module, name):
            real = getattr(module, name)
            calls[name] = []

            def counting(*args, **kwargs):
                calls[name].append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for module, name in ((sim_mod, "_loop_args"), (sim_mod, "_trial_seed"),
                             (_kernels, "sim_loop"), (terrain_mod, "_layout"),
                             (terrain_mod, "_lattice_values"), (terrain_mod, "generate")):
            spy(module, name)
        for name, spec in _sweep_terrains(tmp_path).items():
            for spied in calls.values():
                spied.clear()
            cfgs = [config(vx=vx, duration=2.0, terrain=spec) for vx in (0.6, 0.9)]
            sweep(cfgs, trials, window=1.0)
            rough = name == "rough"
            set_ups = len(cfgs) * min(trials, 1)
            assert [args[0] for args in calls["_loop_args"]] == cfgs[:set_ups]
            # a spec is laid out at its config's set-up, a map is not
            assert len(calls["_layout"]) == (set_ups if name in ("gap", "rough") else 0)
            runs = len(cfgs) * (trials if rough else min(trials, 1))
            assert len(calls["sim_loop"]) == runs
            draws = [seed for _, seed in calls["_lattice_values"]]
            assert draws == (expected_seeds * len(cfgs) if rough else [])
            # each trial seed once per sweep, shared by every rough config
            assert calls["_trial_seed"] == ([(0, t) for t in range(trials)] if rough else [])
            assert len(set(expected_seeds)) == trials
            assert calls["generate"] == []


    def test_cell_tables_built_once_per_rough_config(self, monkeypatch):
        """A rough config's cell tables, one per axis, are built at its
        set-up and shared by its trials; a run builds its own."""
        tables = []
        real = _kernels.cell_table

        def spy(g, n):
            tables.append(n)
            return real(g, n)

        monkeypatch.setattr(_kernels, "cell_table", spy)
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=0)
        cfgs = [config(vx=vx, duration=2.0, terrain=t)
                for vx in (0.6, 0.9) for t in (rough, TerrainSpec(kind="flat"), gap_spec())]
        rows = sweep(cfgs, 4, window=1.0)
        assert len(rows) == 6 and [r.successes for r in rows[::3]] == [4, 4]
        assert len(tables) == 2 * 2
        tables.clear()
        assert run(cfgs[0]).completed and len(tables) == 2


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK, terrain=gap_spec())
        r1 = run(cfg)
        r2 = run(cfg)
        npt.assert_array_equal(r1.sample_array, r2.sample_array)
        assert r1.step_events == r2.step_events


class TestTrajectoryCsv:
    def test_negative_zero_written_as_zero(self, tmp_path):
        arr = np.zeros((2, _kernels.N_SAMPLE_COLS))
        arr[1, :] = -0.0
        arr[0, COL_TIME] = 0.5
        result = sim_mod.SimResult(config=config(), outcome="completed",
                                   failure_reason=None, failure_time=None,
                                   sample_array=arr)
        out = tmp_path / "t.csv"
        sim_mod.write_trajectory_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(sim_mod.CSV_COLUMNS)
        assert lines[1].split(",")[0] == "0.5"
        assert lines[2] == ",".join(["0"] * len(sim_mod.CSV_COLUMNS))


# float64 values whose 17-digit text is easy to get wrong
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1e308, 1.7976931348623157e308,
    float(2**53 + 1), float(2**64), -float(2**63), 1e22, 1e23,
    0.30000000000000004, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456789012345680.0,
    math.inf, -math.inf, math.nan,
]


def _random_samples(rng, n):
    """(n, N_SAMPLE_COLS) floats over many decades, with -0.0 and specials
    sprinkled in and an integer-valued parity column."""
    arr = rng.standard_normal((n, _kernels.N_SAMPLE_COLS)) * 10.0 ** rng.integers(
        -30, 30, size=(n, _kernels.N_SAMPLE_COLS))
    arr[rng.random(arr.shape) < 0.1] = -0.0
    if n:
        arr.reshape(-1)[rng.choice(arr.size, len(SPECIAL_FLOATS))] = SPECIAL_FLOATS
    arr[:, COL_PARITY] = rng.integers(0, 1000, size=n)
    arr[rng.random(n) < 0.2, COL_PARITY] = -0.0
    arr[rng.random(n) < 0.1, COL_PARITY] = 2.0 ** 62  # beyond 17 digits
    return arr


def _pooled_samples(rng, n):
    """(n, N_SAMPLE_COLS) floats, each column drawn from a pool of five
    values, so every column of a block of 10 or more rows is repetitive.
    The float pools cycle through SPECIAL_FLOATS (±0.0, NaN and ±inf
    included); the parity pool holds -0.0, 2**62 and values that truncate
    to the same integer."""
    pools = [[SPECIAL_FLOATS[(5 * c + j) % len(SPECIAL_FLOATS)] for j in range(5)]
             for c in range(_kernels.N_SAMPLE_COLS)]
    pools[COL_PARITY] = [-0.0, 2.0 ** 62, 2.3, 2.7, -0.5]
    return np.column_stack([rng.choice(pool, size=n) for pool in pools])


def _per_value(block, int_columns=()):
    """Per column of `block`, whether write_csv formats it once per
    distinct value (else in a one-pass run of columns)."""
    return sim_mod._block_parts(block, int_columns)[0]


@functools.cache
def _writer_results():
    """name -> SimResult covering random rows, -0.0, failures (flag 2),
    zero rows and runs shorter than one step."""
    rng = np.random.default_rng(8)
    results = {}
    for outcome in ("completed", "failed"):
        results[f"random-{outcome}"] = sim_mod.SimResult(
            config=config(), outcome=outcome, failure_reason=None, failure_time=None,
            sample_array=_random_samples(rng, 200))
    results["gap-tick"] = run(config(vx=0.7, duration=3.0, replan=sim_mod.REPLAN_EVERY_TICK,
                                     terrain=gap_spec()))
    results["no-ground-at-start"] = run(config(vx=1.0, terrain=gap_spec(width=2.0,
                                                                        period=0.1)))
    results["zero-rows"] = run(replace(config(vx=0.8, terrain=TerrainSpec(
        kind="rough", amplitude=0.08, correlation=1.0, seed=5)), lip=LipParams(z0=0.02)))
    results["shorter-than-a-step"] = run(config(vx=1.0, duration=0.2))
    results["one-tick-steps"] = run(replace(config(vx=0.5, duration=0.3),
                                            gait=GaitParams(step_duration=0.01)))
    return results


WRITER_CASES = ["gap-tick", "no-ground-at-start", "one-tick-steps", "random-completed",
                "random-failed", "shorter-than-a-step", "zero-rows"]


class TestWritersMatchPerValueOracles:
    def test_results_cover_their_cases(self):
        r = _writer_results()
        assert sorted(r) == WRITER_CASES
        assert (r["random-completed"].sample_array == 0.0).any()
        assert np.signbit(r["random-completed"].sample_array).any()
        assert not r["no-ground-at-start"].completed
        assert r["no-ground-at-start"].sample_array.shape[0] == 1
        assert r["zero-rows"].sample_array.shape == (0, _kernels.N_SAMPLE_COLS)
        assert r["shorter-than-a-step"].n_steps == 0
        assert r["shorter-than-a-step"].sample_array.shape[0] == 20
        assert r["gap-tick"].n_steps > 5
        assert r["one-tick-steps"].n_steps == 29

    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_touchdown_rows_pair_up(self, name):
        result = _writer_results()[name]
        k = result.config.ticks_per_step
        touch, planned = sim_mod._touchdown_rows(result.sample_array, k)
        assert len(touch) == len(planned) == result.n_steps
        # rows k, 2k, ... of the n rows: one touchdown per k rows after row 0
        assert result.n_steps == max(len(result.sample_array) - 1, 0) // k

    @pytest.mark.parametrize("x", SPECIAL_FLOATS)
    def test_template_field_equals_format_float(self, x):
        assert "%.17g" % (x + 0.0) == sim_mod.format_float(x) == format(x + 0.0, ".17g")

    def test_template_field_equals_format_float_on_random_bits(self):
        bits = np.random.default_rng(3).integers(0, 2**64, size=5000, dtype=np.uint64)
        for x in bits.view(np.float64).tolist():
            assert "%.17g" % (x + 0.0) == sim_mod.format_float(x)

    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_trajectory_csv(self, name, tmp_path):
        result = _writer_results()[name]
        sim_mod.write_trajectory_csv(result, tmp_path / "new.csv")
        write_trajectory_csv_per_value(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, sim_mod.CSV_BLOCK_ROWS - 1,
                                   sim_mod.CSV_BLOCK_ROWS, sim_mod.CSV_BLOCK_ROWS + 1])
    def test_trajectory_csv_at_block_edges(self, n, tmp_path):
        result = sim_mod.SimResult(
            config=config(), outcome="failed", failure_reason=None, failure_time=None,
            sample_array=_random_samples(np.random.default_rng(n), n))
        sim_mod.write_trajectory_csv(result, tmp_path / "new.csv")
        write_trajectory_csv_per_value(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_step_events(self, name, tmp_path):
        result = _writer_results()[name]
        sim_mod.write_step_events(result, tmp_path / "new.json")
        write_step_events_per_event(result, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        old = json.loads((tmp_path / "old.json").read_text())["step_events"]
        assert result.step_events == tuple(old)

    @pytest.mark.parametrize("n", [0, 1, 300, sim_mod.CSV_BLOCK_ROWS - 1,
                                   sim_mod.CSV_BLOCK_ROWS, sim_mod.CSV_BLOCK_ROWS + 1])
    def test_rewards_csv(self, n, tmp_path):
        rng = np.random.default_rng(n)
        columns = list(_random_samples(rng, n)[:, :17].T)
        header = [f"c{i}" for i in range(17)]
        sim_mod.write_csv(tmp_path / "new.csv", header, np.column_stack(columns))
        write_rewards_csv_per_value(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [2, 300, sim_mod.CSV_BLOCK_ROWS, sim_mod.CSV_BLOCK_ROWS + 1])
    def test_trajectory_csv_of_pooled_columns(self, n, tmp_path):
        arr = _pooled_samples(np.random.default_rng(n), n)
        result = sim_mod.SimResult(
            config=config(), outcome="failed", failure_reason=None, failure_time=None,
            sample_array=arr)
        sim_mod.write_trajectory_csv(result, tmp_path / "new.csv")
        write_trajectory_csv_per_value(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        if n >= 10:
            block = arr[:sim_mod.CSV_BLOCK_ROWS]
            assert np.isnan(block).any() and np.isinf(block).any() and np.signbit(block).any()
            assert _per_value(block, (COL_PARITY,)) == [True] * _kernels.N_SAMPLE_COLS

    @pytest.mark.parametrize("n", [2, 300, sim_mod.CSV_BLOCK_ROWS, sim_mod.CSV_BLOCK_ROWS + 1])
    def test_rewards_csv_of_pooled_columns(self, n, tmp_path):
        columns = list(_pooled_samples(np.random.default_rng(n), n)[:, :17].T)
        header = [f"c{i}" for i in range(17)]
        sim_mod.write_csv(tmp_path / "new.csv", header, np.column_stack(columns))
        write_rewards_csv_per_value(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [300, sim_mod.CSV_BLOCK_ROWS])
    def test_half_the_rows_distinct_is_the_rule_edge(self, n, tmp_path):
        # columns of n/2 and n/2 + 1 distinct values, as floats and as ints
        values = 10.0 * np.random.default_rng(n).standard_normal(n // 2 + 1)
        at_edge, past_edge = values[np.arange(n) % (n // 2)], values[np.arange(n) % (n // 2 + 1)]
        table = np.column_stack((at_edge, past_edge, at_edge, past_edge))
        per_value, parts = sim_mod._block_parts(table, (2, 3))
        assert per_value == [True, False, True, False]
        # each column its own run, as "%.17g" or, at the int columns, "%d" writes it
        assert parts == [[sim_mod.format_float(v) for v in col.tolist()]
                         for col in (at_edge, past_edge)] + [
                         [str(int(v)) for v in col.tolist()] for col in (at_edge, past_edge)]
        sim_mod.write_csv(tmp_path / "new.csv", ["a", "b"], table[:, :2])
        write_rewards_csv_per_value(tmp_path / "old.csv", ["a", "b"], [at_edge, past_edge])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_constant_column_across_the_block_edge(self, tmp_path):
        n = sim_mod.CSV_BLOCK_ROWS + 1
        columns = [np.full(n, 0.1), np.random.default_rng(4).standard_normal(n)]
        table = np.column_stack(columns)
        assert _per_value(table[:sim_mod.CSV_BLOCK_ROWS]) == [True, False]
        assert _per_value(table[sim_mod.CSV_BLOCK_ROWS:]) == [False, False]
        sim_mod.write_csv(tmp_path / "new.csv", ["c", "r"], table)
        write_rewards_csv_per_value(tmp_path / "old.csv", ["c", "r"], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("repetitive", [True, False])
    def test_non_finite_parity_raises_as_int_does(self, bad, repetitive, tmp_path):
        arr = _random_samples(np.random.default_rng(5), 40)
        arr[:, COL_PARITY] = 1.0 if repetitive else np.arange(40)
        assert _per_value(arr, (COL_PARITY,))[COL_PARITY] == repetitive
        arr[17, COL_PARITY] = bad
        result = sim_mod.SimResult(
            config=config(), outcome="completed", failure_reason=None, failure_time=None,
            sample_array=arr)
        with pytest.raises((ValueError, OverflowError)) as new:
            sim_mod.write_trajectory_csv(result, tmp_path / "new.csv")
        with pytest.raises((ValueError, OverflowError)) as old:
            write_trajectory_csv_per_value(result, tmp_path / "old.csv")
        assert (new.type, str(new.value)) == (old.type, str(old.value))
        assert new.type is (ValueError if bad != bad else OverflowError)

    def test_repetitive_trajectory_columns_are_formatted_once_per_value(self, monkeypatch,
                                                                        tmp_path):
        blocks = []
        block_parts = sim_mod._block_parts

        def recording(block, int_columns):
            per_value, parts = block_parts(block, int_columns)
            blocks.append((per_value, parts))
            return per_value, parts

        monkeypatch.setattr(sim_mod, "_block_parts", recording)
        sim_mod.write_trajectory_csv(_writer_results()["gap-tick"], tmp_path / "t.csv")
        assert len(blocks) == 1
        per_value, parts = blocks[0]
        kind = dict(zip(sim_mod.CSV_COLUMNS, per_value))
        for name in ("stance_x", "stance_y", "stance_z", "contact_schedule", "phase_sin",
                     "phase_cos", "parity", "outcome_flag"):
            assert kind[name], name
        for name in ("time", "com_x", "vel_x", "icp_x"):
            assert not kind[name], name
        # one part per once-per-value column and one per run of the others
        runs = sum(1 for c, p in enumerate(per_value) if p or c == 0 or per_value[c - 1])
        assert len(parts) == runs


def _kinds_table(rng, n, kinds, finite=()):
    """(n, len(kinds)) floats, column c of one kind: "d", n distinct values
    over many decades; "r", a pool of max(1, min(n, CSV_BLOCK_ROWS) // 8)
    values cycled and shuffled, so that from 2 rows up write_csv formats it
    once per value. From 16 rows (a pool from 8 values), -0.0, 5e-324,
    1e16 and 2**62 are among a column's values, and NaN (twice in a "d"
    column) and ±inf too unless c is in `finite`."""
    cols = []
    for c, kind in enumerate(kinds):
        specials = [-0.0, 5e-324, 1e16, 2.0 ** 62]
        if c not in finite:
            specials += [math.nan, math.inf, -math.inf]
        if kind == "d":
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, size=n)
            if n >= 16:
                col[:len(specials) + 1] = specials + [math.nan if c not in finite else 0.5]
        else:
            pool = rng.standard_normal(max(1, min(n, sim_mod.CSV_BLOCK_ROWS) // 8))
            if len(pool) >= 8:
                pool[:len(specials)] = specials
            col = pool[np.arange(n) % len(pool)]
        cols.append(rng.permutation(col))
    return np.column_stack(cols)


# a distinct and a repetitive column, and runs of distinct columns, interleaved
INTERLEAVED = "drrddrdrrrddrdrrd"
# the same over the sample columns, with parity (an int column, 14) inside
# the run of distinct columns 13-15
INTERLEAVED_SAMPLES = "rdrrddrdrrrdrdddrr"
RUN_EDGE_ROWS = [1, 2, sim_mod.CSV_BLOCK_ROWS - 1, sim_mod.CSV_BLOCK_ROWS,
                 sim_mod.CSV_BLOCK_ROWS + 1, 2 * sim_mod.CSV_BLOCK_ROWS + 1]


class TestColumnRunsMatchPerValueOracles:
    """write_csv's runs of columns against the per-value writers, on tables
    whose column kinds are fixed by construction."""

    @staticmethod
    def _check_kinds(table, kinds, int_columns=()):
        # not vacuous: the first block's columns take the path their kind names
        if len(table) >= 2:
            per_value = _per_value(table[:sim_mod.CSV_BLOCK_ROWS], int_columns)
            assert per_value[:len(kinds)] == [k == "r" for k in kinds]

    @pytest.mark.parametrize("n", RUN_EDGE_ROWS)
    @pytest.mark.parametrize("kinds", [INTERLEAVED, "d", "r", "d" * 17, "r" * 17],
                             ids=["interleaved", "one-distinct", "one-repetitive",
                                  "all-distinct", "all-repetitive"])
    def test_rewards_csv(self, kinds, n, tmp_path):
        table = _kinds_table(np.random.default_rng(n), n, kinds)
        self._check_kinds(table, kinds)
        header = [f"c{i}" for i in range(len(kinds))]
        sim_mod.write_csv(tmp_path / "new.csv", header, table)
        write_rewards_csv_per_value(tmp_path / "old.csv", header, list(table.T))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", RUN_EDGE_ROWS)
    @pytest.mark.parametrize("kinds", [INTERLEAVED_SAMPLES, "d" * 18, "r" * 18],
                             ids=["interleaved", "all-distinct", "all-repetitive"])
    def test_trajectory_csv(self, kinds, n, tmp_path):
        assert len(kinds) == _kernels.N_SAMPLE_COLS
        arr = _kinds_table(np.random.default_rng(n), n, kinds, finite=(COL_PARITY,))
        self._check_kinds(arr, kinds, (COL_PARITY,))
        result = sim_mod.SimResult(
            config=config(), outcome="failed", failure_reason=None, failure_time=None,
            sample_array=arr)
        sim_mod.write_trajectory_csv(result, tmp_path / "new.csv")
        write_trajectory_csv_per_value(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


EVENT_LEAVES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7]


def _event_result(arr):
    return sim_mod.SimResult(config=config(), outcome="completed", failure_reason=None,
                             failure_time=None, sample_array=arr)


class TestStepEventsTemplate:
    """write_step_events renders every record from the first record's
    json.dumps layout; its bytes are json.dumps's."""

    @staticmethod
    def _written(result, path):
        sim_mod.write_step_events(result, path)
        data = path.read_bytes()
        assert b"\r" not in data
        return data

    @staticmethod
    def _dumped(result):
        return (json.dumps({"step_events": result.step_events}, indent=2, sort_keys=True)
                + "\n").encode()

    @pytest.mark.parametrize("records", [0, 1, 30])
    @pytest.mark.parametrize("leaf", EVENT_LEAVES + ["mixed"])
    def test_special_leaves(self, leaf, records, tmp_path):
        k = config().ticks_per_step
        n = records * k + 1
        if leaf == "mixed":
            # each leaf drawn from the specials
            arr = np.random.default_rng(records).choice(EVENT_LEAVES,
                                                        size=(n, _kernels.N_SAMPLE_COLS))
        else:
            arr = np.full((n, _kernels.N_SAMPLE_COLS), leaf)
        arr[:, COL_PARITY] = 2.0 ** 62
        result = _event_result(arr)
        assert result.n_steps == records
        if records:
            assert result.step_events[-1]["planned"]["parity"] == 2 ** 62
        data = self._written(result, tmp_path / "new.json")
        write_step_events_per_event(result, tmp_path / "old.json")
        assert data == (tmp_path / "old.json").read_bytes() == self._dumped(result)

    def test_layout_is_read_from_the_record(self, monkeypatch, tmp_path):
        real = sim_mod.SimResult.step_events

        def extended(self):
            return tuple({**e, "extra": {"nested": {"b": e["time"], "a": [e["time"], []]},
                                         "count": 3, "empty": {}}}
                         for e in real.fget(self))

        monkeypatch.setattr(sim_mod.SimResult, "step_events", property(extended))
        result = _writer_results()["gap-tick"]
        assert result.n_steps > 5
        assert self._written(result, tmp_path / "e.json") == self._dumped(result)
        assert b'"nested"' in self._dumped(result)

    @pytest.mark.parametrize("leaf", ["a, b", "a\nb", 'q"uote, %s %d', "\x00", "", None,
                                      True, False, 2 ** 70, -3])
    def test_non_number_leaf_is_encoded_as_json_dumps_does(self, leaf, monkeypatch,
                                                           tmp_path):
        real = sim_mod.SimResult.step_events
        monkeypatch.setattr(sim_mod.SimResult, "step_events", property(
            lambda self: tuple({**e, "note": leaf} for e in real.fget(self))))
        result = _writer_results()["gap-tick"]
        assert self._written(result, tmp_path / "e.json") == self._dumped(result)

    def test_leaf_that_json_cannot_encode_raises(self, monkeypatch, tmp_path):
        real = sim_mod.SimResult.step_events
        monkeypatch.setattr(sim_mod.SimResult, "step_events", property(
            lambda self: tuple({**e, "note": object()} for e in real.fget(self))))
        result = _writer_results()["gap-tick"]
        with pytest.raises(TypeError):
            json.dumps(result.step_events)
        with pytest.raises(TypeError):
            sim_mod.write_step_events(result, tmp_path / "e.json")

    @pytest.mark.parametrize("edit", ["layout", "marker-key"])
    def test_records_the_template_cannot_hold_raise(self, edit, monkeypatch, tmp_path):
        real = sim_mod.SimResult.step_events

        def edited(self):
            events = list(real.fget(self))
            if edit == "layout":
                events[-1] = {**events[-1], "note": 1}
            else:
                events = [{**e, "\x00": 1} for e in events]
            return tuple(events)

        monkeypatch.setattr(sim_mod.SimResult, "step_events", property(edited))
        # a key holding the marker's text adds a field that no leaf fills
        with pytest.raises(ValueError if edit == "layout" else TypeError):
            sim_mod.write_step_events(_writer_results()["gap-tick"], tmp_path / "e.json")


class TestPhaseTable:
    @pytest.mark.parametrize("k,dt", [(35, 0.01), (1, 0.01), (7, 0.05), (40, 0.0125)])
    def test_cached_table_equals_per_run_table(self, k, dt):
        Ts = k * dt
        per_run = np.array([phase_signals(((r // k) * Ts + (r % k) * dt) / (2.0 * Ts))
                            for r in range(2 * k)])
        table = sim_mod._phase_table(k, dt)
        npt.assert_array_equal(table, per_run)
        assert sim_mod._phase_table(k, dt) is table
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    def test_runs_share_one_table(self, monkeypatch):
        calls = []

        def counting(phase):
            calls.append(phase)
            return phase_signals(phase)

        sim_mod._phase_table.cache_clear()
        monkeypatch.setattr(sim_mod, "phase_signals", counting)
        cfg = replace(config(vx=0.5, duration=1.0), dt=0.005)
        first = run(cfg)
        assert len(calls) == 2 * cfg.ticks_per_step
        assert run(cfg).sample_array.tobytes() == first.sample_array.tobytes()
        assert len(calls) == 2 * cfg.ticks_per_step


_ROUGH = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=3)
_EVERY = sim_mod.REPLAN_EVERY_TICK


class TestStepStarts:
    """Every step start, tick 0 included, takes one path: parity is the step
    index i // k on every row, and the gait-phase row follows the tick."""

    @pytest.mark.parametrize("cfg,turn,outcome", [
        pytest.param(config(vx=0.8, duration=2.0), None, _kernels.OUTCOME_COMPLETED,
                     id="flat-at-step-start"),
        pytest.param(config(vx=0.8, duration=2.0, replan=_EVERY), None,
                     _kernels.OUTCOME_COMPLETED, id="flat-every-tick"),
        pytest.param(config(vx=1.0, duration=3.0, replan=_EVERY, terrain=gap_spec()), None,
                     _kernels.OUTCOME_COMPLETED, id="gap-every-tick"),
        pytest.param(config(vx=1.0, duration=3.0, terrain=_ROUGH), None,
                     _kernels.OUTCOME_COMPLETED, id="rough-at-step-start"),
        pytest.param(config(vx=1.0, duration=3.0, replan=_EVERY, terrain=_ROUGH), None,
                     _kernels.OUTCOME_COMPLETED, id="rough-every-tick"),
        pytest.param(config(vx=1.0, duration=3.0, replan=_EVERY), math.pi / 2,
                     _kernels.OUTCOME_COMPLETED, id="turn"),
        pytest.param(config(vx=1.0, reach=0.05), None, _kernels.OUTCOME_REACH, id="reach"),
        pytest.param(config(vx=1.0, terrain=loaded_map(step_height=0.7)), None,
                     _kernels.OUTCOME_BAD_HEIGHT, id="bad-height"),
    ])
    def test_parity_and_phase_follow_the_tick(self, cfg, turn, outcome):
        res = run(cfg) if turn is None else turn_maneuver(cfg, turn, 1.5)
        assert res.failure_reason == sim_mod._FAIL_REASONS.get(outcome)
        arr = res.sample_array
        n = arr.shape[0]
        k = cfg.ticks_per_step
        i = np.arange(n)
        assert n > k  # at least one touchdown
        if outcome != _kernels.OUTCOME_COMPLETED:
            assert (n - 1) % k == 0  # the failed row is a touchdown's
        npt.assert_array_equal(arr[:, COL_PARITY], i // k)
        table = sim_mod._phase_table(k, cfg.dt)
        npt.assert_array_equal(arr[:, COL_CONTACT_SCHED:COL_PHASE_COS + 1],
                               table[i % (2 * k)])


class TestClosedFormStates:
    """sim_loop's CoM states against the closed form in 60-digit decimal
    arithmetic from the same float inputs, at the exact tick time j*dt."""

    def test_states_are_within_a_few_ulps_and_beat_the_chain(self):
        # 300 seeded steps of 35 ticks on flat ground; n_ticks = 36 makes
        # row 35 the next touchdown, the step's state at j = 35
        rng = np.random.default_rng(13)
        k, dt = 35, 0.01
        closed, chained = [], []  # errors in units of 2**-53 of each value's scale
        for _ in range(300):
            z0 = rng.uniform(0.4, 0.8)
            omega = math.sqrt(9.81 / z0)
            px, py = rng.uniform(-5.0, 5.0, 2).tolist()
            cx, cy = (np.array([px, py]) + rng.uniform(-0.3, 0.3, 2)).tolist()
            start = [cx, cy, *rng.uniform(-1.5, 1.5, 2).tolist()]
            n_rec, outcome, _, rows = _kernels.sim_loop(
                k + 1, dt, k, 9.81, z0, [(0, 0.5, 0.0, 0.3)], False, math.inf,
                *start, px, py, 0.0, grid=None)
            assert (n_rec, outcome) == (k + 1, _kernels.OUTCOME_COMPLETED)
            chain = start
            for j in range(1, k + 1):
                chain = lip_step_over(*chain, px, py, omega, dt)
                exact = lip_decimal(*start, px, py, omega, Decimal(dt) * j)
                state = rows[j, COL_COM_X:COL_VEL_Y + 1].tolist()
                for got, old, (value, scale) in zip(state, chain, exact):
                    closed.append(float(abs(Decimal(got) - value) / scale) * 2.0 ** 53)
                    chained.append(float(abs(Decimal(old) - value) / scale) * 2.0 ** 53)
        # rounding j*dt, omega*t, libm's cosh/sinh and the four operations
        # of a value cost a few units each
        assert max(closed) <= 8.0
        assert max(closed) < max(chained) and np.median(closed) < np.median(chained)

    @pytest.mark.parametrize("every_tick,vel_x_only", [(False, False), (False, True),
                                                       (True, False)])
    def test_non_finite_mid_step(self, every_tick, vel_x_only):
        # at rest over the stance with vel_x = 1e308: vel_x * cosh(omega*t)
        # leaves the float range within the first step, at the first tick
        # where the decimal closed form does, while the plan stays finite
        dt, k, z0 = 0.01, 35, 0.62
        omega = math.sqrt(9.81 / z0)
        start = [0.0, 0.0, 1e308, 0.0]
        j_bad = next(j for j in range(1, k + 1)
                     if any(abs(value) > sys.float_info.max for value, _ in
                            lip_decimal(*start, 0.0, 0.0, omega, Decimal(dt) * j)))
        assert 1 < j_bad < k
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            k, dt, k, 9.81, z0, [(0, 0.5, 0.0, 0.3)], every_tick, math.inf,
            *start, 0.0, 0.0, 0.0, grid=None, vel_x_only=vel_x_only)
        assert (n_rec, outcome, fail_time) == (j_bad, _kernels.OUTCOME_NON_FINITE, j_bad * dt)
        assert np.isfinite(rows).all()

    def test_hyperbolics_stop_at_the_first_overflow(self):
        # cosh(100 * t) overflows from t = 7.11 on
        spans = [float(t) for t in range(1, 11)]
        hyp = _kernels.hyperbolics(100.0, spans)
        assert hyp == [(math.cosh(100.0 * t), math.sinh(100.0 * t)) for t in spans[:7]]
        assert _kernels.hyperbolics(1e300, spans) == []


class TestSimLoopRows:
    def test_returns_recorded_rows(self):
        cfg = config(vx=1.0, reach=0.05)
        res = run(cfg)
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            cfg.n_ticks, cfg.dt, cfg.ticks_per_step, cfg.lip.g, cfg.lip.z0,
            [(0, 1.0, 0.0, 0.3)], False, cfg.reach_limit,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0, grid=None)
        assert outcome == _kernels.OUTCOME_REACH and fail_time == res.failure_time
        assert rows.shape == (n_rec, COL_PARITY + 1) == (res.sample_array.shape[0], 15)
        npt.assert_array_equal(rows, res.sample_array[:, :COL_PARITY + 1])

    def test_bad_height_at_start_records_no_rows(self):
        hmap = loaded_map(step_height=0.0)
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            10, 0.01, 35, 9.81, 0.0, [(0, 1.0, 0.0, 0.3)], False, 0.6,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0, grid=hmap.grid)
        assert (n_rec, outcome, fail_time) == (0, _kernels.OUTCOME_BAD_HEIGHT, 0.0)
        assert rows.shape == (0, COL_PARITY + 1)

    @pytest.mark.parametrize("g,z0", [(1e300, 0.62), (9.81, 1e-300)])
    def test_overflow_at_start_records_no_rows(self, g, z0):
        # cosh(omega * dt) overflows before the first tick: a failed run, as
        # a non-positive pendulum height gives
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            10, 0.01, 35, g, z0, [(0, 1.0, 0.0, 0.3)], False, 0.6,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0, grid=None)
        assert (n_rec, outcome, fail_time) == (0, _kernels.OUTCOME_NON_FINITE, 0.0)
        assert rows.shape == (0, COL_PARITY + 1)
        res = run(replace(config(vx=1.0), lip=LipParams(g=g, z0=z0)))
        assert (res.outcome, res.failure_reason, res.failure_time) == (
            "failed", "non-finite state", 0.0)
        assert res.sample_array.shape == (0, _kernels.N_SAMPLE_COLS)
        assert res.step_events == ()

    def test_simulate_passes_python_floats(self, monkeypatch):
        calls = []
        loop = _kernels.sim_loop

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return loop(*args, **kwargs)

        monkeypatch.setattr(_kernels, "sim_loop", spy)
        # the default initial state and the command are numpy arrays
        assert sim_mod.turn_maneuver(config(vx=0.7, duration=1.0, terrain=gap_spec()),
                                     0.5, 0.5).completed
        ((args, kwargs),) = calls
        schedule, grid, state = args[5], kwargs["grid"], args[8:]
        assert [type(v) for v in state] == [float] * 7
        assert [tuple(map(type, c)) for c in schedule] == [(int, float, float, float)] * 2
        assert [c[0] for c in schedule] == [0, 50]
        assert isinstance(grid, _kernels.Grid)

    def test_bad_height_touchdown_row_keeps_the_previous_omega(self):
        # the touchdown onto ground above the pendulum fails before omega is
        # re-derived: its ICP uses the omega of the step before
        cfg = config(vx=1.0, terrain=loaded_map(step_height=0.7))
        res = run(cfg)
        assert res.failure_reason == sim_mod._FAIL_REASONS[_kernels.OUTCOME_BAD_HEIGHT]
        prev, last = res.sample_array[-2:]
        assert last[COL_STANCE_Z] >= cfg.lip.z0 > prev[COL_STANCE_Z]
        omega_prev = math.sqrt(cfg.lip.g / (cfg.lip.z0 - prev[COL_STANCE_Z]))
        assert last[COL_ICP_X] == last[COL_COM_X] + last[COL_VEL_X] / omega_prev
        assert last[COL_ICP_Y] == last[COL_COM_Y] + last[COL_VEL_Y] / omega_prev


_ROUGH_B = TerrainSpec(kind="rough", amplitude=0.08, correlation=0.3, seed=9)

# Failing runs of each kind: (config, turn (angle, time) or None, kind).
_FAILING_RUNS = [
    (config(vx=1.0, reach=0.05), None, "reach"),
    (config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1)), None, "no-ground"),
    (config(vx=2.0, duration=3.0, reach=1.5, replan=_EVERY, terrain=loaded_map(gap=True)),
     (math.pi, 0.85), "no-ground"),
    (replace(config(vx=0.8, terrain=TerrainSpec(kind="rough", amplitude=0.08,
                                                 correlation=1.0, seed=5)),
             lip=LipParams(z0=0.02)), None, "bad-height-at-start"),
    (config(vx=1.0, terrain=loaded_map(step_height=0.7)), None, "bad-height-at-touchdown"),
    (replace(config(vx=1.0), lip=LipParams(g=1e300)), None, "non-finite"),
    (config(vx=1.0, terrain=loaded_map(step_height=0.62 - 1e-13)), None, "non-finite"),
    (config(vx=1.0, terrain=loaded_map(step_height=0.62 - 1e-6)), None, "non-finite"),
    (config(vx=1.0, duration=6.0, replan=_EVERY, terrain=small_flat_map()), None, "off-map"),
]


def _turned(schedule, angle, t):
    """schedule plus a switch at time t to its first command rotated by angle."""
    _, vx, vy, w = schedule[0]
    c, s = math.cos(angle), math.sin(angle)
    return schedule + [(t, c * vx - s * vy, s * vx + c * vy, w)]


def _seeded_runs(n=60, seed=16):
    """(config, schedule, kind) triples: n seeded ones over no terrain, gaps
    and two rough specs, both replan modes, two reach limits and, in about a
    third of them, a turn, of no set kind (None); then _FAILING_RUNS."""
    rng = np.random.default_rng(seed)
    terrains = (None, gap_spec(), _ROUGH, _ROUGH_B)
    runs = []
    for _ in range(n):
        cfg = config(vx=rng.uniform(0.0, 2.5), vy=rng.uniform(-0.3, 0.3),
                     duration=float(rng.choice([1.0, 2.0])),
                     replan=str(rng.choice([sim_mod.REPLAN_AT_STEP_START, _EVERY])),
                     terrain=terrains[rng.integers(len(terrains))],
                     reach=float(rng.choice([0.35, 0.6])))
        schedule = sim_mod._constant_schedule(cfg)
        if rng.random() < 1 / 3:
            schedule = _turned(schedule, rng.uniform(-math.pi, math.pi),
                               rng.uniform(0.0, cfg.total_duration))
        runs.append((cfg, schedule, None))
    for cfg, turn, kind in _FAILING_RUNS:
        schedule = sim_mod._constant_schedule(cfg)
        runs.append((cfg, schedule if turn is None else _turned(schedule, *turn), kind))
    return runs


def _kind(outcome, n_rec):
    if outcome == _kernels.OUTCOME_BAD_HEIGHT:
        return "bad-height-at-start" if n_rec == 0 else "bad-height-at-touchdown"
    return {_kernels.OUTCOME_COMPLETED: "completed", _kernels.OUTCOME_REACH: "reach",
            _kernels.OUTCOME_NO_GROUND: "no-ground", _kernels.OUTCOME_OFF_MAP: "off-map",
            _kernels.OUTCOME_NON_FINITE: "non-finite"}[outcome]


class TestVelXOnlyMode:
    """sim_loop's vel_x-only mode, which sweep runs, against its full rows."""

    def test_matches_the_full_rows(self):
        kinds = []
        for cfg, schedule, expected in _seeded_runs():
            args, grid = loop_call(cfg, schedule)
            n_rec, outcome, fail_time, rows = _kernels.sim_loop(*args, grid=grid)
            n_vx, outcome_vx, fail_time_vx, vel_x = _kernels.sim_loop(*args, grid=grid,
                                                                      vel_x_only=True)
            assert (n_vx, outcome_vx, fail_time_vx) == (n_rec, outcome, fail_time)
            assert vel_x.dtype == np.float64 and vel_x.shape == (n_rec,)
            assert vel_x.tobytes() == rows[:, COL_VEL_X].tobytes()
            kinds.append(_kind(outcome, n_rec))
            assert expected in (None, kinds[-1])
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        assert counts == {"completed": 41, "reach": 20, "no-ground": 2, "off-map": 1,
                          "bad-height-at-start": 1, "bad-height-at-touchdown": 1,
                          "non-finite": 3}

    @pytest.mark.parametrize("window", ["tick", "duration"])
    def test_sweep_matches_per_trial_reference(self, tmp_path, window):
        cfgs = [config(vx=vx, duration=2.0, replan=replan, terrain=spec, reach=reach)
                for spec in _sweep_terrains(tmp_path).values()
                for replan in (sim_mod.REPLAN_AT_STEP_START, _EVERY)
                for vx, reach in ((0.6, 0.6), (1.0, 0.6), (2.5, 0.35))]
        w = 1e-12 if window == "tick" else 2.0
        successes = []
        for tolerance in (0.05, 0.35):
            rows = sweep(cfgs, 2, base_seed=3, window=w, tolerance=tolerance)
            assert rows == sweep_per_trial(cfgs, 2, base_seed=3, window=w,
                                           tolerance=tolerance)
            successes += [r.successes for r in rows]
        # not vacuous: some trials succeed and some fail
        assert 0 < sum(successes) < 2 * len(successes)


# The third step of an every-tick run on flat ground: its raw targets, the
# snap queries of that step, lie within 2e-15 m of each other
_EDGE_BASE = config(vx=0.8, duration=2.0, replan=_EVERY)
_EDGE_STEP = 2


def _edge_map(feature):
    """A loaded map on which the queries of _EDGE_BASE's third step all lie
    within 1e-15 m of a decision boundary of steppable(), and the node (i,
    j) that makes it: "cell-line", a cell line with two gap nodes on the
    cell beyond it (on a 0.1 m grid, so that the far corners of either cell
    lie outside the foot circle and the line alone decides); "foot-circle",
    the foot circle around a gap node; "max-dev", a node max_dev above h0
    on a sloped patch. Elsewhere the map is level at 0 with no gap, so the
    run's earlier steps, and with them the third step's queries, are those
    of the run on flat ground."""
    k = _EDGE_BASE.ticks_per_step
    rows = run(_EDGE_BASE).sample_array[_EDGE_STEP * k:(_EDGE_STEP + 1) * k]
    targets = rows[:, [COL_TARGET_X, COL_TARGET_Y]]
    qx, qy = ((targets.min(axis=0) + targets.max(axis=0)) / 2).tolist()
    res = 0.1 if feature == "cell-line" else 0.05
    i = j = 20 if res == 0.05 else 10
    if feature == "cell-line":
        nx, ny = qx, qy - 0.5 * res  # node (i, j) on the line, below the query
    elif feature == "foot-circle":
        nx, ny = qx + 0.06, qy + math.sqrt(FOOT_RADIUS ** 2 - 0.06 ** 2)
    else:
        nx, ny = qx + 0.06, qy + 0.01  # within the foot, not a cell corner
    origin = (nx - j * res, ny - i * res)
    heights = np.zeros((int(1.6 / res), int(3.0 / res)))
    mask = np.zeros(heights.shape, dtype=np.uint8)
    if feature == "cell-line":
        mask[i:i + 2, j + 1] = 1
    elif feature == "foot-circle":
        mask[i, j] = 1
    else:
        ys, xs = np.mgrid[0:heights.shape[0], 0:heights.shape[1]] * res + np.array(
            origin)[::-1, None, None]
        patch = (abs(xs - qx) <= 0.12) & (abs(ys - qy) <= 0.12)
        heights[patch] = (0.15 * (xs - qx) + 0.05 * (ys - qy))[patch]
        h0 = _kernels.grid_bilinear(
            terrain_mod.Heightmap(origin=origin, resolution=res, heights=heights,
                                  mask=mask).grid, qx, qy)
        heights[i, j] = h0 + _kernels.MAX_HEIGHT_DEV
    hmap = terrain_mod.Heightmap(origin=origin, resolution=res, heights=heights, mask=mask)
    return hmap, targets.tolist(), (i, j)


def _edge_config(feature):
    return replace(_EDGE_BASE, terrain=_edge_map(feature)[0])


class TestReferenceLoop:
    """sim_loop against tests/oracles.py::reference_run, the same loop one
    tick per iteration through the typed API: the 15 row columns byte for
    byte, the outcome and the failure time."""

    @staticmethod
    def _compare(cfg, schedule):
        args, grid = loop_call(cfg, schedule)
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(*args, grid=grid)
        ref_rows, ref_outcome, ref_fail_time = reference_run(cfg, schedule)
        assert rows.shape == ref_rows.shape
        assert rows.tobytes() == ref_rows.tobytes()
        assert (outcome, fail_time) == (ref_outcome, ref_fail_time)
        return _kind(outcome, n_rec)

    def test_seeded_runs(self):
        kinds = []
        for cfg, schedule, expected in _seeded_runs():
            kinds.append(self._compare(cfg, schedule))
            assert expected in (None, kinds[-1])
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        assert counts == {"completed": 41, "reach": 20, "no-ground": 2, "off-map": 1,
                          "bad-height-at-start": 1, "bad-height-at-touchdown": 1,
                          "non-finite": 3}

    # every tick is a step start: the parity is the tick itself
    _ONE_TICK_STEPS = replace(config(vx=0.5, duration=0.3, terrain=gap_spec()),
                              gait=GaitParams(step_duration=0.01))

    @pytest.mark.parametrize("cfg,turn,kind", [
        (_ONE_TICK_STEPS, None, "completed"),
        (_ONE_TICK_STEPS, (1.0, 0.155), "completed"),
        # stepping in place holds the fallback heading
        (replace(config(vx=0.0, duration=2.0, terrain=gap_spec()),
                 cmd=StepCommand(v_cmd=(0.0, 0.0), fallback_heading=2.0)), None, "completed"),
        # cosh(omega*dt) and the one-tick plan stay finite, the CoM step does not
        (replace(config(vx=1.0, duration=1.0), gait=GaitParams(step_duration=0.01),
                 lip=LipParams(g=3.1e9)), None, "non-finite"),
        # shorter than one step, and whole steps only: the last step's ticks
        # end at n_ticks
        (config(vx=0.8, duration=0.2, terrain=gap_spec()), None, "completed"),
        (config(vx=0.8, duration=0.2, replan=_EVERY, terrain=gap_spec()), None, "completed"),
        (config(vx=0.8, duration=0.7, terrain=gap_spec()), None, "completed"),
        (config(vx=0.8, duration=0.7, replan=_EVERY, terrain=gap_spec()), None, "completed"),
        # a step's queries within 1e-15 m of a cell line, of the foot circle
        # of a gap node, and of max_dev from a node: the query certificate
        # refuses (see test_edge_maps_make_the_certificate_refuse)
        (_edge_config("cell-line"), None, "completed"),
        (_edge_config("foot-circle"), None, "completed"),
        (_edge_config("max-dev"), None, "completed"),
    ], ids=["one-tick-steps", "one-tick-steps-turn", "zero-speed", "non-finite-after-step",
            "part-step", "part-step-every-tick", "whole-steps", "whole-steps-every-tick",
            "cell-line-every-tick", "foot-circle-every-tick", "max-dev-every-tick"])
    def test_edge_runs(self, cfg, turn, kind):
        schedule = sim_mod._constant_schedule(cfg)
        assert self._compare(cfg, schedule if turn is None else _turned(schedule, *turn)) == kind

    # omega*Ts = 444: the plan at the first touchdown predicts a capture
    # point beyond the float range, on flat ground or on a map whose nodes
    # lie 1e300 m apart; the run fails there, with finite rows
    @pytest.mark.parametrize("terrain", [
        None, terrain_mod.Heightmap(origin=(-1e300, -1e300), resolution=1e300,
                                    heights=np.zeros((3, 3)), mask=np.zeros((3, 3)))],
        ids=["flat", "map"])
    @pytest.mark.parametrize("replan", [sim_mod.REPLAN_AT_STEP_START, _EVERY])
    def test_non_finite_plan_fails_at_its_tick(self, terrain, replan):
        cfg = replace(config(vx=1.0, duration=5.0, replan=replan, terrain=terrain,
                             reach=1e300), lip=LipParams(g=1e6))
        schedule = sim_mod._constant_schedule(cfg)
        assert self._compare(cfg, schedule) == "non-finite"
        rows, _, fail_time = reference_run(cfg, schedule)
        assert fail_time == pytest.approx(0.35, abs=1e-9)
        assert len(rows) == 36 and np.isfinite(rows).all()

    @pytest.mark.parametrize("feature", ["cell-line", "foot-circle", "max-dev"])
    def test_edge_maps_make_the_certificate_refuse(self, feature, monkeypatch):
        hmap, queries, (i, j) = _edge_map(feature)
        grid = hmap.grid
        nx, ny = grid.ox + j * grid.res, grid.oy + i * grid.res
        for x, y in queries:
            if feature == "cell-line":
                off = abs(x - nx)
            elif feature == "foot-circle":
                off = abs(math.hypot(nx - x, ny - y) - FOOT_RADIUS)
            else:
                off = abs(abs(grid.h[i][j] - _kernels.grid_bilinear(grid, x, y))
                          - _kernels.MAX_HEIGHT_DEV)
            assert off < 1e-15, (x, y, off)
        scans = []  # the tick of each query scan
        real, real_snap = _kernels.steppable, _kernels.snap_to_steppable
        ticks = []

        def steppable_spy(*args):
            if len(args) > 5:
                scans.append(len(ticks) - 1)
            return real(*args)

        def snap_spy(*args):
            ticks.append(args[5:7])
            return real_snap(*args)

        monkeypatch.setattr(_kernels, "steppable", steppable_spy)
        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        cfg = replace(_EDGE_BASE, terrain=hmap)
        args, grid = loop_call(cfg, sim_mod._constant_schedule(cfg))
        n_rec, outcome, _, _ = _kernels.sim_loop(*args, grid=grid)
        k = cfg.ticks_per_step
        assert outcome == _kernels.OUTCOME_COMPLETED and len(ticks) == n_rec
        # the step's queries are those of the run on flat ground, and some
        # tick after its first rescans the query
        assert ticks[_EDGE_STEP * k:(_EDGE_STEP + 1) * k] == [tuple(q) for q in queries]
        assert any(_EDGE_STEP * k < t < (_EDGE_STEP + 1) * k for t in scans), scans

    @pytest.mark.parametrize("vx,vy,width,icp_farther", [(1.0, 0.0, 0.3, False),
                                                         (0.4, 0.9, 0.1, True)],
                             ids=["com", "capture-point"])
    def test_touchdown_at_the_reach_limit(self, vx, vy, width, icp_farther):
        # the first touchdown's farther point, the CoM or the capture point,
        # lies exactly at the limit: within reach
        cfg = config(vx=vx, vy=vy, width=width, duration=2.0)
        k = cfg.ticks_per_step
        r = run(cfg).sample_array[k].tolist()
        d_icp = math.hypot(r[COL_ICP_X] - r[COL_STANCE_X], r[COL_ICP_Y] - r[COL_STANCE_Y])
        d_com = math.hypot(r[COL_STANCE_X] - r[COL_COM_X], r[COL_STANCE_Y] - r[COL_COM_Y])
        assert (d_icp > d_com) == icp_farther
        cfg = replace(cfg, reach_limit=max(d_icp, d_com))
        self._compare(cfg, sim_mod._constant_schedule(cfg))
        assert run(cfg).sample_array.shape[0] > k + 1

    def test_gap_steps_search_once(self, monkeypatch):
        # every target of these steps lies in a gap, and within a step the
        # replanned target moves by about 1e-14 m: the step's first miss
        # searches, and its certificate answers the step's other ticks
        cfg = config(vx=0.7, duration=2.0, replan=_EVERY, terrain=gap_spec(offset=0.6))
        schedule = sim_mod._constant_schedule(cfg)
        moved, searched = [], []  # per snap (one a tick), and the tick of each search
        real_snap, real_search = _kernels.snap_to_steppable, _kernels._nearest_steppable_node

        def snap_spy(*args):
            found, sx, sy = real_snap(*args)
            moved.append(found and (sx, sy) != args[5:7])
            return found, sx, sy

        def search_spy(*args):
            searched.append(len(moved))
            return real_search(*args)

        monkeypatch.setattr(_kernels, "snap_to_steppable", snap_spy)
        monkeypatch.setattr(_kernels, "_nearest_steppable_node", search_spy)
        args, grid = loop_call(cfg, schedule)
        n_rec, outcome, _, _ = _kernels.sim_loop(*args, grid=grid)
        monkeypatch.undo()
        k = cfg.ticks_per_step
        assert outcome == _kernels.OUTCOME_COMPLETED and len(moved) == n_rec == 200
        gap_steps = [i for i in range(0, n_rec, k) if all(moved[i:i + k])]
        assert len(gap_steps) == 6
        for i in gap_steps:
            assert sum(i <= t < i + k for t in searched) == 1
        assert self._compare(cfg, schedule) == "completed"

    def test_snapped_target_ties_between_two_nodes(self):
        # a flat map with one gap of three node columns, centred on the raw
        # target of the second step: the nodes two columns beyond the gap on
        # either side, equally far, tie, and the tie goes to the smaller x
        cfg = config(vx=0.5, duration=1.5, replan=_EVERY)
        k = cfg.ticks_per_step
        raw_x, raw_y = run(cfg).sample_array[k, [COL_TARGET_X, COL_TARGET_Y]].tolist()
        res = 0.05
        mask = np.zeros((40, 80))
        mask[:, 20:23] = 1
        hmap = terrain_mod.Heightmap(origin=(raw_x - 21 * res, -1.0), resolution=res,
                                     heights=np.zeros((40, 80)), mask=mask)
        cfg = replace(cfg, terrain=hmap)
        left, right = hmap.grid.ox + 18 * res, hmap.grid.ox + 24 * res
        assert abs((raw_x - left) ** 2 - (right - raw_x) ** 2) < 1e-15
        assert self._compare(cfg, sim_mod._constant_schedule(cfg)) == "completed"
        rows = run(cfg).sample_array
        row = hmap.grid.oy + round((raw_y - hmap.grid.oy) / res) * res
        assert (rows[k:2 * k, [COL_TARGET_X, COL_TARGET_Y]] == [left, row]).all()


class TestInitialConditions:
    def test_custom_initial(self):
        cfg = config(vx=1.0, duration=2.0)
        state = LipState(com_pos=(1.0, 1.0), com_vel=(0.5, 0.0), params=cfg.lip)
        stance = FootPosition(p=(1.0, 0.85), z=0.0)
        res = run(cfg, initial=(state, stance))
        arr = res.sample_array
        npt.assert_array_equal(arr[0, COL_COM_X:COL_COM_Y + 1], [1.0, 1.0])
        npt.assert_array_equal(arr[0, COL_STANCE_X:COL_STANCE_Y + 1], [1.0, 0.85])

    def test_default_initial(self):
        res = run(config(vx=1.0, width=0.3, duration=1.0))
        arr = res.sample_array
        npt.assert_array_equal(arr[0, COL_COM_X:COL_COM_Y + 1], [0.0, 0.0])
        npt.assert_allclose(arr[0, COL_STANCE_X:COL_STANCE_Y + 1], [0.0, -0.15],
                            atol=1e-15)
