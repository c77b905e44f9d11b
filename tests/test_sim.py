import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (FootPosition, GaitParams, GaitState, IcpPoint, LipParams,
                     LipState, SimConfig, StepCommand, TerrainSpec,
                     contact_schedule, icp_trajectory, is_steppable, phase_clock,
                     plan_step, run, success_metric, sweep, turn_maneuver)
from liprint import _kernels
from liprint import sim as sim_mod
from liprint import terrain as terrain_mod
from liprint.gait import phase_signals
from liprint.planner import wrap_angle
from liprint._kernels import (COL_COM_X, COL_COM_Y, COL_CONTACT_SCHED, COL_ICP_X,
                              COL_ICP_Y, COL_PARITY, COL_PHASE_COS, COL_PHASE_SIN,
                              COL_STANCE_X, COL_STANCE_Y, COL_STANCE_Z,
                              COL_TARGET_HEADING, COL_TARGET_X, COL_TARGET_Y,
                              COL_TARGET_Z, COL_TIME, COL_VEL_X, COL_VEL_Y)

from oracles import (reference_run, sweep_per_trial, write_rewards_csv_per_value,
                     write_step_events_per_event, write_trajectory_csv_per_value)


def config(vx=1.0, vy=0.0, duration=10.0, replan=sim_mod.REPLAN_AT_STEP_START,
           terrain=None, reach=0.6, width=0.3):
    return SimConfig(cmd=StepCommand(v_cmd=(vx, vy), w_cmd=width),
                     total_duration=duration, replan=replan, terrain=terrain,
                     reach_limit=reach)


def gap_spec(width=0.15, period=0.8, offset=0.4):
    return TerrainSpec(kind="gap", gap_width=width, gap_period=period,
                       gap_offset=offset)


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
        ys = res.boundary_samples()[16:, COL_COM_Y]
        npt.assert_allclose(ys[2:], ys[:-2], atol=1e-9)

    def test_fast_command_completes(self):
        res = run(config(vx=2.0, reach=0.9))
        assert res.completed
        sel = res.sample_array[:, COL_TIME] >= 3 * 0.35
        assert res.sample_array[sel, COL_VEL_X].mean() == pytest.approx(2.0, rel=0.01)

    def test_per_step_icp_advance(self):
        for vx in (0.2, 0.5, 1.0, 1.5, 2.0):
            res = run(config(vx=vx, reach=0.9))
            b = res.boundary_samples()
            adv = np.diff(b[:, COL_ICP_X])
            npt.assert_allclose(adv[1:], vx * 0.35, atol=1e-9)

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
            npt.assert_array_equal(ev.realized[:2], ev.planned.p_d)
            assert ev.realized[2] == ev.planned.z_d

    def test_touchdown_within_reach(self):
        res = run(config(vx=2.0, reach=0.9))
        arr = res.sample_array
        b = res.boundary_samples()
        d = np.hypot(b[:, COL_ICP_X] - b[:, COL_STANCE_X],
                     b[:, COL_ICP_Y] - b[:, COL_STANCE_Y])
        assert d.max() <= 0.9

    def test_replan_modes_agree_on_flat(self):
        r1 = run(config(vx=1.0, replan=sim_mod.REPLAN_AT_STEP_START))
        r2 = run(config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK))
        td1 = np.array([ev.realized for ev in r1.step_events])
        td2 = np.array([ev.realized for ev in r2.step_events])
        npt.assert_allclose(td1, td2, atol=1e-9)
        sel = r2.sample_array[:, COL_TIME] >= 3 * 0.35
        assert r2.sample_array[sel, COL_VEL_X].mean() == pytest.approx(1.0, rel=0.01)


def planned_from_row(cfg, row, fallback_heading=0.0):
    """plan_step at a recorded sample, with the simulator's tick grid and the
    full step as horizon: the placement the simulator plans there, unsnapped."""
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
    return plan_step(state, stance, c, gait, horizon=Ts)


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
            assert row[COL_CONTACT_SCHED] == contact_schedule(g)
            assert (row[COL_PHASE_SIN], row[COL_PHASE_COS]) == phase_clock(g)


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
        npt.assert_array_equal(s[COL_STANCE_X:COL_STANCE_Y + 1],
                               res.step_events[0].realized[:2])


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

    def test_zero_turn_is_plain_run(self):
        r1 = run(config(vx=1.0, duration=5.0))
        r2 = turn_maneuver(config(vx=1.0, duration=5.0), 0.0, switch_time=2.0)
        npt.assert_array_equal(r1.sample_array, r2.sample_array)

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
            assert is_steppable(hmap, ev.realized[:2])

    def test_impassable_gap_fails(self):
        res = run(config(vx=1.0, terrain=gap_spec(width=2.0, period=0.1)))
        assert res.outcome == "failed"
        assert "steppable" in res.failure_reason
        assert res.failure_time == 0.0

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
        real = _kernels.steppable

        def spy(grid, x, y, radius, max_dev):
            calls.append((x, y))
            return real(grid, x, y, radius, max_dev)

        monkeypatch.setattr(_kernels, "steppable", spy)
        # gentle rough ground: every snap query is itself steppable, so the
        # one call per tick is the query's and no node is tested
        gentle = TerrainSpec(kind="rough", amplitude=0.005, correlation=0.5, seed=1)
        res = run(config(vx=1.0, duration=4.0, replan=sim_mod.REPLAN_EVERY_TICK,
                         terrain=gentle))
        assert res.completed and len(calls) == res.sample_array.shape[0]
        # gap ground moves targets on many ticks, and the misses of a run
        # share one memo: beyond one query per tick, each node is tested once
        calls.clear()
        cfg = config(vx=0.7, duration=4.0, replan=sim_mod.REPLAN_EVERY_TICK,
                     terrain=gap_spec())
        res = run(cfg)
        assert res.completed
        hmap = terrain_mod.generate(cfg.terrain,
                                    sim_mod._auto_extent(cfg, [(0.0, 0.7, 0.0, 0.3)]),
                                    sim_mod.TERRAIN_RESOLUTION)
        ox, oy, r = float(hmap.origin[0]), float(hmap.origin[1]), hmap.resolution
        nodes = [(x, y) for x, y in calls
                 if x == ox + round((x - ox) / r) * r and y == oy + round((y - oy) / r) * r]
        assert len(calls) - len(nodes) == res.sample_array.shape[0]
        assert len(nodes) == len(set(nodes)) > 0

    def test_rough_heights_filled_only_where_read(self, monkeypatch):
        # spies: the grid views sim builds, and every terrain.generate call
        grids, generate_calls = [], []
        real_grid, real_generate = terrain_mod.generate_grid, terrain_mod.generate

        def grid_spy(*args):
            grids.append(real_grid(*args))
            return grids[-1]

        def generate_spy(*args):
            generate_calls.append(args)
            return real_generate(*args)

        monkeypatch.setattr(terrain_mod, "generate_grid", grid_spy)
        monkeypatch.setattr(terrain_mod, "generate", generate_spy)
        rough = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=7)
        assert run(config(vx=1.0, duration=6.0, terrain=rough)).completed
        assert sweep([config(vx=1.0, duration=6.0, terrain=rough)], trials=1)[0].successes == 1
        assert len(grids) == 2 and generate_calls == []
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
        arr = res.sample_array
        assert last.time == res.failure_time == arr[-1, COL_TIME] > 0.0
        npt.assert_array_equal(last.realized, arr[-1, COL_STANCE_X:COL_STANCE_Z + 1])
        npt.assert_array_equal(last.planned.p_d, last.realized[:2])
        assert last.planned.z_d == last.realized[2]
        if case == "height":
            assert last.realized[2] >= cfg.lip.z0
        if case == "overflow":
            assert 0.0 < cfg.lip.z0 - last.realized[2] < 1e-12
            assert np.isfinite(arr).all()
        if case == "plan-overflow":
            assert 1e-12 < cfg.lip.z0 - last.realized[2] < 2e-6
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
        times = [ev.time for ev in res.step_events]
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
            planned = [ev.planned.heading for ev in res.step_events]
            assert np.array(logged).tobytes() == np.array(planned).tobytes()
            backward = planned
        assert backward and set(backward) == {math.pi}

    def test_sweep_builds_no_step_events(self, tmp_path, monkeypatch):
        built = []
        real_event = sim_mod.StepEvent

        def counting_event(*args, **kwargs):
            built.append(kwargs["time"])
            return real_event(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "StepEvent", counting_event)
        cfgs = [config(vx=vx, duration=2.0, terrain=spec, reach=reach)
                for spec in _sweep_terrains(tmp_path).values()
                for vx, reach in ((0.6, 0.6), (2.5, 0.35))]
        sweep(cfgs, trials=2, window=1.0)
        assert built == []
        # not vacuous: reading the events goes through the counter
        assert len(run(cfgs[0]).step_events) == len(built) > 0


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
        """One run set-up and one sim_loop per simulated trial."""
        seen = []
        loops = []
        real_loop_args = sim_mod._loop_args
        real_sim_loop = _kernels.sim_loop

        def counting_loop_args(cfg, schedule, initial=None):
            seen.append(cfg.terrain)
            return real_loop_args(cfg, schedule, initial)

        def counting_sim_loop(*args, **kwargs):
            loops.append(args)
            return real_sim_loop(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "_loop_args", counting_loop_args)
        monkeypatch.setattr(_kernels, "sim_loop", counting_sim_loop)
        for name, spec in _sweep_terrains(tmp_path).items():
            seen.clear()
            loops.clear()
            sweep([config(vx=0.6, duration=2.0, terrain=spec)], trials, window=1.0)
            assert len(loops) == len(seen)
            if name == "rough":
                assert len(seen) == trials
                assert len({t.seed for t in seen}) == trials  # one seed per trial
            else:
                assert seen == [spec] * min(trials, 1)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = config(vx=1.0, replan=sim_mod.REPLAN_EVERY_TICK, terrain=gap_spec())
        r1 = run(cfg)
        r2 = run(cfg)
        npt.assert_array_equal(r1.sample_array, r2.sample_array)
        assert [tuple(e.realized) for e in r1.step_events] == \
               [tuple(e.realized) for e in r2.step_events]


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

    @pytest.mark.parametrize("n", [0, 1, 300, sim_mod.CSV_BLOCK_ROWS - 1,
                                   sim_mod.CSV_BLOCK_ROWS, sim_mod.CSV_BLOCK_ROWS + 1])
    def test_rewards_csv(self, n, tmp_path):
        rng = np.random.default_rng(n)
        columns = list(_random_samples(rng, n)[:, :17].T)
        header = [f"c{i}" for i in range(17)]
        sim_mod.write_csv(tmp_path / "new.csv", header, np.column_stack(columns))
        write_rewards_csv_per_value(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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


class TestSimLoopRows:
    def test_returns_recorded_rows(self):
        cfg = config(vx=1.0, reach=0.05)
        res = run(cfg)
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            cfg.n_ticks, cfg.dt, cfg.ticks_per_step, cfg.lip.g, cfg.lip.z0,
            [(0, 1.0, 0.0, 0.3)], False, cfg.reach_limit, None,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0)
        assert outcome == _kernels.OUTCOME_REACH and fail_time == res.failure_time
        assert rows.shape == (n_rec, COL_PARITY + 1) == (res.sample_array.shape[0], 15)
        npt.assert_array_equal(rows, res.sample_array[:, :COL_PARITY + 1])

    def test_bad_height_at_start_records_no_rows(self):
        hmap = loaded_map(step_height=0.0)
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            10, 0.01, 35, 9.81, 0.0, [(0, 1.0, 0.0, 0.3)], False, 0.6, hmap.grid,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0)
        assert (n_rec, outcome, fail_time) == (0, _kernels.OUTCOME_BAD_HEIGHT, 0.0)
        assert rows.shape == (0, COL_PARITY + 1)

    @pytest.mark.parametrize("g,z0", [(1e300, 0.62), (9.81, 1e-300)])
    def test_overflow_at_start_records_no_rows(self, g, z0):
        # cosh(omega * dt) overflows before the first tick: a failed run, as
        # a non-positive pendulum height gives
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(
            10, 0.01, 35, g, z0, [(0, 1.0, 0.0, 0.3)], False, 0.6, None,
            0.0, 0.0, 0.0, 0.0, 0.0, -0.15, 0.0)
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

        def spy(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(_kernels, "sim_loop", spy)
        # the default initial state and the command are numpy arrays
        assert sim_mod.turn_maneuver(config(vx=0.7, duration=1.0, terrain=gap_spec()),
                                     0.5, 0.5).completed
        (args,) = calls
        schedule, grid, state = args[5], args[8], args[9:]
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
            _kernels.OUTCOME_NO_GROUND: "no-ground",
            _kernels.OUTCOME_NON_FINITE: "non-finite"}[outcome]


class TestVelXOnlyMode:
    """sim_loop's vel_x-only mode, which sweep runs, against its full rows."""

    def test_matches_the_full_rows(self):
        kinds = []
        for cfg, schedule, expected in _seeded_runs():
            args = sim_mod._loop_args(cfg, schedule)
            n_rec, outcome, fail_time, rows = _kernels.sim_loop(*args)
            n_vx, outcome_vx, fail_time_vx, vel_x = _kernels.sim_loop(*args, vel_x_only=True)
            assert (n_vx, outcome_vx, fail_time_vx) == (n_rec, outcome, fail_time)
            assert vel_x.dtype == np.float64 and vel_x.shape == (n_rec,)
            assert vel_x.tobytes() == rows[:, COL_VEL_X].tobytes()
            kinds.append(_kind(outcome, n_rec))
            assert expected in (None, kinds[-1])
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        assert counts == {"completed": 41, "reach": 20, "no-ground": 2,
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


class TestReferenceLoop:
    """sim_loop against tests/oracles.py::reference_run, the same loop one
    tick per iteration through the typed API: the 15 row columns byte for
    byte, the outcome and the failure time."""

    @staticmethod
    def _compare(cfg, schedule):
        n_rec, outcome, fail_time, rows = _kernels.sim_loop(*sim_mod._loop_args(cfg, schedule))
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
        assert counts == {"completed": 41, "reach": 20, "no-ground": 2,
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
    ], ids=["one-tick-steps", "one-tick-steps-turn", "zero-speed", "non-finite-after-step"])
    def test_edge_runs(self, cfg, turn, kind):
        schedule = sim_mod._constant_schedule(cfg)
        assert self._compare(cfg, schedule if turn is None else _turned(schedule, *turn)) == kind

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
        n_rec, outcome, _, _ = _kernels.sim_loop(*sim_mod._loop_args(cfg, schedule))
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
