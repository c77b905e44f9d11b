import math

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (FootPosition, GaitParams, GaitState, LipParams,
                     LipState, PlannedStep, StepCommand, com_trajectory, icp_of,
                     icp_trajectory, plan_step)
from liprint import _kernels
from liprint._kernels import command_heading, offset_pair
from liprint.planner import wrap_angle

from oracles import bisect_offsets, plan_placement_inline

W_TABLE = 3.97776
TS = 0.35


def params_for(w=W_TABLE):
    return LipParams(g=9.81, z0=9.81 / w ** 2)


def gait_at(t=0.0, parity=0, Ts=TS):
    return GaitState(t=t, parity=parity, params=GaitParams(Ts))


def cmd(vx, vy=0.0, w=0.3):
    return StepCommand(v_cmd=(vx, vy), w_cmd=w)


def cmd_heading(c: StepCommand) -> float:
    """The command's heading as plan_step's placement takes it."""
    return command_heading(c.v_cmd[0], c.v_cmd[1], c.fallback_heading)


def placed_bx(c: StepCommand) -> float:
    """b_x of the placement's offsets over TS for a forward command (heading
    0 leaves it unrotated): offset_pair's b_x of the step length it takes."""
    return _kernels.placement_offsets(W_TABLE, TS, c.v_cmd[0], c.v_cmd[1], c.w_cmd, 0, 0.0)[0]


class TestStepLengthWidth:
    """The step length |v_cmd| * Ts, as the placement takes it."""

    def test_unit_command(self):
        assert placed_bx(cmd(1.0)) == offset_pair(0.35, 0.3, W_TABLE, 0.35)[0]

    def test_zero_command(self):
        assert placed_bx(cmd(0.0)) == offset_pair(0.0, 0.3, W_TABLE, TS)[0] == 0.0

    def test_max_command(self):
        assert placed_bx(cmd(2.0)) == offset_pair(0.70, 0.3, W_TABLE, 0.35)[0]


class TestPredictFinalIcp:
    # the capture point the planner places from: placement_at with zero
    # offsets is the prediction alone
    NO_OFFSET = (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_zero_remaining(self):
        xi = _kernels.placement_at(0.2, 0.1, 0.0, 0.0, W_TABLE, 0.0, self.NO_OFFSET)
        npt.assert_array_equal(xi, [0.2, 0.1])

    def test_fixed_point(self):
        xi = _kernels.placement_at(0.1, -0.3, 0.1, -0.3, W_TABLE, 0.35, self.NO_OFFSET)
        npt.assert_allclose(xi, [0.1, -0.3], rtol=1e-12)
        # plan_step from a capture point on the stance foot places the
        # offsets about the foot itself
        p = params_for()
        foot = FootPosition(p=(0.1, -0.3))
        state = LipState(com_pos=foot.p, com_vel=(0.0, 0.0), params=p)
        step = plan_step(state, foot, cmd(1.0), gait_at())
        bx, by = offset_pair(0.35, 0.3, p.omega0, TS)
        npt.assert_allclose(step.p_d, [0.1 - bx, -0.3 + by], rtol=1e-12)


class TestOffsets:
    def test_table_values(self):
        bx, by = offset_pair(0.35, 0.3, W_TABLE, 0.35)
        e = math.exp(W_TABLE * 0.35)
        assert bx == pytest.approx(0.35 / (e - 1.0), abs=1e-15)
        assert by == pytest.approx(0.3 / (e + 1.0), abs=1e-15)
        assert bx == pytest.approx(0.115752, abs=5e-6)
        assert by == pytest.approx(0.059718, abs=5e-6)

    def test_zero_command(self):
        assert offset_pair(0.0, 0.0, W_TABLE, 0.35) == (0.0, 0.0)

    def test_small_dT_limit(self):
        # with s_d = |v| dT the x offset tends to |v|/omega0, the y offset to 0
        for dT in (1e-6, 1e-8):
            bx, by = offset_pair(1.0 * dT, 0.3 * dT / TS, W_TABLE, dT)
            assert bx == pytest.approx(1.0 / W_TABLE, rel=1e-5)
            assert by == pytest.approx(0.0, abs=1e-6)
        assert offset_pair(1e-6, 0.3 * 1e-6 / TS, W_TABLE, 1e-6)[0] == pytest.approx(
            0.251397, abs=1e-6)

    def test_zero_dT(self):
        bx, by = offset_pair(0.0, 0.2, W_TABLE, 0.0)
        assert bx == 0.0
        assert by == pytest.approx(0.1, abs=1e-15)  # w_d / 2 limit

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s_d = rng.uniform(0.0, 0.7)
            w_d = rng.uniform(0.0, 0.4)
            w = rng.uniform(2.0, 6.0)
            dT = rng.uniform(0.05, 0.5)
            bx_ref, by_ref = bisect_offsets(s_d, w_d, w, dT)
            bx, by = offset_pair(s_d, w_d, w, dT)
            assert bx == pytest.approx(bx_ref, abs=1e-9)
            assert by == pytest.approx(by_ref, abs=1e-9)


class TestTurningAngle:
    def test_cardinal_directions(self):
        assert cmd_heading(cmd(1.0, 0.0)) == 0.0
        assert cmd_heading(cmd(0.0, 1.0)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_full_quadrant(self):
        assert cmd_heading(cmd(-1.0, 1.0)) == pytest.approx(3 * math.pi / 4,
                                                              abs=1e-15)
        assert cmd_heading(cmd(-1.0, 0.0)) == pytest.approx(math.pi, abs=1e-15)

    def test_zero_velocity_holds_fallback(self):
        c = StepCommand(v_cmd=(0.0, 0.0), w_cmd=0.3, fallback_heading=0.7)
        assert cmd_heading(c) == pytest.approx(0.7, abs=1e-15)
        assert cmd_heading(cmd(0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("vy", [-0.0, 0.0])
    def test_signed_zero_lateral_never_gives_minus_pi(self, vy):
        # a backward command is a half turn whatever the sign of its zero
        for vx in (-1.0, -1e-3, -0.0, 0.0, 1e-3, 1.0):
            h = _kernels.command_heading(vx, vy, 0.5)
            assert -math.pi < h <= math.pi and (vx >= 0.0 or h == math.pi)
        assert cmd_heading(cmd(-1.0, vy)) == math.pi

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fallback_heading_rejected(self, bad):
        with pytest.raises(ValueError, match="fallback heading must be finite"):
            StepCommand(v_cmd=(0.0, 0.0), fallback_heading=bad)

    def test_fallback_heading_stored_wrapped(self):
        c = StepCommand(v_cmd=(0.0, 0.0), fallback_heading=7.0)
        assert c.fallback_heading == 7.0 - 2.0 * math.pi
        assert cmd_heading(c) == c.fallback_heading


class TestWrapAngle:
    @pytest.mark.parametrize("a,wrapped", [
        (1.5 * math.pi, -0.5 * math.pi),  # above pi: one turn down
        (-1.5 * math.pi, 0.5 * math.pi),  # below -pi: one turn up
        (-math.pi, math.pi),  # the open end maps to the closed one
        (math.pi, math.pi),
    ])
    def test_wraps_into_half_open_interval(self, a, wrapped):
        assert wrap_angle(a) == pytest.approx(wrapped, abs=1e-15)

    def test_planned_step_heading_is_wrapped(self):
        step = PlannedStep(p_d=(0.0, 0.0), heading=4.0, parity=0)
        assert step.heading == 4.0 - 2.0 * math.pi


class TestPlanStep:
    def test_in_place_plan(self):
        # at rest above the stance foot: target is b_y to the left of the foot
        p = params_for()
        foot = FootPosition(p=(0.2, -0.1))
        state = LipState(com_pos=foot.p, com_vel=(0.0, 0.0), params=p)
        step = plan_step(state, foot, cmd(0.0), gait_at())
        by = offset_pair(0.0, 0.3, p.omega0, TS)[1]
        npt.assert_allclose(step.p_d, [0.2, -0.1 + by], atol=1e-12)
        assert step.p_d[1] - foot.p[1] == pytest.approx(0.059718, abs=5e-6)
        assert step.parity == 0
        assert step.heading == 0.0

    def test_forward_plan_componentwise(self):
        # gamma = 0 reduces to the unrotated component formula exactly
        p = params_for()
        foot = FootPosition(p=(0.0, -0.15))
        state = LipState(com_pos=(0.02, 0.01), com_vel=(0.5, -0.1), params=p)
        for parity in (0, 1):
            step = plan_step(state, foot, cmd(1.0, 0.0), gait_at(parity=parity))
            xi_f = icp_trajectory(icp_of(state), foot, p.omega0, TS)
            bx, by = offset_pair(0.35, 0.3, p.omega0, TS)
            sign = 1.0 if parity % 2 == 0 else -1.0
            assert step.p_d[0] == xi_f.xi[0] - bx
            assert step.p_d[1] == xi_f.xi[1] + sign * by

    def test_pure_lateral_is_rotated_forward_plan(self):
        p = params_for()
        foot = FootPosition(p=(0.0, 0.0))
        at_rest = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=p)
        fwd = plan_step(at_rest, foot, cmd(1.0, 0.0), gait_at())
        lat = plan_step(at_rest, foot, cmd(0.0, 1.0), gait_at())
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        xi_f = icp_trajectory(icp_of(at_rest), foot, p.omega0, TS).xi
        npt.assert_allclose(lat.p_d, xi_f + rot @ (fwd.p_d - xi_f), atol=1e-12)
        assert lat.heading == pytest.approx(math.pi / 2, abs=1e-15)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(3)
        p = params_for()
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            pos = rng.uniform(-0.3, 0.3, 2)
            vel = rng.uniform(-1.0, 1.0, 2)
            foot = rng.uniform(-0.3, 0.3, 2)
            v = rng.uniform(0.2, 1.5, 2)
            parity = int(rng.integers(0, 2))
            base = plan_step(LipState(com_pos=pos, com_vel=vel, params=p),
                             FootPosition(p=foot), StepCommand(v_cmd=v),
                             gait_at(parity=parity))
            rotated = plan_step(
                LipState(com_pos=rot @ pos, com_vel=rot @ vel, params=p),
                FootPosition(p=rot @ foot), StepCommand(v_cmd=rot @ v),
                gait_at(parity=parity))
            npt.assert_allclose(rotated.p_d, rot @ base.p_d, atol=1e-10)
            assert wrap_angle(rotated.heading - base.heading - theta) == \
                pytest.approx(0.0, abs=1e-10)

    def test_small_remaining_time_continuity(self):
        p = params_for()
        foot = FootPosition(p=(0.0, -0.15))
        state = LipState(com_pos=(0.02, 0.01), com_vel=(0.6, 0.0), params=p)
        plans = {}
        for dT in (1e-6, 1e-8):
            g = gait_at(t=TS - dT)
            plans[dT] = plan_step(state, foot, cmd(1.0), g).p_d
        xi_f = icp_of(state).xi  # dT -> 0 prediction collapses onto the state
        # the offsets stay those over TS: parity 0 places b_y to the left
        bx, by = offset_pair(1.0 * TS, 0.3, p.omega0, TS)
        limit = np.array([xi_f[0] - bx, xi_f[1] + by])
        npt.assert_allclose(plans[1e-6], limit, atol=1e-5)
        npt.assert_allclose(plans[1e-8], limit, atol=1e-7)


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


class TestPlacementSplit:
    """The placement as the simulator makes it, placement_offsets once per
    step and at each command switch, then placement_at every tick, against
    the formula evaluated whole on every call. plan_step makes the same two
    calls, and is checked against the simulator in test_sim."""

    def test_split_equals_inline_plan(self):
        rng = np.random.default_rng(29)
        n_zero_speed = n_odd = n_overflow = 0
        for draw in range(600):
            k = int(rng.integers(2, 40))
            Ts = float(rng.uniform(0.2, 0.6))
            dt = Ts / k
            # omega*Ts log-uniform in [0.5, 2000]: expm1 and exp overflow
            # beyond 709.78, at every tick of the step alike
            omega = float(10 ** rng.uniform(-0.3, 3.3)) / Ts
            parity = int(rng.integers(0, 9))
            commands = []
            for _ in range(2):
                speed = float(rng.choice([0.0, 1e-7, 10 ** rng.uniform(-3, 0.5)]))
                a = float(rng.uniform(-math.pi, math.pi))
                commands.append((speed * math.cos(a), speed * math.sin(a),
                                 float(rng.uniform(0.05, 0.5))))
            switch = int(rng.integers(1, k))  # the tick of a mid-step switch
            heading = float(rng.uniform(-math.pi, math.pi))
            st_x, st_y = rng.uniform(-2.0, 2.0, 2).tolist()
            n_zero_speed += math.hypot(*commands[0][:2]) < _kernels.ZERO_SPEED
            n_odd += parity % 2
            for s in range(k):
                vx, vy, w = commands[s >= switch]
                icp_x, icp_y = rng.uniform(-2.0, 2.0, 2).tolist()
                dt_pred = Ts - s * dt
                args = (icp_x, icp_y, st_x, st_y, omega, dt_pred, Ts, vx, vy, w, parity, heading)
                try:
                    ref = plan_placement_inline(*args)
                except OverflowError:
                    # the same call raises in both forms, at the step's first tick
                    assert s == 0
                    with pytest.raises(OverflowError):
                        _kernels.placement_offsets(omega, Ts, vx, vy, w, parity, heading)
                    n_overflow += 1
                    break
                if s in (0, switch):
                    offsets = _kernels.placement_offsets(omega, Ts, vx, vy, w, parity, heading)
                x, y = _kernels.placement_at(icp_x, icp_y, st_x, st_y, omega, dt_pred, offsets)
                assert _bits(x, y, offsets[4]) == _bits(*ref), (draw, s)
                heading = ref[2]
        assert n_zero_speed > 50 and n_odd > 200 and 50 < n_overflow < 300


class TestStepRecurrence:
    def test_exact_step_length_advance(self):
        # placing the foot at xi_f - b_x makes the next equal-duration step
        # advance the capture point by exactly s_d
        rng = np.random.default_rng(11)
        p = params_for()
        for _ in range(25):
            state = LipState(com_pos=rng.uniform(-0.2, 0.2, 2),
                             com_vel=rng.uniform(-1.0, 1.0, 2), params=p)
            foot = FootPosition(p=rng.uniform(-0.2, 0.2, 2))
            speed = rng.uniform(0.1, 2.0)
            step = plan_step(state, foot, cmd(speed), gait_at())
            s_d = speed * TS
            xi_f = icp_trajectory(icp_of(state), foot, p.omega0, TS)
            xi_next = icp_trajectory(xi_f, FootPosition(p=step.p_d), p.omega0, TS)
            assert xi_next.xi[0] - xi_f.xi[0] == pytest.approx(s_d, abs=1e-9)

    def test_advance_is_step_length_at_any_remaining_time(self):
        # planned at any time of the step, the foot makes the next step of
        # duration Ts advance the capture point by |v| * Ts in the walking
        # frame; the prediction xi_f over the remaining time dT is numpy's
        rng = np.random.default_rng(37)
        n_early = 0
        for draw in range(400):
            Ts = float(rng.uniform(0.2, 0.6))
            dT = Ts if draw % 8 == 0 else float(rng.uniform(0.0, Ts)) or Ts
            n_early += dT < Ts
            p = LipParams(g=9.81, z0=float(rng.uniform(0.4, 1.2)))
            state = LipState(com_pos=rng.uniform(-0.3, 0.3, 2),
                             com_vel=rng.uniform(-1.0, 1.0, 2), params=p)
            foot = FootPosition(p=rng.uniform(-0.3, 0.3, 2))
            speed, angle = rng.uniform(0.1, 2.0), rng.uniform(-math.pi, math.pi)
            c = StepCommand(v_cmd=(speed * math.cos(angle), speed * math.sin(angle)),
                            w_cmd=float(rng.uniform(0.1, 0.4)))
            g = GaitState(t=Ts - dT, parity=int(rng.integers(0, 6)), params=GaitParams(Ts))
            step = plan_step(state, foot, c, g)
            e = np.exp(p.omega0 * (Ts - g.t))
            xi_f = e * (state.com_pos + state.com_vel / p.omega0) + (1.0 - e) * foot.p
            ch, sh = np.cos(step.heading), np.sin(step.heading)
            d = xi_f - step.p_d
            advance = np.expm1(p.omega0 * Ts) * (ch * d[0] + sh * d[1])
            assert advance == pytest.approx(math.hypot(*c.v_cmd) * Ts, rel=1e-12), draw
        assert n_early > 300

    def test_lateral_alternation_steady_gait(self):
        # closed loop with lip_core + planner only: at each step start the
        # capture point sits b_y from the stance foot, sign alternating
        p = params_for()
        Ts = TS
        command = cmd(0.8)
        state = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=p)
        foot = FootPosition(p=(0.0, -0.15))
        by = offset_pair(0.8 * Ts, 0.3, p.omega0, Ts)[1]
        for n in range(9):
            step = plan_step(state, foot, command, gait_at(parity=n))
            state = com_trajectory(state, foot, Ts)
            foot = FootPosition(p=step.p_d)
            if n >= 3:
                xi = icp_of(state).xi
                lateral = xi[1] - foot.p[1]
                expected_sign = 1.0 if (n + 1) % 2 == 0 else -1.0
                assert lateral == pytest.approx(expected_sign * by, abs=1e-9)


class TestValidation:
    @pytest.mark.parametrize("call,message", [
        (lambda: cmd(1.0, w=0.0), "step width command must be positive"),
        (lambda: cmd(1.0, w=math.inf), "step width command must be positive"),
        # each component is finite, the speed is not
        (lambda: cmd(1.7e308, 1.7e308),
         r"commanded speed overflows: \|\(1.7e\+308, 1.7e\+308\)\| is not finite"),
        # the speed is finite, the step length |v_cmd| * Ts is not
        (lambda: plan_step(LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=params_for()),
                           FootPosition(p=(0.0, -0.15)), cmd(1e308), gait_at(Ts=2.0)),
         r"step length overflows: speed 1e\+308 m/s times step duration 2.0 s is not finite")])
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
