import math

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (FootPosition, GaitParams, GaitState, IcpPoint, LipParams,
                     LipState, PlannedStep, StepCommand, com_trajectory, desired_step_length,
                     desired_step_width, icp_of, icp_trajectory, offsets,
                     plan_step, predict_final_icp, turning_angle)
from liprint import _kernels
from liprint.planner import wrap_angle

from oracles import bisect_offsets

W_TABLE = 3.97776
TS = 0.35


def params_for(w=W_TABLE):
    return LipParams(g=9.81, z0=9.81 / w ** 2)


def gait_at(t=0.0, parity=0, Ts=TS):
    return GaitState(t=t, parity=parity, params=GaitParams(Ts))


def cmd(vx, vy=0.0, w=0.3):
    return StepCommand(v_cmd=(vx, vy), w_cmd=w)


class TestStepLengthWidth:
    def test_unit_command(self):
        assert desired_step_length(cmd(1.0), 0.35) == pytest.approx(0.35, abs=1e-15)

    def test_zero_command(self):
        assert desired_step_length(cmd(0.0), 0.2) == 0.0

    def test_max_command(self):
        assert desired_step_length(cmd(2.0), 0.35) == pytest.approx(0.70, abs=1e-15)

    def test_width_full_step(self):
        assert desired_step_width(0.3, TS, TS) == pytest.approx(0.3, abs=1e-15)

    def test_width_half_step(self):
        assert desired_step_width(0.3, TS / 2, TS) == pytest.approx(0.15, abs=1e-15)

    def test_width_vanishes(self):
        assert desired_step_width(0.3, 1e-9, TS) == pytest.approx(0.0, abs=1e-9)


class TestPredictFinalIcp:
    def test_zero_remaining(self):
        xi = predict_final_icp(IcpPoint(xi=(0.2, 0.1)), FootPosition(p=(0.0, 0.0)),
                               W_TABLE, 0.0)
        npt.assert_array_equal(xi.xi, [0.2, 0.1])

    def test_fixed_point(self):
        xi = predict_final_icp(IcpPoint(xi=(0.1, -0.3)), FootPosition(p=(0.1, -0.3)),
                               W_TABLE, 0.35)
        npt.assert_allclose(xi.xi, [0.1, -0.3], rtol=1e-12)

    def test_delegates_to_icp_trajectory(self):
        xi0 = IcpPoint(xi=(0.0597, 0.0597))
        foot = FootPosition(p=(0.0, 0.0))
        got = predict_final_icp(xi0, foot, W_TABLE, 0.35)
        ref = icp_trajectory(xi0, foot, W_TABLE, 0.35)
        npt.assert_array_equal(got.xi, ref.xi)
        expected = 0.0597 * math.exp(W_TABLE * 0.35)
        npt.assert_allclose(got.xi, [expected, expected], atol=1e-12)
        assert got.xi[0] == pytest.approx(0.240216, abs=1e-5)


class TestOffsets:
    def test_table_values(self):
        b = offsets(0.35, 0.3, W_TABLE, 0.35)
        e = math.exp(W_TABLE * 0.35)
        assert b.b_x == pytest.approx(0.35 / (e - 1.0), abs=1e-15)
        assert b.b_y == pytest.approx(0.3 / (e + 1.0), abs=1e-15)
        assert b.b_x == pytest.approx(0.115752, abs=5e-6)
        assert b.b_y == pytest.approx(0.059718, abs=5e-6)

    def test_zero_command(self):
        b = offsets(0.0, 0.0, W_TABLE, 0.35)
        assert b.b_x == 0.0 and b.b_y == 0.0

    def test_small_dT_limit(self):
        # with s_d = |v| dT the x offset tends to |v|/omega0, the y offset to 0
        for dT in (1e-6, 1e-8):
            b = offsets(1.0 * dT, 0.3 * dT / TS, W_TABLE, dT)
            assert b.b_x == pytest.approx(1.0 / W_TABLE, rel=1e-5)
            assert b.b_y == pytest.approx(0.0, abs=1e-6)
        assert offsets(1e-6, 0.3 * 1e-6 / TS, W_TABLE, 1e-6).b_x == pytest.approx(
            0.251397, abs=1e-6)

    def test_zero_dT(self):
        b = offsets(0.0, 0.2, W_TABLE, 0.0)
        assert b.b_x == 0.0
        assert b.b_y == pytest.approx(0.1, abs=1e-15)  # w_d / 2 limit
        with pytest.raises(ValueError):
            offsets(0.1, 0.2, W_TABLE, 0.0)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s_d = rng.uniform(0.0, 0.7)
            w_d = rng.uniform(0.0, 0.4)
            w = rng.uniform(2.0, 6.0)
            dT = rng.uniform(0.05, 0.5)
            bx_ref, by_ref = bisect_offsets(s_d, w_d, w, dT)
            b = offsets(s_d, w_d, w, dT)
            assert b.b_x == pytest.approx(bx_ref, abs=1e-9)
            assert b.b_y == pytest.approx(by_ref, abs=1e-9)


class TestTurningAngle:
    def test_cardinal_directions(self):
        assert turning_angle(cmd(1.0, 0.0)) == 0.0
        assert turning_angle(cmd(0.0, 1.0)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_full_quadrant(self):
        assert turning_angle(cmd(-1.0, 1.0)) == pytest.approx(3 * math.pi / 4,
                                                              abs=1e-15)
        assert turning_angle(cmd(-1.0, 0.0)) == pytest.approx(math.pi, abs=1e-15)

    def test_zero_velocity_holds_fallback(self):
        c = StepCommand(v_cmd=(0.0, 0.0), w_cmd=0.3, fallback_heading=0.7)
        assert turning_angle(c) == pytest.approx(0.7, abs=1e-15)
        assert turning_angle(cmd(0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("vy", [-0.0, 0.0])
    def test_signed_zero_lateral_never_gives_minus_pi(self, vy):
        # a backward command is a half turn whatever the sign of its zero
        for vx in (-1.0, -1e-3, -0.0, 0.0, 1e-3, 1.0):
            h = _kernels.command_heading(vx, vy, 0.5)
            assert -math.pi < h <= math.pi and (vx >= 0.0 or h == math.pi)
        assert turning_angle(cmd(-1.0, vy)) == math.pi

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fallback_heading_rejected(self, bad):
        with pytest.raises(ValueError, match="fallback heading must be finite"):
            StepCommand(v_cmd=(0.0, 0.0), fallback_heading=bad)

    def test_fallback_heading_stored_wrapped(self):
        c = StepCommand(v_cmd=(0.0, 0.0), fallback_heading=7.0)
        assert c.fallback_heading == 7.0 - 2.0 * math.pi
        assert turning_angle(c) == c.fallback_heading


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
        step = PlannedStep(p_d=(0.0, 0.0), z_d=0.0, heading=4.0, parity=0)
        assert step.heading == 4.0 - 2.0 * math.pi


class TestPlanStep:
    def test_in_place_plan(self):
        # at rest above the stance foot: target is b_y to the left of the foot
        p = params_for()
        foot = FootPosition(p=(0.2, -0.1))
        state = LipState(com_pos=foot.p, com_vel=(0.0, 0.0), params=p)
        step = plan_step(state, foot, cmd(0.0), gait_at())
        b = offsets(0.0, 0.3, p.omega0, TS)
        npt.assert_allclose(step.p_d, [0.2, -0.1 + b.b_y], atol=1e-12)
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
            xi_f = predict_final_icp(icp_of(state), foot, p.omega0, TS)
            b = offsets(0.35, 0.3, p.omega0, TS)
            sign = 1.0 if parity % 2 == 0 else -1.0
            assert step.p_d[0] == xi_f.xi[0] - b.b_x
            assert step.p_d[1] == xi_f.xi[1] + sign * b.b_y

    def test_pure_lateral_is_rotated_forward_plan(self):
        p = params_for()
        foot = FootPosition(p=(0.0, 0.0))
        at_rest = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=p)
        fwd = plan_step(at_rest, foot, cmd(1.0, 0.0), gait_at())
        lat = plan_step(at_rest, foot, cmd(0.0, 1.0), gait_at())
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        xi_f = predict_final_icp(icp_of(at_rest), foot, p.omega0, TS).xi
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
        limit = np.array([xi_f[0] - 1.0 / p.omega0, xi_f[1]])
        npt.assert_allclose(plans[1e-6], limit, atol=1e-5)
        npt.assert_allclose(plans[1e-8], limit, atol=1e-7)

    def test_horizon_overrides_offset_span(self):
        p = params_for()
        foot = FootPosition(p=(0.0, -0.15))
        state = LipState(com_pos=(0.05, 0.0), com_vel=(0.8, 0.0), params=p)
        g = gait_at(t=0.2)
        literal = plan_step(state, foot, cmd(1.0), g)
        held = plan_step(state, foot, cmd(1.0), g, horizon=TS)
        xi_f = predict_final_icp(icp_of(state), foot, p.omega0, TS - 0.2)
        b = offsets(0.35, 0.3, p.omega0, TS)
        npt.assert_allclose(held.p_d, [xi_f.xi[0] - b.b_x, xi_f.xi[1] + b.b_y],
                            atol=1e-12)
        assert held.p_d[0] > literal.p_d[0]  # literal offsets grow as dT shrinks
        # at a step start the two parameterizations coincide
        npt.assert_array_equal(
            plan_step(state, foot, cmd(1.0), gait_at()).p_d,
            plan_step(state, foot, cmd(1.0), gait_at(), horizon=TS).p_d)


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
            xi_f = predict_final_icp(icp_of(state), foot, p.omega0, TS)
            xi_next = icp_trajectory(xi_f, FootPosition(p=step.p_d), p.omega0, TS)
            assert xi_next.xi[0] - xi_f.xi[0] == pytest.approx(s_d, abs=1e-9)

    def test_lateral_alternation_steady_gait(self):
        # closed loop with lip_core + planner only: at each step start the
        # capture point sits b_y from the stance foot, sign alternating
        p = params_for()
        Ts = TS
        command = cmd(0.8)
        state = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=p)
        foot = FootPosition(p=(0.0, -0.15))
        b = offsets(0.8 * Ts, 0.3, p.omega0, Ts)
        for n in range(9):
            step = plan_step(state, foot, command, gait_at(parity=n))
            state = com_trajectory(state, foot, Ts)
            foot = FootPosition(p=step.p_d)
            if n >= 3:
                xi = icp_of(state).xi
                lateral = xi[1] - foot.p[1]
                expected_sign = 1.0 if (n + 1) % 2 == 0 else -1.0
                assert lateral == pytest.approx(expected_sign * b.b_y, abs=1e-9)


def _plan_at_rest(horizon):
    state = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=params_for())
    return plan_step(state, FootPosition(p=(0.0, -0.15)), cmd(1.0), gait_at(), horizon=horizon)


class TestValidation:
    @pytest.mark.parametrize("call,message", [
        (lambda: cmd(1.0, w=0.0), "step width command must be positive"),
        (lambda: cmd(1.0, w=math.inf), "step width command must be positive"),
        (lambda: PlannedStep(p_d=(0.0, 0.0), z_d=math.nan, heading=0.0, parity=0),
         "step height must be finite"),
        (lambda: desired_step_length(cmd(1.0), 0.0), "remaining time must be positive"),
        (lambda: desired_step_width(0.3, 0.0, TS), r"remaining time must lie in \(0, 0.35\]"),
        (lambda: desired_step_width(0.3, 0.5, TS), r"remaining time must lie in \(0, 0.35\]"),
        (lambda: offsets(0.0, 0.2, W_TABLE, -0.1), "remaining time must be non-negative"),
        (lambda: _plan_at_rest(horizon=0.5), r"step horizon must lie in \(0, 0.35\], got 0.5"),
        (lambda: _plan_at_rest(horizon=0.0), r"step horizon must lie in \(0, 0.35\], got 0.0")])
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
