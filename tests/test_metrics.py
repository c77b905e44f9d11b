import math

import numpy as np
import numpy.testing as npt
import pytest

from liprint import GaitParams, GaitState
from liprint.metrics import (LEFT, REG_TERMS, RIGHT, TASK_TERMS, RewardParams,
                             RobotSample, pd_torque, r_base_height,
                             r_base_orientation, r_contact_schedule,
                             r_velocity_tracking, regularization, reward_table,
                             total_reward)
from oracles import regularization_row, total_reward_row

SIGMA = 0.25


def params(**kw):
    return RewardParams(**kw)


def ideal_sample(vx=0.0, vy=0.0):
    return RobotSample(base_height=0.62, base_heading=math.atan2(vy, vx) if (vx or vy) else 0.0,
                       base_vel_world=(vx, vy),
                       foot_pos=((0.1, -0.15), (0.1, 0.15)),
                       foot_contact=(True, False))


class TestBaseHeight:
    def test_exact_tracking(self):
        assert r_base_height(ideal_sample(), params()) == 1.0

    def test_ten_cm_error(self):
        s = RobotSample(base_height=0.52)
        r = r_base_height(s, params(base_height_target=0.62))
        assert r == pytest.approx(math.exp(-0.04), abs=1e-15)
        assert r == pytest.approx(0.960789, abs=1e-6)

    def test_limit(self):
        s = RobotSample(base_height=50.0)
        assert r_base_height(s, params()) < 1e-12


class TestBaseOrientation:
    def test_exact(self):
        assert r_base_orientation(ideal_sample(), params()) == 2.0

    def test_quarter_radian(self):
        s = RobotSample(base_heading=0.25)
        r = r_base_orientation(s, params(heading_target=0.0))
        assert r == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
        assert r == pytest.approx(0.735759, abs=1e-6)

    def test_large_error_vanishes(self):
        s = RobotSample(base_heading=math.pi)
        assert r_base_orientation(s, params()) < 1e-5

    def test_wraps(self):
        s = RobotSample(base_heading=2 * math.pi)
        assert r_base_orientation(s, params()) == pytest.approx(2.0, abs=1e-12)


class TestVelocityTracking:
    def test_exact(self):
        s = ideal_sample(vx=1.0)
        assert r_velocity_tracking(s, params(vel_cmd=(1.0, 0.0))) == 4.0

    def test_half_speed(self):
        s = RobotSample(base_vel_world=(0.5, 0.0))
        r = r_velocity_tracking(s, params(vel_cmd=(1.0, 0.0)))
        assert r == pytest.approx(4.0 * math.exp(-0.25), abs=1e-12)
        assert r == pytest.approx(3.115203, abs=1e-6)

    def test_limit(self):
        s = RobotSample(base_vel_world=(100.0, 0.0))
        assert r_velocity_tracking(s, params(vel_cmd=(1.0, 0.0))) < 1e-12

    def test_normalization_invariance(self):
        # any (v_cmd, v) pair with the same normalized error scores the same
        rng = np.random.default_rng(4)
        for _ in range(20):
            v1 = rng.uniform(-2, 2, 2)
            v = rng.uniform(-2, 2, 2)
            e = (v1 - v) / (1.0 + np.linalg.norm(v1))
            v2 = rng.uniform(-2, 2, 2)
            v_matched = v2 - e * (1.0 + np.linalg.norm(v2))
            r1 = r_velocity_tracking(RobotSample(base_vel_world=v),
                                     params(vel_cmd=v1))
            r2 = r_velocity_tracking(RobotSample(base_vel_world=v_matched),
                                     params(vel_cmd=v2))
            assert r2 == pytest.approx(r1, rel=1e-12)


class TestContactSchedule:
    def test_perfect_schedule(self):
        s = RobotSample(foot_pos=((0.1, -0.15), (0.5, 0.15)),
                        foot_contact=(True, False))
        targets = [(0.1, -0.15), (0.9, 0.15)]
        r = r_contact_schedule(s, params(), 1.0, targets)
        assert r == 9.0  # right stance at its target, C = 1

    def test_double_support_is_zero(self):
        s = RobotSample(foot_contact=(True, True))
        assert r_contact_schedule(s, params(), 1.0,
                                  [(0, 0), (0, 0)]) == 0.0

    def test_wrong_schedule_penalised(self):
        # right foot on the ground (at its target) during the C = -1 half
        s = RobotSample(foot_pos=((0.1, -0.15), (0.5, 0.15)),
                        foot_contact=(True, False))
        targets = [(0.1, -0.15), (0.9, 0.15)]
        r = r_contact_schedule(s, params(), -1.0, targets, stance_side=RIGHT)
        assert r == -9.0

    def test_placement_error_decay(self):
        s = RobotSample(foot_pos=((0.2, -0.15), (0.5, 0.15)),
                        foot_contact=(True, False))
        targets = [(0.1, -0.15), (0.9, 0.15)]  # stance foot 0.1 m off
        r = r_contact_schedule(s, params(), 1.0, targets)
        assert r == pytest.approx(9.0 * math.exp(-0.1 / SIGMA), rel=1e-12)

    def test_gait_state_input(self):
        g = GaitState(t=0.175, parity=0, params=GaitParams(0.35))
        s = RobotSample(foot_pos=((0.1, -0.15), (0.5, 0.15)),
                        foot_contact=(True, False))
        targets = [(0.1, -0.15), (0.9, 0.15)]
        r = r_contact_schedule(s, params(), g, targets)
        assert r == pytest.approx(9.0 / math.sqrt(1.04), abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = RobotSample(foot_pos=rng.uniform(-1, 1, (2, 2)),
                            foot_contact=(bool(rng.integers(2)), bool(rng.integers(2))))
            c = rng.uniform(-1, 1)
            r = r_contact_schedule(s, params(), c, rng.uniform(-1, 1, (2, 2)))
            assert abs(r) <= 9.0


class TestRegularization:
    def test_all_zero_sample(self):
        s = RobotSample(q=np.zeros(10), dq=np.zeros(10), tau=np.zeros(10),
                        action=np.zeros(10), action_prev=np.zeros(10),
                        action_prev2=np.zeros(10), q_hip_xz=np.zeros(4))
        terms = regularization(s, params())
        assert terms["joint_torques"] == 0.0
        assert terms["joint_velocity"] == 0.0
        assert terms["action_smoothness_1"] == 0.0
        assert terms["action_smoothness_2"] == 0.0
        assert terms["hip_regularization"] == 1.25
        assert terms["base_tilting"] == 1.0
        assert terms["termination"] == 0.0
        assert len(terms) == 11

    def test_torque_limit_boundary(self):
        tau_max = 30.0
        s = RobotSample(tau=[0.9 * tau_max])
        terms = regularization(s, params(tau_max=tau_max))
        assert terms["torque_limits"] == 0.0
        s = RobotSample(tau=[0.9 * tau_max + 1.0])
        terms = regularization(s, params(tau_max=tau_max))
        assert terms["torque_limits"] == pytest.approx(-1e-2, rel=1e-12)

    def test_joint_limit_clip(self):
        s = RobotSample(q=[5.0])
        terms = regularization(s, params(q_max=1.0))
        assert terms["joint_limits"] == pytest.approx(-10.0, rel=1e-12)  # clipped at 1

    def test_expressions(self):
        s = RobotSample(q=[0.1, -0.2], dq=[1.0, -2.0], tau=[3.0, 4.0],
                        action=[0.2, 0.0], action_prev=[0.1, 0.0],
                        action_prev2=[0.0, 0.0], q_hip_xz=[0.5],
                        base_ang_vel=(0.1, -0.2, 0.3), base_vel_z=0.4)
        p = params()
        terms = regularization(s, p)
        assert terms["joint_torques"] == pytest.approx(-1e-4 * 25.0, rel=1e-12)
        assert terms["joint_velocity"] == pytest.approx(-1e-3 * 5.0, rel=1e-12)
        assert terms["action_smoothness_1"] == pytest.approx(
            -1e-3 * (0.1 / 0.01) ** 2, rel=1e-12)
        assert terms["action_smoothness_2"] == pytest.approx(
            -1e-4 * ((0.2 - 0.2 + 0.0) / 0.01) ** 2, abs=1e-12)
        assert terms["hip_regularization"] == pytest.approx(
            1.25 * math.exp(-0.25 / SIGMA), rel=1e-12)
        assert terms["base_rollpitch_velocity"] == pytest.approx(
            -1e-2 * (0.01 + 0.04), rel=1e-12)
        assert terms["base_z_velocity"] == pytest.approx(-1e-1 * 0.16, rel=1e-12)


class TestTermination:
    def test_low_base_triggers(self):
        s = RobotSample(base_height=0.29)
        assert regularization(s, params())["termination"] == -100.0

    def test_height_threshold_is_strict(self):
        assert regularization(RobotSample(base_height=0.3), params())["termination"] == 0.0
        assert regularization(RobotSample(base_height=0.299999), params())["termination"] == -100.0

    def test_velocity_threshold(self):
        assert regularization(RobotSample(base_vel_world=(10.0, 0.0)),
                              params())["termination"] == -100.0
        assert regularization(RobotSample(base_vel_world=(9.99, 0.0)),
                              params())["termination"] == 0.0

    def test_angular_velocity_threshold(self):
        assert regularization(RobotSample(base_ang_vel=(0, 0, 5.0)),
                              params())["termination"] == -100.0
        assert regularization(RobotSample(base_ang_vel=(0, 0, 4.99)),
                              params())["termination"] == 0.0

    def test_tilt_threshold(self):
        for g in [(0.7, 0.0, -0.7), (0.0, 0.7, -0.7), (-0.7, 0.0, -0.7)]:
            assert regularization(RobotSample(gravity_proj=g),
                                  params())["termination"] == -100.0
        assert regularization(RobotSample(gravity_proj=(0.69, 0.69, -0.7)),
                              params())["termination"] == 0.0

    def test_self_collision_flag(self):
        assert regularization(RobotSample(self_collision=True),
                              params())["termination"] == -100.0


class TestRewardParams:
    @pytest.mark.parametrize("kw,message", [
        ({"sigma": math.nan}, "sigma must be positive and finite"),
        ({"sigma": math.inf}, "sigma must be positive and finite"),
        ({"sigma": 0.0}, "sigma must be positive and finite"),
        ({"action_dt": math.inf}, "action_dt must be positive and finite"),
        ({"base_height_target": math.nan}, "base_height_target must be finite"),
        ({"heading_target": -math.inf}, "heading_target must be finite"),
        ({"vel_cmd": (math.inf, 0.0)}, "vel_cmd must be finite"),
    ])
    def test_non_finite_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            params(**kw)

    def test_infinite_limits_allowed(self):
        p = params(tau_max=math.inf, q_max=math.inf)
        assert p.tau_max == p.q_max == math.inf


class TestPdTorque:
    def test_zero_at_setpoint(self):
        tau = pd_torque(q_ref=[0.1, 0.2], dq_action=[0.05, -0.1],
                        q=[0.15, 0.1], qd=[0.0, 0.0])
        npt.assert_allclose(tau, [0.0, 0.0], atol=1e-15)

    def test_unit_position_error(self):
        tau = pd_torque(q_ref=[1.0], dq_action=[0.0], q=[0.0], qd=[0.0])
        npt.assert_allclose(tau, [30.0], rtol=1e-15)

    def test_damping_sign(self):
        tau = pd_torque(q_ref=[0.0], dq_action=[0.0], q=[0.0], qd=[2.0])
        npt.assert_allclose(tau, [-2.0], rtol=1e-15)

    def test_affine(self):
        rng = np.random.default_rng(6)
        q_ref = rng.uniform(-1, 1, 5)
        a1, a2 = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        q, qd = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        t1 = pd_torque(q_ref, a1, q, qd)
        t2 = pd_torque(q_ref, a2, q, qd)
        t_mid = pd_torque(q_ref, 0.5 * (a1 + a2), q, qd)
        npt.assert_allclose(t_mid, 0.5 * (t1 + t2), rtol=1e-12)


class TestTotalReward:
    def test_perfect_sample_total(self):
        s = RobotSample(base_height=0.62, base_heading=0.0,
                        base_vel_world=(1.0, 0.0),
                        foot_pos=((0.1, -0.15), (0.5, 0.15)),
                        foot_contact=(True, False))
        p = params(vel_cmd=(1.0, 0.0))
        targets = [(0.1, -0.15), (0.9, 0.15)]
        total, breakdown = total_reward(s, p, 1.0, targets)
        assert breakdown["base_height"] == 1.0
        assert breakdown["base_orientation"] == 2.0
        assert breakdown["velocity_tracking"] == 4.0
        assert breakdown["contact_schedule"] == 9.0
        assert total == pytest.approx(18.25, abs=1e-12)

    def test_breakdown_sums_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = RobotSample(base_height=rng.uniform(0.2, 0.8),
                            base_heading=rng.uniform(-3, 3),
                            base_vel_world=rng.uniform(-2, 2, 2),
                            base_vel_z=rng.uniform(-1, 1),
                            base_ang_vel=rng.uniform(-2, 2, 3),
                            gravity_proj=rng.uniform(-1, 1, 3),
                            q=rng.uniform(-1, 1, 10), dq=rng.uniform(-5, 5, 10),
                            tau=rng.uniform(-30, 30, 10),
                            action=rng.uniform(-1, 1, 10),
                            action_prev=rng.uniform(-1, 1, 10),
                            action_prev2=rng.uniform(-1, 1, 10),
                            q_hip_xz=rng.uniform(-1, 1, 4),
                            foot_pos=rng.uniform(-1, 1, (2, 2)),
                            foot_contact=(True, False))
            p = params(vel_cmd=(1.0, 0.0), tau_max=30.0, q_max=1.5)
            total, breakdown = total_reward(s, p, rng.uniform(-1, 1),
                                            rng.uniform(-1, 1, (2, 2)))
            assert total == pytest.approx(sum(breakdown.values()), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            s = RobotSample(base_height=rng.uniform(0.3, 1.0),
                            base_heading=rng.uniform(-3, 3),
                            base_vel_world=rng.uniform(-3, 3, 2))
            p = params(vel_cmd=(1.0, 0.0))
            assert 0.0 < r_base_height(s, p) <= 1.0
            assert 0.0 < r_base_orientation(s, p) <= 2.0
            assert 0.0 < r_velocity_tracking(s, p) <= 4.0


def stack(samples):
    """reward_table columns holding the given RobotSamples, one per row."""
    return {name: np.array([np.asarray(getattr(s, name)) for s in samples])
            for name in vars(samples[0])}


def random_samples(rng, n, k):
    return [RobotSample(base_height=float(rng.uniform(0.2, 1.0)),
                        base_heading=float(rng.uniform(-7.0, 7.0)),
                        base_vel_world=rng.normal(0.0, 4.0, 2),
                        base_vel_z=float(rng.normal(0.0, 1.0)),
                        base_ang_vel=rng.normal(0.0, 2.5, 3),
                        gravity_proj=rng.normal(0.0, 0.5, 3),
                        q=rng.normal(0.0, 1.5, k), dq=rng.normal(0.0, 3.0, k),
                        tau=rng.normal(0.0, 30.0, k),
                        action=rng.normal(0.0, 0.3, k),
                        action_prev=rng.normal(0.0, 0.3, k),
                        action_prev2=rng.normal(0.0, 0.3, k),
                        q_hip_xz=rng.normal(0.0, 0.5, 4),
                        foot_pos=rng.uniform(-1.0, 1.0, (2, 2)),
                        foot_contact=tuple(bool(b) for b in rng.integers(0, 2, 2)),
                        self_collision=bool(rng.random() < 0.1))
            for _ in range(n)]


def assert_rows_match_oracle(samples, p, schedule, targets, sides):
    total, breakdown = reward_table(stack(samples), p, schedule, targets, sides)
    assert list(breakdown) == list(TASK_TERMS + REG_TERMS)
    for i, s in enumerate(samples):
        o_total, o_breakdown = total_reward_row(s, p, schedule[i], targets[i], sides[i])
        assert total[i] == o_total, i
        assert {k: v[i] for k, v in breakdown.items()} == o_breakdown, i
    return total, breakdown


class TestArrayCoreOracle:
    """reward_table equals the per-row reference exactly, row by row."""

    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("k", [0, 1, 12])
    @pytest.mark.parametrize("limits", ["none", "scalar", "per-joint"])
    def test_random_batches(self, n, k, limits):
        rng = np.random.default_rng([n, k, len(limits)])
        kw = {"none": {}, "scalar": dict(tau_max=30.0, q_max=1.2),
              "per-joint": dict(tau_max=rng.uniform(10.0, 40.0, k),
                                q_max=rng.uniform(0.5, 2.0, k))}[limits]
        p = params(vel_cmd=rng.normal(0.0, 1.0, 2), heading_target=0.3,
                   sigma=0.3, **kw)
        samples = random_samples(rng, n, k)
        schedule = rng.uniform(-1.0, 1.0, n)
        targets = rng.uniform(-1.0, 1.0, (n, 2, 2))
        sides = rng.integers(0, 2, n)
        assert_rows_match_oracle(samples, p, schedule, targets, sides)
        # the one-row wrappers run the same core
        for i in range(min(n, 3)):
            s, c, t, side = samples[i], schedule[i], targets[i], sides[i]
            o_total, o_breakdown = total_reward_row(s, p, c, t, side)
            assert total_reward(s, p, c, t, stance_side=side) == (o_total, o_breakdown)
            assert regularization(s, p) == regularization_row(s, p)
            assert r_base_height(s, p) == o_breakdown["base_height"]
            assert r_base_orientation(s, p) == o_breakdown["base_orientation"]
            assert r_velocity_tracking(s, p) == o_breakdown["velocity_tracking"]
            assert r_contact_schedule(s, p, c, t, side) == o_breakdown["contact_schedule"]

    def test_both_parities(self):
        rng = np.random.default_rng(12)
        samples = random_samples(rng, 8, 3)
        targets = rng.uniform(-1.0, 1.0, (8, 2, 2))
        schedule = rng.uniform(-1.0, 1.0, 8)
        for sides in (np.full(8, RIGHT), np.full(8, LEFT), np.arange(8) % 2):
            assert_rows_match_oracle(samples, params(), schedule, targets, sides)

    def test_squares_of_scalar_signals_use_pow(self):
        # with glibc, pow(x, 2) and x * x differ in the last bit for these
        xs = [0.22837912815394867, 0.24785257880800576, 0.5854721844001616,
              -0.12215715250210951, 0.03888317268016638, -0.0016322209104065438]
        samples = [RobotSample(base_vel_z=x, base_ang_vel=(x, -x, 0.0),
                               gravity_proj=(-x, x, -1.0)) for x in xs]
        n = len(xs)
        assert_rows_match_oracle(samples, params(), np.ones(n), np.zeros((n, 2, 2)),
                                 np.zeros(n, dtype=int))

    def test_termination_thresholds_at_the_boundary(self):
        below = np.nextafter
        cases = [  # (sample fields, terminated)
            (dict(base_vel_world=(6.0, 8.0)), True),
            (dict(base_vel_world=(10.0, 0.0)), True),
            (dict(base_vel_z=10.0), True),
            (dict(base_vel_world=(below(10.0, 0.0), 0.0)), False),
            (dict(base_ang_vel=(3.0, 4.0, 0.0)), True),
            (dict(base_ang_vel=(0.0, 0.0, 5.0)), True),
            (dict(base_ang_vel=(0.0, 0.0, below(5.0, 0.0))), False),
            (dict(gravity_proj=(0.7, 0.0, -0.7)), True),
            (dict(gravity_proj=(-0.7, 0.0, -0.7)), True),
            (dict(gravity_proj=(0.0, 0.7, -0.7)), True),
            (dict(gravity_proj=(below(0.7, 0.0), below(0.7, 0.0), -0.7)), False),
            (dict(base_height=0.3), False),
            (dict(base_height=below(0.3, 0.0)), True),
            (dict(self_collision=True), True),
            (dict(), False),
        ]
        samples = [RobotSample(**kw) for kw, _ in cases]
        n = len(samples)
        _, breakdown = assert_rows_match_oracle(
            samples, params(), np.ones(n), np.zeros((n, 2, 2)), np.zeros(n, dtype=int))
        assert list(breakdown["termination"]) == [-100.0 if t else 0.0 for _, t in cases]

    def test_columns_checked(self):
        args = (params(), np.ones(3), np.zeros((3, 2, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="base_height"):
            reward_table({"base_height": np.zeros(2)}, *args)
        with pytest.raises(ValueError, match="base_hight"):
            reward_table({"base_hight": np.zeros(3)}, *args)
        total, _ = reward_table({}, *args)  # every field at its default
        assert list(total) == [total_reward(RobotSample(), params(), 1.0,
                                            np.zeros((2, 2)), RIGHT)[0]] * 3
