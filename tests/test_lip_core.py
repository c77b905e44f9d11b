import math

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (FootPosition, IcpPoint, LipParams, LipState,
                     com_trajectory, icp_derivative, icp_of, icp_trajectory,
                     lip_acceleration, natural_frequency)

from oracles import lip_step_over, rk4_lip

W_TABLE = 3.97776  # rounded natural frequency of the 0.62 m pendulum


def params_for(w=W_TABLE):
    """LipParams whose natural frequency equals w (to rounding)."""
    return LipParams(g=9.81, z0=9.81 / w ** 2)


def state(pos, vel, params):
    return LipState(com_pos=pos, com_vel=vel, params=params)


class TestNaturalFrequency:
    def test_table_values(self):
        assert natural_frequency(9.81, 0.62) == pytest.approx(
            3.9777607576576663, abs=1e-12)

    def test_unit_ratio(self):
        assert natural_frequency(9.81, 9.81) == 1.0

    def test_singular_pendulum(self):
        with pytest.raises(ValueError):
            natural_frequency(9.81, 0.0)
        with pytest.raises(ValueError):
            natural_frequency(0.0, 0.62)
        with pytest.raises(ValueError):
            natural_frequency(9.81, -0.5)
        # each value positive and finite, their ratio not
        with pytest.raises(ValueError, match=r"got 1e-320 / 1e\+300 = 0.0"):
            natural_frequency(1e-320, 1e300)
        with pytest.raises(ValueError, match=r"got 1e\+300 / 1e-10 = inf"):
            natural_frequency(1e300, 1e-10)


class TestLipParams:
    def test_omega_derived(self):
        p = LipParams(g=9.81, z0=0.62)
        assert p.omega0 == math.sqrt(9.81 / 0.62)


class TestAcceleration:
    def test_equilibrium(self):
        p = params_for()
        s = state((0.3, -0.2), (0.0, 0.0), p)
        npt.assert_array_equal(
            lip_acceleration(s, FootPosition(p=(0.3, -0.2))), [0.0, 0.0])

    def test_forward_offset(self):
        p = params_for(W_TABLE)
        s = state((0.1, 0.0), (0.0, 0.0), p)
        a = lip_acceleration(s, FootPosition(p=(0.0, 0.0)))
        npt.assert_allclose(a, [W_TABLE ** 2 * 0.1, 0.0], atol=1e-9)
        assert a[0] == pytest.approx(1.58226, abs=2e-5)

    def test_unit_frequency_identity(self):
        p = params_for(1.0)
        s = state((-0.1, 0.2), (0.0, 0.0), p)
        npt.assert_allclose(
            lip_acceleration(s, FootPosition(p=(0.0, 0.0))), [-0.1, 0.2],
            rtol=1e-12)


class TestComTrajectory:
    def test_equilibrium_fixed_point(self):
        p = params_for()
        foot = FootPosition(p=(0.4, 0.1))
        s0 = state((0.4, 0.1), (0.0, 0.0), p)
        for t in (0.0, 0.05, 0.35, 2.0):
            s = com_trajectory(s0, foot, t)
            npt.assert_array_equal(s.com_pos, s0.com_pos)
            npt.assert_array_equal(s.com_vel, s0.com_vel)

    def test_identity_at_zero(self):
        p = params_for()
        s0 = state((0.05, -0.03), (0.4, 0.2), p)
        s = com_trajectory(s0, FootPosition(p=(0.0, 0.0)), 0.0)
        npt.assert_array_equal(s.com_pos, s0.com_pos)
        npt.assert_array_equal(s.com_vel, s0.com_vel)

    def test_against_rk4(self):
        p = params_for(W_TABLE)
        foot = FootPosition(p=(0.0, 0.0))
        s0 = state((0.05, 0.0), (0.4, 0.0), p)
        s = com_trajectory(s0, foot, 0.35)
        pos, vel = rk4_lip([s0.com_pos], [s0.com_vel], [foot.p],
                           p.omega0, 0.35, 1e-5)
        npt.assert_allclose(s.com_pos, pos[0], atol=1e-8)
        npt.assert_allclose(s.com_vel, vel[0], atol=1e-8)

    def test_negative_duration(self):
        p = params_for()
        s0 = state((0.0, 0.0), (0.0, 0.0), p)
        with pytest.raises(ValueError):
            com_trajectory(s0, FootPosition(p=(0.0, 0.0)), -0.1)

    def test_equals_inline_cosh_sinh_formula(self):
        rng = np.random.default_rng(17)
        for t in np.concatenate([[0.0, 0.01, 0.35], rng.uniform(0.0, 2.0, 200)]):
            p = params_for(rng.uniform(2.0, 6.0))
            s0 = state(rng.uniform(-0.5, 0.5, 2), rng.uniform(-1.5, 1.5, 2), p)
            foot = FootPosition(p=rng.uniform(-0.5, 0.5, 2))
            s = com_trajectory(s0, foot, t)
            assert (s.com_pos[0], s.com_pos[1], s.com_vel[0], s.com_vel[1]) == lip_step_over(
                s0.com_pos[0], s0.com_pos[1], s0.com_vel[0], s0.com_vel[1],
                foot.p[0], foot.p[1], p.omega0, t)


class TestIcp:
    def test_zero_velocity(self):
        p = params_for()
        s = state((0.2, -0.1), (0.0, 0.0), p)
        npt.assert_array_equal(icp_of(s).xi, s.com_pos)

    def test_forward_velocity(self):
        p = params_for(W_TABLE)
        s = state((0.0, 0.0), (0.4, 0.0), p)
        xi = icp_of(s).xi
        assert xi[0] == pytest.approx(0.4 / p.omega0, abs=1e-15)
        assert xi[0] == pytest.approx(0.100559, abs=2e-6)
        assert xi[1] == 0.0

    def test_exact_cancellation(self):
        p = params_for(1.0)
        w = p.omega0
        s = state((1.0, 1.0), (-w, -w), p)
        npt.assert_allclose(icp_of(s).xi, [0.0, 0.0], atol=1e-15)


class TestIcpDerivative:
    def test_fixed_point(self):
        d = icp_derivative(IcpPoint(xi=(0.3, 0.3)), FootPosition(p=(0.3, 0.3)), 4.0)
        npt.assert_array_equal(d, [0.0, 0.0])

    def test_forward_offset(self):
        d = icp_derivative(IcpPoint(xi=(0.1, 0.0)), FootPosition(p=(0.0, 0.0)),
                           W_TABLE)
        npt.assert_allclose(d, [0.397776, 0.0], atol=1e-12)

    def test_doubling(self):
        d = icp_derivative(IcpPoint(xi=(0.0, -0.05)), FootPosition(p=(0.0, 0.0)), 2.0)
        npt.assert_allclose(d, [0.0, -0.1], rtol=1e-15)


class TestIcpTrajectory:
    def test_identity_at_zero(self):
        xi = icp_trajectory(IcpPoint(xi=(0.2, 0.1)), FootPosition(p=(0.0, 0.0)),
                            W_TABLE, 0.0)
        npt.assert_array_equal(xi.xi, [0.2, 0.1])

    def test_fixed_point(self):
        for t in (0.1, 0.35, 1.0):
            xi = icp_trajectory(IcpPoint(xi=(0.4, -0.2)),
                                FootPosition(p=(0.4, -0.2)), W_TABLE, t)
            npt.assert_allclose(xi.xi, [0.4, -0.2], rtol=1e-12)

    def test_forward_growth(self):
        xi = icp_trajectory(IcpPoint(xi=(0.1, 0.0)), FootPosition(p=(0.0, 0.0)),
                            W_TABLE, 0.35)
        expected = math.exp(W_TABLE * 0.35) * 0.1
        assert xi.xi[0] == pytest.approx(expected, abs=1e-12)
        assert xi.xi[0] == pytest.approx(0.402372, abs=1e-5)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            icp_trajectory(IcpPoint(xi=(0.1, 0.0)), FootPosition(p=(0.0, 0.0)),
                           W_TABLE, -0.01)


class TestInvariants:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def _random_case(self):
        w = self.rng.uniform(2.0, 6.0)
        p = params_for(w)
        s = state(self.rng.uniform(-0.3, 0.3, 2), self.rng.uniform(-1.0, 1.0, 2), p)
        foot = FootPosition(p=self.rng.uniform(-0.3, 0.3, 2))
        return p, s, foot

    def test_icp_consistency(self):
        # propagating the CoM then taking the ICP == propagating the ICP
        for _ in range(50):
            p, s, foot = self._random_case()
            t = self.rng.uniform(0.0, 0.6)
            via_com = icp_of(com_trajectory(s, foot, t)).xi
            via_icp = icp_trajectory(icp_of(s), foot, p.omega0, t).xi
            npt.assert_allclose(via_com, via_icp, rtol=1e-10, atol=1e-12)

    def test_finite_difference_acceleration(self):
        h = 1e-5
        for _ in range(20):
            p, s, foot = self._random_case()
            t = self.rng.uniform(0.05, 0.5)
            x0 = com_trajectory(s, foot, t - h).com_pos
            x1 = com_trajectory(s, foot, t).com_pos
            x2 = com_trajectory(s, foot, t + h).com_pos
            fd = (x2 - 2.0 * x1 + x0) / h ** 2
            exact = lip_acceleration(com_trajectory(s, foot, t), foot)
            # truncation O(h^2) plus cancellation noise of order eps/h^2
            npt.assert_allclose(fd, exact, atol=1e-4)

    def test_monotone_divergence(self):
        for _ in range(20):
            p, s, foot = self._random_case()
            xi0 = icp_of(s)
            ts = np.sort(self.rng.uniform(0.0, 1.0, 12))
            dists = [np.linalg.norm(
                icp_trajectory(xi0, foot, p.omega0, t).xi - foot.p) for t in ts]
            diffs = np.diff(dists)
            assert np.all(diffs >= -1e-12)
            if np.linalg.norm(xi0.xi - foot.p) > 1e-6:
                assert np.all(diffs > 0.0)

    def test_semigroup(self):
        for _ in range(50):
            p, s, foot = self._random_case()
            t1 = self.rng.uniform(0.0, 0.4)
            t2 = self.rng.uniform(0.0, 0.4)
            once = com_trajectory(s, foot, t1 + t2)
            twice = com_trajectory(com_trajectory(s, foot, t1), foot, t2)
            npt.assert_allclose(twice.com_pos, once.com_pos, rtol=1e-12, atol=1e-13)
            npt.assert_allclose(twice.com_vel, once.com_vel, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_non_finite_rejected(self):
        p = params_for()
        with pytest.raises(ValueError):
            LipState(com_pos=(np.nan, 0.0), com_vel=(0.0, 0.0), params=p)
        with pytest.raises(ValueError):
            FootPosition(p=(0.0, np.inf))
        with pytest.raises(ValueError, match="foot height must be finite"):
            FootPosition(p=(0.0, 0.0), z=np.nan)
        with pytest.raises(ValueError, match=r"com_vel must be a 2-vector, got shape \(3,\)"):
            LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0, 0.0), params=p)

    def test_immutable(self):
        p = params_for()
        s = state((0.1, 0.2), (0.0, 0.0), p)
        with pytest.raises((ValueError, RuntimeError)):
            s.com_pos[0] = 5.0
