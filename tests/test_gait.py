import math

import numpy as np
import pytest

from liprint import GaitParams, GaitState, cycle_phase, phase_signals, remaining_time

TS = 0.35


def gait(t=0.0, parity=0, Ts=TS):
    return GaitState(t=t, parity=parity, params=GaitParams(Ts))


def tick(i, k=35, dt=0.01):
    """The simulator's clock at tick i of a run with k ticks of dt per step,
    as sim's phase table builds it: t = (i % k) * dt, parity i // k."""
    return GaitState(t=(i % k) * dt, parity=i // k, params=GaitParams(k * dt))


def signals(g):
    """(contact schedule, sin, cos) of the state g, as the simulator's phase
    columns take them."""
    return phase_signals(cycle_phase(g))


def at(tp, Ts=TS):
    """The state whose two-step clock reads tp: t = tp % Ts, parity tp // Ts."""
    return gait(t=tp % Ts, parity=int(tp // Ts), Ts=Ts)


class TestAdvance:
    """The clock advanced tick by tick, as the simulator reads it: from the
    tick index, so a step boundary lands exactly on t = 0."""

    def test_exact_wraparound(self):
        before, g = tick(2 * 35 + 34), tick(2 * 35 + 35)
        assert (before.t, before.parity) == (pytest.approx(0.34, abs=1e-12), 2)
        assert g.t == 0.0
        assert g.parity == 3

    def test_interior_tick(self):
        before, g = tick(10), tick(11)
        assert before.t == pytest.approx(0.10, abs=1e-12)
        assert g.parity == before.parity  # no boundary
        assert g.t == pytest.approx(0.11, abs=1e-12)
        assert g.parity == 0

    def test_boundary_count_over_two_steps(self):
        boundaries = sum(tick(i + 1).parity != tick(i).parity for i in range(70))
        g = tick(70)
        assert boundaries == 2
        assert g.t == 0.0
        assert g.parity == 2
        assert g.t_prime == 0.0

    def test_t_prime_wraps_every_two_steps(self):
        tps = []
        for i in range(1, 141):
            g = tick(i)
            tps.append(g.t_prime)
            assert g.t_prime == (g.parity % 2) * g.params.step_duration + g.t
        assert max(tps) < 2 * TS
        assert min(tps) >= 0.0


class TestRemainingTime:
    def test_full_at_step_start(self):
        assert remaining_time(gait(t=0.0)) == TS

    def test_subtraction(self):
        assert remaining_time(gait(t=0.30)) == pytest.approx(0.05, abs=1e-12)

    def test_positive_limit(self):
        for i in range(34, 39):  # from t = 0.34 across the boundary
            assert remaining_time(tick(i)) > 0.0


class TestContactSchedule:
    def test_zero_phase(self):
        assert signals(gait())[0] == 0.0

    def test_quarter_phase(self):
        c = signals(gait(t=0.175))[0]
        assert c == pytest.approx(1.0 / math.sqrt(1.04), abs=1e-12)
        assert c == pytest.approx(0.980581, abs=1e-6)

    def test_three_quarter_phase(self):
        c = signals(gait(t=0.175, parity=1))[0]
        assert c == pytest.approx(-1.0 / math.sqrt(1.04), abs=1e-12)

    def test_bounds_and_period(self):
        # sampled over one full cycle: bounded, and exactly periodic in 2 Ts
        for frac in np.linspace(0.0, 0.999, 97):
            tp = frac * 2 * TS
            c = signals(at(tp))[0]
            assert -1.0 <= c <= 1.0

    def test_half_period_antisymmetry(self):
        for frac in np.linspace(0.0, 0.499, 41):
            tp = frac * 2 * TS
            c1 = signals(at(tp))[0]
            c2 = signals(at(tp + TS))[0]
            assert c2 == pytest.approx(-c1, abs=1e-12)


class TestPhaseClock:
    def test_phase_zero(self):
        assert signals(gait())[1:] == (0.0, 1.0)

    def test_quarter(self):
        s, c = signals(gait(t=0.175))[1:]
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_tenth(self):
        s, c = signals(gait(t=0.07))[1:]
        assert s == pytest.approx(0.587785, abs=1e-6)
        assert c == pytest.approx(0.809017, abs=1e-6)

    def test_unit_circle(self):
        for tp in np.linspace(0.0, 2 * TS * 0.999, 29):
            s, c = signals(at(tp))[1:]
            assert s * s + c * c == pytest.approx(1.0, rel=1e-12)


class TestRemainingAdvanceConsistency:
    def test_linear_away_from_boundaries(self):
        g, g2 = tick(10), tick(11)  # t = 0.1, then one tick of 0.01 on
        assert g2.parity == g.parity
        assert remaining_time(g2) == pytest.approx(remaining_time(g) - 0.01,
                                                   abs=1e-12)


class TestValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            gait(t=0.35)
        with pytest.raises(ValueError):
            gait(t=-0.01)
        with pytest.raises(ValueError):
            GaitParams(0.0)

    def test_negative_parity_rejected(self):
        # parity counts completed steps, as the simulator's step index does
        with pytest.raises(ValueError, match="parity must be non-negative, got -1"):
            gait(parity=-1)
        assert gait(parity=0).parity == 0

    @pytest.mark.parametrize("parity", [1.5, 1.0, True, False])
    def test_non_integer_parity_rejected(self, parity):
        # a float parity would put cycle_phase outside [0, 1)
        with pytest.raises(ValueError, match="parity must be a non-negative integer"):
            gait(t=0.3, parity=parity)

    def test_numpy_integer_parity_accepted(self):
        assert gait(t=0.3, parity=np.int64(3)).t_prime == TS + 0.3
