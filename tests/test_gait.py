import math

import numpy as np
import pytest

from liprint import (GaitParams, GaitState, advance, contact_schedule,
                     phase_clock, remaining_time, swing_foot)

TS = 0.35


def gait(t=0.0, parity=0, Ts=TS):
    return GaitState(t=t, parity=parity, params=GaitParams(Ts))


def at(tp, Ts=TS):
    """The state whose two-step clock reads tp: t = tp % Ts, parity tp // Ts."""
    return gait(t=tp % Ts, parity=int(tp // Ts), Ts=Ts)


class TestAdvance:
    def test_exact_wraparound(self):
        g, boundary = advance(gait(t=0.34, parity=2), 0.01)
        assert boundary
        assert g.t == 0.0
        assert g.parity == 3

    def test_interior_tick(self):
        g, boundary = advance(gait(t=0.10), 0.01)
        assert not boundary
        assert g.t == pytest.approx(0.11, abs=1e-12)
        assert g.parity == 0

    def test_boundary_count_over_two_steps(self):
        g = GaitState.start(GaitParams(TS))
        boundaries = 0
        for _ in range(70):
            g, b = advance(g, 0.01)
            boundaries += int(b)
        assert boundaries == 2
        assert g.t == 0.0
        assert g.parity == 2
        assert g.t_prime == 0.0

    def test_tick_must_beat_step(self):
        with pytest.raises(ValueError):
            advance(gait(), TS)
        with pytest.raises(ValueError):
            advance(gait(), -0.01)

    def test_t_prime_wraps_every_two_steps(self):
        g = GaitState.start(GaitParams(TS))
        tps = []
        for _ in range(140):
            g, _ = advance(g, 0.01)
            tps.append(g.t_prime)
            assert g.t_prime == (g.parity % 2) * TS + g.t
        assert max(tps) < 2 * TS
        assert min(tps) >= 0.0


class TestRemainingTime:
    def test_full_at_step_start(self):
        assert remaining_time(gait(t=0.0)) == TS

    def test_subtraction(self):
        assert remaining_time(gait(t=0.30)) == pytest.approx(0.05, abs=1e-12)

    def test_positive_limit(self):
        g = gait(t=0.34)
        for _ in range(5):
            assert remaining_time(g) > 0.0
            g, _ = advance(g, 0.01)


class TestContactSchedule:
    def test_zero_phase(self):
        assert contact_schedule(gait()) == 0.0

    def test_quarter_phase(self):
        c = contact_schedule(gait(t=0.175))
        assert c == pytest.approx(1.0 / math.sqrt(1.04), abs=1e-12)
        assert c == pytest.approx(0.980581, abs=1e-6)

    def test_three_quarter_phase(self):
        c = contact_schedule(gait(t=0.175, parity=1))
        assert c == pytest.approx(-1.0 / math.sqrt(1.04), abs=1e-12)

    def test_bounds_and_period(self):
        # sampled over one full cycle: bounded, and exactly periodic in 2 Ts
        for frac in np.linspace(0.0, 0.999, 97):
            tp = frac * 2 * TS
            c = contact_schedule(at(tp))
            assert -1.0 <= c <= 1.0

    def test_half_period_antisymmetry(self):
        for frac in np.linspace(0.0, 0.499, 41):
            tp = frac * 2 * TS
            c1 = contact_schedule(at(tp))
            c2 = contact_schedule(at(tp + TS))
            assert c2 == pytest.approx(-c1, abs=1e-12)


class TestPhaseClock:
    def test_phase_zero(self):
        assert phase_clock(gait()) == (0.0, 1.0)

    def test_quarter(self):
        s, c = phase_clock(gait(t=0.175))
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_tenth(self):
        s, c = phase_clock(gait(t=0.07))
        assert s == pytest.approx(0.587785, abs=1e-6)
        assert c == pytest.approx(0.809017, abs=1e-6)

    def test_unit_circle(self):
        for tp in np.linspace(0.0, 2 * TS * 0.999, 29):
            s, c = phase_clock(at(tp))
            assert s * s + c * c == pytest.approx(1.0, rel=1e-12)


class TestSwingFoot:
    def test_parity_convention(self):
        assert swing_foot(gait(parity=0)) == "left"
        assert swing_foot(gait(parity=1)) == "right"
        assert swing_foot(gait(parity=7)) == "right"

    def test_alternation_over_cycle(self):
        g = GaitState.start(GaitParams(TS))
        changes = []
        prev = swing_foot(g)
        for i in range(70):
            g, _ = advance(g, 0.01)
            cur = swing_foot(g)
            if cur != prev:
                changes.append(i)
                prev = cur
        assert len(changes) == 2  # one alternation per step over 2 Ts


class TestRemainingAdvanceConsistency:
    def test_linear_away_from_boundaries(self):
        g = gait(t=0.1)
        g2, b = advance(g, 0.01)
        assert not b
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
