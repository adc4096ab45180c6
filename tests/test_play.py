import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import drive_play_per_step

from cryostef.config import BLOCK_STEPS
from cryostef.constitutive import EXP_FLOOR, calibrate_envelope
from cryostef.errors import InfeasibleState, InvalidBounds
from cryostef.play import ConstraintInterval, drive_play, play_step, resolvent


class TestResolvent:
    def test_branches(self):
        iv = ConstraintInterval(0.0, 2.0)
        assert float(resolvent(iv, -1.0)) == 0.0
        assert float(resolvent(iv, 1.5)) == 1.5
        assert float(resolvent(iv, 3.0)) == 2.0

    def test_idempotent_exact(self, rng):
        iv = ConstraintInterval(-0.7, 1.3)
        s = rng.uniform(-10.0, 10.0, size=1000)
        once = resolvent(iv, s)
        assert np.array_equal(resolvent(iv, once), once)

    def test_nonexpansive_and_monotone(self, rng):
        iv = ConstraintInterval(-1.0, 2.5)
        s1 = rng.uniform(-20.0, 20.0, size=100000)
        s2 = rng.uniform(-20.0, 20.0, size=100000)
        r1, r2 = resolvent(iv, s1), resolvent(iv, s2)
        assert np.all(np.abs(r1 - r2) <= np.abs(s1 - s2) + 1e-15)
        assert np.all((s1 - s2) * (r1 - r2) >= 0.0)

    def test_invalid_interval(self):
        with pytest.raises(InvalidBounds):
            ConstraintInterval(1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(InvalidBounds, match="interval bounds out of order"):
            ConstraintInterval(lo, hi)


class TestPlayStep:
    def test_interior_no_motion(self):
        assert play_step(0.5, 0.0, 1.0) == 0.5

    def test_pinned_to_lower(self):
        assert play_step(-0.3, 0.0, 1.0) == 0.0

    def test_pinned_to_upper(self):
        assert play_step(1.4, 0.0, 1.0) == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            play_step(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bounds_rejected(self, alpha, beta):
        with pytest.raises(InvalidBounds, match="play bounds out of order"):
            play_step(0.5, alpha, beta)

    def test_zero_width_interval_allowed(self):
        assert play_step(0.7, 0.0, 0.0) == 0.0

    def test_depends_only_on_arguments(self, rng):
        # rate independence: the update has no step-size argument at all,
        # and matches the clamp for any sampled triple
        for _ in range(1000):
            v = rng.uniform(-3, 3)
            a = rng.uniform(-2, 2)
            b = a + rng.uniform(0, 3)
            assert play_step(v, a, b) == float(resolvent(ConstraintInterval(a, b), v))

    def test_clamp_is_builtin_min_max_bit_for_bit(self):
        # signed zeros, equal bounds, infinities and a NaN value: the same
        # operand as min(max(v, alpha), beta), compared as bit patterns
        # (NaN bounds are rejected, see test_nan_bounds_rejected)
        special = [-math.inf, -1.5, -0.0, 0.0, 0.25, 1.0, math.inf, math.nan]
        for alpha in special:
            for beta in special:
                if not alpha <= beta:
                    continue
                for v in special:
                    got = play_step(v, alpha, beta)
                    want = min(max(v, alpha), beta)
                    assert struct.pack("<d", got) == struct.pack("<d", want), (v, alpha, beta)


class TestDrivePlay:
    def test_constant_schedule_is_fixed_point(self, envelope_ii):
        u0 = -3.0
        f0 = float(envelope_ii.lower(u0))
        rows = drive_play(lambda t: u0, envelope_ii, 0.1, 10.0, f0)
        assert rows.shape == (100, 3)
        assert np.max(np.abs(rows[:, 2] - f0)) == 0.0

    def test_warming_from_deep_freeze_stays_above_lower_curve(self, envelope_ii):
        schedule = lambda t: -8.0 + t  # strictly increasing
        v0 = float(envelope_ii.upper(-8.0))
        rows = drive_play(schedule, envelope_ii, 0.01, 7.0, v0)
        lower = np.asarray(envelope_ii.lower(rows[:, 1]))
        assert np.all(rows[:, 2] >= lower - 1e-14)

    def test_oscillating_drive_containment(self, envelope_ii):
        def schedule(t):
            h = 8.0 if t < 4.0 else 4.0
            g = -2.0 if t < 4.0 else t / 2.0 - 8.0
            return h * math.cos(math.pi * t / 4.0) + g

        v0 = float(envelope_ii.lower(schedule(0.0)))
        rows = drive_play(schedule, envelope_ii, 3.75e-2, 30.0, v0)
        assert rows.shape[0] == 800
        u_prev = schedule(0.0)
        for t, u, chi in rows:
            beta = max(float(envelope_ii.upper(u_prev)) - float(envelope_ii.lower(u_prev)), 0.0)
            f_u = float(envelope_ii.lower(u))
            assert f_u - 1e-14 <= chi <= f_u + beta + 1e-14
            u_prev = u

    def test_two_condition_envelope_containment(self, envelope_iii):
        def schedule(t):
            h = 8.0 if t < 4.0 else 4.0
            g = -2.0 if t < 4.0 else t / 2.0 - 8.0
            return h * math.cos(math.pi * t / 4.0) + g

        v0 = float(envelope_iii.lower(schedule(0.0)))
        rows = drive_play(schedule, envelope_iii, 3.75e-2, 30.0, v0)
        u_prev = schedule(0.0)
        for t, u, chi in rows:
            beta = max(float(envelope_iii.upper(u_prev)) - float(envelope_iii.lower(u_prev)), 0.0)
            f_u = float(envelope_iii.lower(u))
            assert f_u - 1e-14 <= chi <= f_u + beta + 1e-14
            u_prev = u

    def test_strict_infeasible_start_raises(self, envelope_ii):
        with pytest.raises(InfeasibleState):
            drive_play(lambda t: -5.0, envelope_ii, 0.1, 1.0, 0.9, strict=True)

    def test_clamp_mode_warns(self, envelope_ii):
        with pytest.warns(RuntimeWarning):
            rows = drive_play(lambda t: -5.0, envelope_ii, 0.1, 1.0, 0.9, strict=False)
        assert rows[0, 2] == pytest.approx(float(envelope_ii.lower(-5.0)), abs=1e-14)

    @settings(derandomize=True, deadline=None)
    @given(
        amplitude=st.floats(0.5, 10.0),
        period=st.floats(0.5, 20.0),
        offset=st.floats(-8.0, 2.0),
        variant=st.sampled_from(["three-condition", "two-condition"]),
    )
    def test_random_drive_stays_in_lagged_envelope(self, amplitude, period, offset, variant):
        # F(u_n) <= chi_n <= F(u_n) + gap(u_{n-1}) for any drive and envelope
        env = calibrate_envelope(1.0, 0.1, -5.0, variant)

        def schedule(t):
            return offset + amplitude * math.sin(2.0 * math.pi * t / period)

        rows = drive_play(schedule, env, 0.05, 10.0, float(env.lower(schedule(0.0))))
        u = rows[:, 1]
        u_prev = np.concatenate(([schedule(0.0)], u[:-1]))
        f_u = np.asarray(env.lower(u))
        chi = rows[:, 2]
        assert np.all(chi >= f_u - 1e-12)
        assert np.all(chi <= f_u + np.asarray(env.gap(u_prev)) + 1e-12)


def assert_matches_per_step_loop(schedule, env, tau, T, v_init):
    # an infeasible start is clamped, with a warning, on both sides
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = drive_play(schedule, env, tau, T, v_init, strict=False)
    assert np.array_equal(rows, drive_play_per_step(schedule, env, tau, T, v_init))


class TestWholeDrive:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        b=st.floats(0.5, 12.0),
        b_bar=st.sampled_from([0.01, 0.1]),
        theta0=st.floats(-8.0, -1.0),
        variant=st.sampled_from(["three-condition", "two-condition"]),
        tau=st.sampled_from([3.75e-3, 1e-2, 3.75e-2]),
        u_min=st.floats(-800.0, -8.0),
        u_max=st.floats(0.5, 10.0),
        period=st.floats(0.1, 4.0),
        v_init=st.floats(0.0, 1.0),
    )
    @example(b=10.0, b_bar=0.1, theta0=-5.0, variant="three-condition", tau=1e-2,
             u_min=-90.0, u_max=1.0, period=1.0, v_init=0.0)
    def test_sine_drive_matches_per_step_loop(
        self, b, b_bar, theta0, variant, tau, u_min, u_max, period, v_init
    ):
        # every drive crosses theta0 and 0; u_min reaches below EXP_FLOOR/b
        # whenever b*u_min < EXP_FLOOR, as in the explicit example
        env = calibrate_envelope(b, b_bar, theta0, variant)
        mid, half = 0.5 * (u_max + u_min), 0.5 * (u_max - u_min)

        def schedule(t):
            return mid + half * math.cos(2.0 * math.pi * t / period)

        assert_matches_per_step_loop(schedule, env, tau, 1.5, v_init)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, -5.0, 5e-324, -5e-324, EXP_FLOOR,
                                 float(np.nextafter(EXP_FLOOR, -np.inf)), -1e4]),
                st.floats(-1e3, 10.0),
            ),
            min_size=2,
            max_size=40,
        ),
        variant=st.sampled_from(["three-condition", "two-condition"]),
        v_init=st.floats(0.0, 1.0),
    )
    def test_drive_through_the_kinks_matches_per_step_loop(self, values, variant, v_init):
        # temperatures exactly at 0, -0, theta0 = -5, the exp floor (b = 1)
        # and just past it
        env = calibrate_envelope(1.0, 0.1, -5.0, variant)
        tau = 0.01

        def schedule(t):
            return values[int(round(t / tau))]

        assert_matches_per_step_loop(schedule, env, tau, (len(values) - 1) * tau, v_init)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1, 1025])
    def test_block_edges_match_per_step_loop(self, envelope_ii, offset):
        # one step, and one block of steps less one, exactly, plus one and
        # plus a further block and one: the clamp runs on across each block
        n_steps = 1 if offset is None else BLOCK_STEPS + offset

        def schedule(t):
            return 2.0 - 6.0 * math.cos(0.9 * t)

        assert_matches_per_step_loop(schedule, envelope_ii, 0.01, n_steps * 0.01, 0.3)
