import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from cryostef.constitutive import (
    EXP_FLOOR,
    HysteresisEnvelope,
    PointwiseLaws,
    ScaledMaterial,
    calibrate_envelope,
    capacity_derivative,
    capacity_energy,
    conductivity,
    conductivity_derivative,
    equilibrium_fraction,
    fraction_derivative,
)
from cryostef.errors import DegenerateCalibration


class TestEquilibriumFraction:
    def test_saturated_at_zero(self):
        assert float(equilibrium_fraction(0.0, 1.0)) == 1.0

    def test_constant_above_zero(self):
        assert float(equilibrium_fraction(7.3, 0.5)) == 1.0

    def test_exponential_branch(self):
        # direct evaluation of the exponential oracle
        assert float(equilibrium_fraction(-5.0, 1.0)) == pytest.approx(math.exp(-5.0), abs=1e-15)
        assert float(equilibrium_fraction(-5.0, 1.0)) == pytest.approx(6.73794700e-3, abs=1e-10)

    def test_underflow_is_exact_zero(self):
        assert float(equilibrium_fraction(-800.0, 1.0)) == 0.0

    def test_rejects_nonpositive_steepness(self):
        with pytest.raises(ValueError):
            equilibrium_fraction(0.0, 0.0)
        with pytest.raises(ValueError):
            ScaledMaterial(b=-1.0, c_u=1.0, c_f=1.0, k_u=1.0, k_f=1.0)

    def test_monotone_lipschitz_bounded(self, rng):
        b = 1.0
        u = np.sort(rng.uniform(-50.0, 10.0, size=4000))
        f = equilibrium_fraction(u, b)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        lips = np.abs(np.diff(f)) / np.diff(u)
        assert np.all(lips <= b + 1e-12)


class TestCapacityEnergy:
    def test_zero_at_zero(self, material):
        assert float(capacity_energy(0.0, material)) == 0.0

    def test_positive_branch(self, material):
        assert float(capacity_energy(1.0, material)) == pytest.approx(2.94e-2, abs=1e-15)

    def test_frozen_branch_value(self, material):
        # direct evaluation: (c_u-c_f)(e^{-5}-1)/b + c_f*(-5)
        expected = 7.3e-3 * (math.exp(-5.0) - 1.0) + 2.21e-2 * (-5.0)
        got = float(capacity_energy(-5.0, material))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.11775, abs=1e-5)

    def test_matches_quadrature(self, material, rng):
        # c(u) = integral of (c_u - c_f) F + c_f from 0 to u
        def integrand(v):
            return (material.c_u - material.c_f) * float(
                equilibrium_fraction(v, material.b)
            ) + material.c_f

        for u in rng.uniform(-12.0, 6.0, size=12):
            ref, _ = quad(integrand, 0.0, u, points=[0.0], limit=200)
            assert float(capacity_energy(u, material)) == pytest.approx(ref, abs=1e-8)

    def test_strictly_increasing(self, material, rng):
        u = rng.uniform(-30.0, 10.0, size=(500, 2))
        u1, u2 = u[:, 0], u[:, 1]
        mask = u1 != u2
        c1 = capacity_energy(u1[mask], material)
        c2 = capacity_energy(u2[mask], material)
        assert np.all((c1 - c2) * (u1[mask] - u2[mask]) > 0.0)


class TestConductivity:
    def test_thawed_value(self, material):
        assert float(conductivity(2.0, material)) == pytest.approx(material.k_u, abs=1e-15)

    def test_deep_frozen_limit(self, material):
        assert float(conductivity(-700.0, material)) == pytest.approx(material.k_f, abs=1e-12)

    def test_frozen_branch_value(self, material):
        expected = 2.06e-2 + (1.51e-2 - 2.06e-2) * math.exp(-5.0)
        got = float(conductivity(-5.0, material))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(2.05629e-2, abs=1e-7)

    def test_bounded_between_branch_values(self, material, rng):
        u = rng.uniform(-100.0, 20.0, size=2000)
        k = conductivity(u, material)
        lo, hi = min(material.k_u, material.k_f), max(material.k_u, material.k_f)
        assert np.all(k >= lo - 1e-15) and np.all(k <= hi + 1e-15)


class TestDerivatives:
    def test_fraction_kink_convention(self):
        assert float(fraction_derivative(1.0, 1.0)) == 0.0
        assert float(fraction_derivative(0.0, 1.0)) == 1.0

    def test_capacity_derivative_value(self, material):
        expected = 7.3e-3 * math.exp(-2.0) + 2.21e-2
        got = float(capacity_derivative(-2.0, material))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(2.30879e-2, abs=1e-7)
        # finite-difference cross-check, h=1e-7
        h = 1e-7
        fd = (
            float(capacity_energy(-2.0 + h, material))
            - float(capacity_energy(-2.0 - h, material))
        ) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_all_derivatives_match_central_differences(self, material, rng):
        h = 1e-6
        u = rng.uniform(-8.0, 5.0, size=200)
        u = u[np.abs(u) > 1e-2]  # stay away from the kink
        pairs = [
            (lambda v: equilibrium_fraction(v, material.b), lambda v: fraction_derivative(v, material.b)),
            (lambda v: capacity_energy(v, material), lambda v: capacity_derivative(v, material)),
            (lambda v: conductivity(v, material), lambda v: conductivity_derivative(v, material)),
        ]
        for fn, dfn in pairs:
            fd = (np.asarray(fn(u + h)) - np.asarray(fn(u - h))) / (2 * h)
            analytic = np.asarray(dfn(u))
            scale = np.maximum(np.abs(fd), 1e-12)
            assert np.all(np.abs(analytic - fd) / scale <= 1e-5)


class TestCalibration:
    def test_three_condition_case_i(self, envelope_i):
        assert envelope_i.a == pytest.approx(9.5795, abs=1e-3)
        assert envelope_i.D == pytest.approx(-0.5598, abs=1e-3)
        assert envelope_i.C == pytest.approx(-8.5795, abs=1e-3)

    def test_three_condition_case_ii(self, envelope_ii):
        assert envelope_ii.a == pytest.approx(793.62, abs=1e-2)
        assert envelope_ii.D == pytest.approx(-7.5424, abs=1e-3)
        assert envelope_ii.C == pytest.approx(-792.6225, abs=1e-2)

    def test_two_condition_case_iii(self, envelope_iii):
        assert envelope_iii.a == pytest.approx(2.3269, abs=1e-3)
        assert envelope_iii.C == pytest.approx(0.0274, abs=1e-3)
        assert envelope_iii.D == 0.0

    @pytest.mark.parametrize("variant", ["three-condition", "two-condition"])
    def test_constants_are_plain_floats(self, variant):
        # the scalar steppers compute on them once per Newton iterate
        env = calibrate_envelope(1.0, 0.1, -5.0, variant)
        assert all(type(value) is float for value in (env.a, env.C, env.D))

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateCalibration):
            calibrate_envelope(1.0, 1e-8, -5.0)
        with pytest.raises(DegenerateCalibration):
            calibrate_envelope(1.0, 1e-300, -5.0, "two-condition")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            calibrate_envelope(0.0, 0.1, -5.0)
        with pytest.raises(ValueError):
            calibrate_envelope(1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            calibrate_envelope(1.0, 0.1, -5.0, "bogus")


class TestEnvelope:
    @pytest.mark.parametrize("case", ["envelope_i", "envelope_ii", "envelope_iii"])
    def test_matches_lower_curve_at_join_points(self, case, request):
        env = request.getfixturevalue(case)
        assert float(env.upper(env.theta0)) == pytest.approx(float(env.lower(env.theta0)), abs=1e-12)
        assert float(env.upper(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_slope_match_three_condition(self, envelope_i, envelope_ii, envelope_iii):
        # slope of the calibrated branch a*b_bar*e^{b_bar*theta} + D at theta0
        # must equal the lower-curve slope b*e^{b*theta0}
        for env in (envelope_i, envelope_ii, envelope_iii):
            g_slope = env.a * env.b_bar * math.exp(env.b_bar * env.theta0) + env.D
            f_slope = env.b * math.exp(env.b * env.theta0)
            assert g_slope == pytest.approx(f_slope, rel=1e-12)

    @pytest.mark.parametrize("case", ["envelope_i", "envelope_ii", "envelope_iii"])
    def test_upper_dominates_lower_and_agrees_outside(self, case, request):
        env = request.getfixturevalue(case)
        thetas = np.linspace(env.theta0 - 2.0, 2.0, 10000)
        upper = np.asarray(env.upper(thetas))
        lower = np.asarray(env.lower(thetas))
        assert np.all(upper >= lower - 1e-12)
        outside = (thetas < env.theta0) | (thetas > 0.0)
        assert np.max(np.abs(upper[outside] - lower[outside])) <= 1e-12

    def test_calibrated_zone_value_case_i(self, envelope_i):
        # direct evaluation of the calibrated formula at theta=-2
        env = envelope_i
        expected = env.a * math.exp(env.b_bar * -2.0) + env.D * -2.0 + env.C
        got = float(env.upper(-2.0))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got >= math.exp(-1.4)

    def test_example_values_case_i(self, envelope_i):
        assert float(envelope_i.upper(envelope_i.theta0)) == pytest.approx(math.exp(-3.5), abs=1e-12)

    def test_gap_nonnegative(self, envelope_ii):
        thetas = np.linspace(-8.0, 2.0, 500)
        assert np.all(np.asarray(envelope_ii.gap(thetas)) >= 0.0)


def _reference_laws(u, m):
    # each law as a standalone formula with its own exponential, the same
    # floating-point operations in the same order as the shared evaluation
    def exp_floored(z):
        return np.where(z < EXP_FLOOR, 0.0, np.exp(np.maximum(z, EXP_FLOOR)))

    bu = np.minimum(m.b * u, 0.0)
    fraction = np.where(u >= 0.0, 1.0, exp_floored(bu))
    return {
        "fraction": fraction,
        "fraction_slope": np.where(u > 0.0, 0.0, m.b * exp_floored(bu)),
        "capacity_energy": np.where(
            u > 0.0, m.c_u * u, (m.c_u - m.c_f) * (exp_floored(bu) - 1.0) / m.b + m.c_f * u
        ),
        "capacity_slope": np.where(u > 0.0, m.c_u, (m.c_u - m.c_f) * exp_floored(bu) + m.c_f),
        "conductivity": m.k_f + (m.k_u - m.k_f) * fraction,
    }


_positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _states(draw):
    # the kink, signed zeros, tiny and huge magnitudes, and b*u at and just
    # past the exp floor, mixed with arbitrary finite temperatures
    b = draw(st.floats(min_value=0.05, max_value=20.0))
    floor = EXP_FLOOR / b
    special = st.sampled_from([
        0.0, -0.0, -5e-324, -1e-300, -1e-12, 1e-300, 1e300, -1e300,
        floor, np.nextafter(floor, 0.0), np.nextafter(floor, -np.inf), 2.0 * floor,
    ])
    cells = st.one_of(special, st.floats(min_value=-1e300, max_value=1e300))
    u = draw(arrays(float, st.integers(1, 40), elements=cells))
    m = ScaledMaterial(b=b, c_u=draw(_positive), c_f=draw(_positive), k_u=draw(_positive),
                       k_f=draw(_positive))
    return u, m


class TestPointwiseLaws:
    @settings(max_examples=300, deadline=None)
    @given(_states())
    def test_shared_evaluation_equals_each_law_bit_for_bit(self, state):
        u, m = state
        laws = PointwiseLaws(u, m.b)
        # read in the order a Newton iterate reads them, fraction first
        shared = {
            "fraction": laws.fraction,
            "capacity_energy": laws.capacity_energy(m),
            "conductivity": laws.conductivity(m),
            "capacity_slope": laws.capacity_slope(m),
            "fraction_slope": laws.fraction_slope(),
        }
        public = {
            "fraction": equilibrium_fraction(u, m.b),
            "fraction_slope": fraction_derivative(u, m.b),
            "capacity_energy": capacity_energy(u, m),
            "capacity_slope": capacity_derivative(u, m),
            "conductivity": conductivity(u, m),
        }
        reference = _reference_laws(u, m)
        for name, value in shared.items():
            assert np.array_equal(value, public[name]), name
            assert np.array_equal(value, reference[name]), name
        # the kink conventions: the fraction saturates at u = 0, its slope
        # takes the frozen side there
        at_kink = u == 0.0
        assert np.all(shared["fraction"][at_kink] == 1.0)
        assert np.all(shared["fraction_slope"][at_kink] == m.b)
