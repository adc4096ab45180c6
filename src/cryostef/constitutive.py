"""Closed-form material laws for the freeze/thaw model.

Temperature is expressed in scaled units with the phase change at zero.
The liquid fraction follows an exponential equilibrium curve below
freezing and saturates at one above it; heat capacity and conductivity
blend their frozen/unfrozen values through that same curve.  A second,
calibrated curve bounds the liquid fraction from above when the freezing
branch is allowed to lag behind the thawing branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCalibration

# exp() arguments below this floor underflow to exactly zero, which keeps
# the deeply frozen branch free of denormals.
EXP_FLOOR = -700.0

THREE_CONDITION = "three-condition"
TWO_CONDITION = "two-condition"

_CALIBRATION_EPS = 1e-14


def constant(value):
    """``value`` as a read-only 0-d float64 array.

    numpy takes such an operand in an array operation faster than a Python
    float, which it must first resolve as a weak scalar, and computes the
    same bits.
    """
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_ZERO = constant(0.0)
_ONE = constant(1.0)


def select(mask, value, out):
    """``np.where(mask, value, out)``, written into ``out`` when that is an array.

    ``out`` must be an array the caller made and owns.  An operation on 0-d
    operands gives a numpy scalar, which cannot be written into; ``np.where``
    then makes the 0-d result.
    """
    if type(out) is not np.ndarray:
        return np.where(mask, value, out)
    np.copyto(out, value, where=mask)
    return out


def _exp(z):
    # exp(z), exactly zero below the floor.  argmin finds the least z, or
    # the first NaN, which hides whether any z is below the floor
    e = np.exp(z)
    if not z.ndim or (z.size and not z.ravel()[z.argmin()] >= EXP_FLOOR):
        # np.where also makes a 0-d array of the scalar exp gives a 0-d z
        e = np.where(z < EXP_FLOOR, _ZERO, e)
    return e


class PointwiseLaws:
    """Every pointwise law at one temperature state ``u``, from one exponential.

    ``e = exp(b*min(u, 0))`` (zero below the exp floor) and the thawed mask
    ``u > 0`` are computed once, at construction: every Newton iterate of a
    step reads both.  ``e`` is the fraction itself: for ``u >= 0`` and a
    finite ``b`` the exponent is a zero, so ``e`` takes the thawed value 1
    from ``u >= 0`` on.  The fraction's slope, the sensible energy, its slope
    and the conductivity all follow from them.  The slope and the sensible
    energy switch branch only at ``u > 0``, so at the kink they take the
    frozen-side limit.  ``m`` supplies the material coefficients; the
    steepness is always ``b``, a float or a 0-d array.
    """

    __slots__ = ("u", "b", "e", "fraction", "thawed")

    def __init__(self, u, b):
        if not 0.0 < b < math.inf:
            raise ValueError(f"steepness must be positive and finite, got {b}")
        u = np.asarray(u, dtype=float)
        self.u = u
        self.b = b
        self.e = self.fraction = _exp(np.minimum(b * u, _ZERO))
        self.thawed = np.greater(u, _ZERO)

    def fraction_slope(self):
        return select(self.thawed, _ZERO, self.b * self.e)

    def capacity_energy(self, m):
        c = m.coefficients
        frozen = c.c_u_less_c_f * (self.e - _ONE) / self.b + c.c_f * self.u
        return select(self.thawed, c.c_u * self.u, frozen)

    def capacity_slope(self, m):
        c = m.coefficients
        return select(self.thawed, c.c_u, c.c_u_less_c_f * self.e + c.c_f)

    def conductivity(self, m):
        c = m.coefficients
        return c.k_f + c.k_u_less_k_f * self.fraction


def equilibrium_fraction(u, b):
    """Liquid fraction at temperature ``u``: exp(b*u) below zero, 1 above."""
    return PointwiseLaws(u, b).fraction


def fraction_derivative(u, b):
    """Slope of the equilibrium fraction; frozen-side limit b at the kink."""
    return PointwiseLaws(u, b).fraction_slope()


@dataclass(frozen=True)
class ScaledMaterial:
    """Scaled heat-capacity/conductivity coefficients and curve steepness.

    All coefficients are already divided by the latent-heat/porosity
    factor, so the energy density is ``c(u) + chi`` with ``chi`` the
    dimensionless liquid fraction.
    """

    b: float
    c_u: float
    c_f: float
    k_u: float
    k_f: float

    def __post_init__(self):
        for name in ("b", "c_u", "c_f", "k_u", "k_f"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @cached_property
    def coefficients(self):
        """The coefficients and the two differences the laws use, as 0-d float64 arrays."""
        return _Coefficients(self)


class _Coefficients:
    __slots__ = ("b", "c_u", "c_f", "k_f", "c_u_less_c_f", "k_u_less_k_f")

    def __init__(self, m):
        self.b, self.c_u, self.c_f, self.k_f = map(constant, (m.b, m.c_u, m.c_f, m.k_f))
        # the differences as the floats make them
        self.c_u_less_c_f = constant(m.c_u - m.c_f)
        self.k_u_less_k_f = constant(m.k_u - m.k_f)


def capacity_energy(u, m):
    """Sensible part of the energy density; continuous, zero at u=0."""
    return PointwiseLaws(u, m.b).capacity_energy(m)


def capacity_derivative(u, m):
    """Slope of the sensible energy; the two one-sided limits agree at 0."""
    return PointwiseLaws(u, m.b).capacity_slope(m)


def conductivity(u, m):
    """Heat conductivity blended between frozen and unfrozen values."""
    return PointwiseLaws(u, m.b).conductivity(m)


def conductivity_derivative(u, m):
    """Slope of the conductivity; frozen-side limit at the kink."""
    return (m.k_u - m.k_f) * fraction_derivative(u, m.b)


@dataclass(frozen=True)
class HysteresisEnvelope:
    """Lower/upper liquid-fraction curves bounding the hysteresis loop.

    The lower curve is the equilibrium fraction with steepness ``b``.  The
    upper curve equals the lower one outside ``[theta0, 0]`` and follows
    ``a*exp(b_bar*theta) + D*theta + C`` inside, capped at the saturation
    value 1 so that both curves meet at zero.
    """

    b: float
    b_bar: float
    theta0: float
    a: float
    C: float
    D: float

    def lower(self, theta):
        return equilibrium_fraction(theta, self.b)

    def upper(self, theta, lower=None):
        """Upper curve; ``lower`` is the lower curve at ``theta`` when the caller holds it."""
        theta = np.asarray(theta, dtype=float)
        t_mid = np.clip(theta, self.theta0, 0.0)
        g_mid = self.a * np.exp(self.b_bar * t_mid) + self.D * t_mid + self.C
        g_mid = np.minimum(g_mid, 1.0)
        inside = (theta >= self.theta0) & (theta <= 0.0)
        return np.where(inside, g_mid, self.lower(theta) if lower is None else lower)

    def gap(self, theta, lower=None):
        """Width of the envelope, clipped at zero against float rounding.

        ``lower`` is the lower curve at ``theta`` when the caller holds it.
        """
        if lower is None:
            lower = self.lower(theta)
        return np.maximum(self.upper(theta, lower) - lower, 0.0)


def calibrate_envelope(b, b_bar, theta0, variant=THREE_CONDITION):
    """Fit the upper-curve constants (a, C, D) to the lower curve.

    The three-condition variant matches value and slope at ``theta0`` and
    the value 1 at zero.  The two-condition variant matches value and
    slope at ``theta0`` only (D is zero there).
    """
    if not (b > 0.0 and b_bar > 0.0):
        raise ValueError("curve steepness must be positive")
    if not theta0 < 0.0:
        raise ValueError(f"match temperature must be negative, got {theta0}")

    eb = np.exp(b * theta0)
    ebb = np.exp(b_bar * theta0)
    if variant == THREE_CONDITION:
        num = eb - b * theta0 * eb - 1.0
        den = ebb - b_bar * theta0 * ebb - 1.0
        if abs(den) < _CALIBRATION_EPS:
            raise DegenerateCalibration(f"vanishing calibration denominator {float(den)!r}")
        a = num / den
        C = 1.0 - a
        D = b * eb - a * b_bar * ebb
    elif variant == TWO_CONDITION:
        den = b_bar * ebb
        if abs(den) < _CALIBRATION_EPS:
            raise DegenerateCalibration(f"vanishing calibration denominator {float(den)!r}")
        a = b * eb / den
        C = eb * (1.0 - b / b_bar)
        D = 0.0
    else:
        raise ValueError(f"unknown envelope variant {variant!r}")
    # plain floats, so the scalar steppers' arithmetic on them stays off numpy scalars
    return HysteresisEnvelope(b=b, b_bar=b_bar, theta0=theta0, a=float(a), C=float(C), D=float(D))
