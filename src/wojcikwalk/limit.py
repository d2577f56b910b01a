"""Analytic weak-limit measure of the defect walk.

The rescaled position X_t / t converges to an atom C at the origin plus an
absolutely continuous part w(x) * f_K(x; 1/sqrt(2)) on (-1/sqrt(2), 1/sqrt(2)).
f_K is the arcsine-like Konno density of the defect-free Hadamard walk; the
rational weight w carries the whole dependence on the defect phase and the
initial spinor.  This module evaluates both factors exactly as stated by the
weak-convergence result:

    w(x) = (t3*x^5 + t2*x^4 + t1*x^3 + t0*x^2) / (s2*x^4 + s1*x^2 + s0)

with one numerator branch for x >= 0 and another for x < 0, and the atom is
recovered as C = 1 - integral of the continuous part.  The evaluators take a
numpy array of abscissae and return an array of the same shape (a scalar in
gives a 0-d array out).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import SUPPORT_RADIUS, QuadratureResult, integrate_ac
from .walk import WalkParams, _check_spinor

__all__ = [
    "DegenerateDenominatorError",
    "InitialStateAngles",
    "WeightCoefficients",
    "konno_density",
    "weight_coefficients",
    "weight",
    "ac_density",
    "atom_mass",
    "atom_from_integral",
    "fixture",
    "match_fixture",
    "EXAMPLE_CASE_IDS",
    "ExampleFixture",
]

# Below this magnitude a denominator coefficient is an exact zero computed in
# rounded arithmetic (s0 and s1 are sums of O(1) trig products).
_COEFF_ZERO = 1e-20

# Relative cancellation threshold for the denominator; see weight().
_DEGENERATE_RTOL = 1e-12

# match_fixture's tolerance on the phase, the moduli and the relative phase:
# rounding only, since w moves by up to about 7 per unit of phi and verify
# holds a matched case to its closed form at 1e-12.
_MATCH_TOL = 1e-14


class DegenerateDenominatorError(ArithmeticError):
    """The weight denominator vanished away from the removable x = 0 point, or in its limit.

    Not expected for any defect phase; raised defensively so a silent 0/0
    can never leak into densities.  The offending abscissa is in ``x``.
    """

    def __init__(self, x: float, phi: float):
        super().__init__(
            f"weight denominator vanished at x={x!r} (defect phase {phi!r})"
        )
        self.x = x
        self.phi = phi


@dataclass(frozen=True)
class InitialStateAngles:
    """Initial spinor in the form (a, b, phi12), under ``WalkParams``'s rules.

    Superseded by ``walk.WalkParams``, which every route takes; kept only
    for the benchmark, which builds one with ``from_phases`` and passes it
    to ``spectral.density_via_k_integration``.
    """

    a: float
    b: float
    phi12: float = 0.0

    def __post_init__(self) -> None:
        _check_spinor(self.a, self.b, phi12=self.phi12)

    @classmethod
    def from_phases(cls, a: float, phi1: float, b: float, phi2: float) -> "InitialStateAngles":
        return cls(a=a, b=b, phi12=phi1 - phi2)


@dataclass(frozen=True)
class WeightCoefficients:
    """All coefficients of the rational weight for one configuration.

    s0, s1, s2 form the even denominator; ``pos`` and ``neg`` hold the
    numerator coefficients (t0, t1, t2, t3) on the x >= 0 and x < 0 branches.
    """

    phi: float
    s0: float
    s1: float
    s2: float
    pos: tuple[float, float, float, float]
    neg: tuple[float, float, float, float]


def _zero_outside(x, radius: float, inner: Callable[[np.ndarray], np.ndarray]):
    """``inner`` on the points of x with |x| < radius, 0 elsewhere.

    Points that are not >= radius in modulus (NaN included) go to ``inner``,
    so a NaN abscissa propagates instead of reading as "outside".
    """
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    inside = ~(np.abs(xs) >= radius)
    out[inside] = inner(xs[inside])
    return out


def konno_density(x, a: float):
    """Arcsine-type density sqrt(1-a^2) / (pi (1-x^2) sqrt(a^2-x^2)) on (-a, a)."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"scale parameter a must lie in (0, 1), got {a!r}")
    top = math.sqrt(1.0 - a * a)
    return _zero_outside(
        x, a, lambda u: top / (math.pi * (1.0 - u * u) * np.sqrt(a * a - u * u))
    )


def weight_coefficients(params: WalkParams) -> WeightCoefficients:
    """Evaluate every coefficient of the weight for one configuration.

    Of the initial spinor only ``a``, ``b`` and ``phi12`` are read, since a
    global phase drops out of the limit measure.  The two numerator
    branches are one formula of (c1, c2, c3): the walk's mirror maps the
    spinor (a, b, phi12) to (b, a, -phi12 - pi) and (a1, a2, a3) to
    (b1, b2, b3), so the x < 0 branch is the x >= 0 branch of the mirrored
    spinor at -x.  Going to -x negates t1 and t3, the coefficients of the
    odd powers; they are c2 times a factor and t0, t2 do not read c2, so
    that branch is the formula at (b1, -b2, b3).  Also scans the
    denominator over the support as a guard against a degenerate
    configuration (none is known to exist) and checks that the resulting
    density is nonnegative, since both properties are assumed downstream.
    """
    phi = params.phi
    a = params.a
    b = params.b
    p12 = params.phi12

    two_pi_phi = 2.0 * math.pi * phi
    cos2 = math.cos(two_pi_phi)
    sin2 = math.sin(two_pi_phi)
    cos4 = math.cos(2.0 * two_pi_phi)
    sinp_sq = math.sin(math.pi * phi) ** 2

    a1 = (
        1.0
        + 2.0 * a * a
        - 2.0 * a * b * math.cos(p12)
        - 2.0 * a * a * cos2
        + 2.0 * a * b * math.cos(p12 + two_pi_phi)
    )
    a2 = 1.0 - 2.0 * a * a - 2.0 * a * b * math.cos(p12)
    a3 = 2.0 * a * (a * sin2 - b * math.sin(p12 + two_pi_phi))

    b1 = (
        1.0
        + 2.0 * b * b
        + 2.0 * a * b * math.cos(p12)
        - 2.0 * a * b * math.cos(p12 - two_pi_phi)
        - 2.0 * b * b * cos2
    )
    b2 = 1.0 - 2.0 * b * b + 2.0 * a * b * math.cos(p12)
    b3 = 2.0 * b * (-a * math.sin(p12 - two_pi_phi) + b * sin2)

    s0 = 16.0 * sinp_sq * sinp_sq * cos2 * cos2
    s1 = 8.0 * sinp_sq * (cos4 + 4.0 * sinp_sq * sin2 * sin2)
    s2 = cos4 * cos4

    def numerator(c1: float, c2: float, c3: float) -> tuple[float, float, float, float]:
        return (
            -4.0 * sinp_sq * (c3 * sin2 - c1),
            4.0 * c2 * sinp_sq,
            c1 * cos4 + 8.0 * c3 * sinp_sq * sin2,
            c2 * cos4,
        )

    coeffs = WeightCoefficients(phi, s0, s1, s2, numerator(a1, a2, a3), numerator(b1, -b2, b3))
    _validate_on_support(coeffs)
    return coeffs


def _validate_on_support(coeffs: WeightCoefficients) -> None:
    """Reject degenerate denominators and negative densities early."""
    span = SUPPORT_RADIUS - 1e-6
    x = -span + (2.0 * span) * np.arange(401) / 400
    w = weight(x, coeffs)  # raises DegenerateDenominatorError itself
    negative = np.flatnonzero(w < -1e-12)
    if negative.size:
        i = negative[0]
        raise ValueError(
            f"weight is negative ({float(w[i])!r} at x={float(x[i])!r}) for phi={coeffs.phi!r}; "
            "configuration outside the validated regime"
        )


def weight(x, coeffs: WeightCoefficients):
    """Rational weight w(x) on (-1/sqrt(2), 1/sqrt(2)), array in, array of the same shape out.

    The numerator branch switches at x = 0 (the x >= 0 branch owns the
    boundary point).  When the lower denominator coefficients vanish the
    x = 0 value is the removable limit: t0/s1 if only s0 = 0, t2/s2 if
    s0 = s1 = 0.  Any point outside the support raises ValueError; a
    denominator at or below zero raises DegenerateDenominatorError, with
    x = 0.0 when it is the limit's s2.
    """
    xs = np.asarray(x, dtype=float)
    outside = np.abs(xs) >= SUPPORT_RADIUS
    if outside.any():
        bad = float(xs[outside][0])
        raise ValueError(f"weight is defined on |x| < 1/sqrt(2), got x={bad!r}")
    out = np.empty_like(xs)
    # |x| below any physically meaningful scale: evaluate the x = 0 limit
    # instead of risking underflow of x^4 in the denominator.
    tiny = np.abs(xs) < 1e-80
    if coeffs.s0 > _COEFF_ZERO:
        out[tiny] = 0.0
    elif coeffs.s1 > _COEFF_ZERO:
        out[tiny] = coeffs.pos[0] / coeffs.s1
    elif tiny.any():  # only then is t2/s2 needed, and s2 may be 0
        if not coeffs.s2 > 0.0:  # den ~ s2 x^4 <= 0 next to the origin
            raise DegenerateDenominatorError(0.0, coeffs.phi)
        out[tiny] = coeffs.pos[2] / coeffs.s2
    xr = xs[~tiny]
    t0, t1, t2, t3 = np.where(xr > 0.0, np.array(coeffs.pos)[:, None], np.array(coeffs.neg)[:, None])
    x2 = xr * xr
    num = ((t3 * xr + t2) * xr + t1) * xr * x2 + t0 * x2
    den = (coeffs.s2 * x2 + coeffs.s1) * x2 + coeffs.s0
    scale = (abs(coeffs.s2) * x2 + abs(coeffs.s1)) * x2 + abs(coeffs.s0)
    degenerate = (den <= 0.0) | (den < _DEGENERATE_RTOL * scale)
    if degenerate.any():
        raise DegenerateDenominatorError(float(xr[degenerate][0]), coeffs.phi)
    out[~tiny] = num / den
    return out


def ac_density(x, coeffs: WeightCoefficients):
    """Continuous part w(x) * f_K(x; 1/sqrt(2)); zero outside the support."""
    return _zero_outside(
        x, SUPPORT_RADIUS, lambda u: weight(u, coeffs) * konno_density(u, SUPPORT_RADIUS)
    )


def atom_from_integral(result: QuadratureResult, tol: float) -> float:
    """Atom C = 1 - integral of the continuous part, from its quadrature result.

    A raw value outside [0, 1] by more than ``tol`` triggers a warning before
    clamping.
    """
    raw = 1.0 - result.value
    if raw < -tol or raw > 1.0 + tol:
        warnings.warn(
            f"atom mass {raw!r} outside [0, 1] beyond tol={tol:g}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(1.0, max(0.0, raw))


def atom_mass(coeffs: WeightCoefficients, tol: float = 1e-10) -> float:
    """Atom C = 1 - integral of the continuous part.

    The integral is evaluated with the endpoint-absorbing quadrature at
    tolerance ``tol``; atom_from_integral clamps the result.
    """
    return atom_from_integral(integrate_ac(lambda x: ac_density(x, coeffs), tol), tol)


# ---------------------------------------------------------------------------
# Reference configurations with closed-form weights, used as test oracles
# and by the verification command.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleFixture:
    """One reference configuration and its externally known values."""

    case_id: str
    params: WalkParams
    weight_fn: Callable[[np.ndarray], np.ndarray]
    ac_integral: float
    atom: float


def _w_hadamard_10(x):
    return 1.0 - x


def _w_hadamard_sym(x):
    return np.ones_like(x, dtype=float)


def _w_halfphase_10(x):
    num = np.where(x >= 0.0, -(x**3) + 5.0 * x * x, -(x**3) + x * x)
    return num / (x * x + 4.0)


def _w_halfphase_sym(x):
    return 3.0 * x * x / (4.0 + x * x)


def _w_quarterphase_10(x):
    num = np.where(x >= 0.0, x**3 + 5.0 * x * x - 2.0 * x + 2.0, x**3 - x * x - 2.0 * x + 2.0)
    return num / (x * x + 4.0)


_RIGHT = (1.0, 0.0)  # a, b
_SYM = (SUPPORT_RADIUS, SUPPORT_RADIUS, math.pi / 2.0)  # a, b, phi1

_FIXTURES: dict[str, ExampleFixture] = {
    f.case_id: f
    for f in (
        ExampleFixture("hadamard_10", WalkParams(0.0, *_RIGHT), _w_hadamard_10, 1.0, 0.0),
        ExampleFixture("hadamard_sym", WalkParams(0.0, *_SYM), _w_hadamard_sym, 1.0, 0.0),
        ExampleFixture("halfphase_10", WalkParams(0.5, *_RIGHT), _w_halfphase_10, 0.2, 0.8),
        ExampleFixture("halfphase_sym", WalkParams(0.5, *_SYM), _w_halfphase_sym, 0.2, 0.8),
        ExampleFixture("quarterphase_10", WalkParams(0.25, *_RIGHT), _w_quarterphase_10, 0.6, 0.4),
        # the same weight as at phi = 1/2: 3x^2 / (4 + x^2)
        ExampleFixture("quarterphase_sym", WalkParams(0.25, *_SYM), _w_halfphase_sym, 0.2, 0.8),
    )
}

EXAMPLE_CASE_IDS: tuple[str, ...] = tuple(_FIXTURES)


def fixture(case_id: str) -> ExampleFixture:
    """Full fixture record (configuration plus reference values)."""
    try:
        return _FIXTURES[case_id]
    except KeyError:
        raise ValueError(
            f"unknown case_id {case_id!r}; choose from {', '.join(EXAMPLE_CASE_IDS)}"
        ) from None


def match_fixture(params: WalkParams) -> str | None:
    """Case id of the reference configuration matching ``params``, if any.

    Phase and moduli match up to rounding, within ``_MATCH_TOL`` = 1e-14: a
    configuration 1e-12 away is no reference case, since its weight is off
    the closed form by more than verify's 1e-12.  The relative phase is
    compared modulo 2*pi and ignored when either modulus vanishes (it is
    unobservable there); a global phase is ignored too.
    """
    for case in _FIXTURES.values():
        ref = case.params
        if abs(params.phi - ref.phi) > _MATCH_TOL:
            continue
        if abs(params.a - ref.a) > _MATCH_TOL or abs(params.b - ref.b) > _MATCH_TOL:
            continue
        phase_free = min(params.a, params.b) <= _MATCH_TOL
        if phase_free or abs(cmath.phase(cmath.exp(1j * (params.phi12 - ref.phi12)))) <= _MATCH_TOL:
            return case.case_id
    return None
