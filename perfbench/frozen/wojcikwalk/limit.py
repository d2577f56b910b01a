"""Analytic weak-limit measure of the defect walk.

The rescaled position X_t / t converges to an atom C at the origin plus an
absolutely continuous part w(x) * f_K(x; 1/sqrt(2)) on (-1/sqrt(2), 1/sqrt(2)).
f_K is the arcsine-like Konno density of the defect-free Hadamard walk; the
rational weight w carries the whole dependence on the defect phase and the
initial spinor.  This module evaluates both factors exactly as stated by the
weak-convergence result:

    w(x) = (t3*x^5 + t2*x^4 + t1*x^3 + t0*x^2) / (s2*x^4 + s1*x^2 + s0)

with one numerator branch for x >= 0 and another for x < 0, and the atom is
recovered as C = 1 - integral of the continuous part.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .quadrature import SUPPORT_RADIUS, QuadratureResult, integrate_ac

__all__ = [
    "SUPPORT_RADIUS",
    "DegenerateDenominatorError",
    "InitialStateAngles",
    "WeightCoefficients",
    "LimitMeasure",
    "konno_density",
    "weight_coefficients",
    "weight",
    "ac_density",
    "atom_mass",
    "example_fixture",
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


class DegenerateDenominatorError(ArithmeticError):
    """The weight denominator vanished away from the removable x = 0 point.

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
    """Initial spinor in the form (a, b, phi12).

    a and b are the moduli of the two components, phi12 their relative
    phase.  The limit measure only ever sees this combination; a global
    phase drops out.
    """

    a: float
    b: float
    phi12: float = 0.0

    def __post_init__(self) -> None:
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("amplitude moduli a, b must be nonnegative")
        norm = self.a * self.a + self.b * self.b
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state not normalized: a^2 + b^2 = {norm!r}")

    @classmethod
    def from_phases(cls, a: float, phi1: float, b: float, phi2: float) -> "InitialStateAngles":
        return cls(a=a, b=b, phi12=phi1 - phi2)


@dataclass(frozen=True)
class WeightCoefficients:
    """All coefficients of the rational weight for one (phi, init) pair.

    s0, s1, s2 form the even denominator; the two t-tuples are the numerator
    coefficients on the x >= 0 and x < 0 branches; a1..a3, b1..b3 are the
    intermediate initial-state combinations they are built from.
    """

    phi: float
    s0: float
    s1: float
    s2: float
    t0_pos: float
    t1_pos: float
    t2_pos: float
    t3_pos: float
    t0_neg: float
    t1_neg: float
    t2_neg: float
    t3_neg: float
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class LimitMeasure:
    """Atom mass plus the coefficients of the continuous part."""

    atom: float
    coefficients: WeightCoefficients
    support_bound: float = SUPPORT_RADIUS

    @classmethod
    def for_configuration(
        cls, phi: float, init: InitialStateAngles, tol: float = 1e-10
    ) -> "LimitMeasure":
        coeffs = weight_coefficients(phi, init)
        return cls(atom=atom_mass(coeffs, tol), coefficients=coeffs)


def konno_density(x: float, a: float) -> float:
    """Arcsine-type density sqrt(1-a^2) / (pi (1-x^2) sqrt(a^2-x^2)) on (-a, a)."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"scale parameter a must lie in (0, 1), got {a!r}")
    if abs(x) >= a:
        return 0.0
    return math.sqrt(1.0 - a * a) / (
        math.pi * (1.0 - x * x) * math.sqrt(a * a - x * x)
    )


def weight_coefficients(phi: float, init: InitialStateAngles) -> WeightCoefficients:
    """Evaluate every coefficient of the weight for one configuration.

    Also scans the denominator over the support as a guard against a
    degenerate configuration (none is known to exist) and checks that the
    resulting density is nonnegative, since both properties are assumed
    downstream.
    """
    if not (0.0 <= phi < 1.0):
        raise ValueError(f"phi must lie in [0, 1), got {phi!r}")
    a = init.a
    b = init.b
    p12 = init.phi12

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

    coeffs = WeightCoefficients(
        phi=phi,
        s0=s0,
        s1=s1,
        s2=s2,
        t0_pos=-4.0 * sinp_sq * (a3 * sin2 - a1),
        t1_pos=4.0 * a2 * sinp_sq,
        t2_pos=a1 * cos4 + 8.0 * a3 * sinp_sq * sin2,
        t3_pos=a2 * cos4,
        t0_neg=-4.0 * sinp_sq * (b3 * sin2 - b1),
        t1_neg=-4.0 * b2 * sinp_sq,
        t2_neg=b1 * cos4 + 8.0 * b3 * sinp_sq * sin2,
        t3_neg=-b2 * cos4,
        a1=a1,
        a2=a2,
        a3=a3,
        b1=b1,
        b2=b2,
        b3=b3,
    )
    _validate_on_support(coeffs)
    return coeffs


def _validate_on_support(coeffs: WeightCoefficients, points: int = 401) -> None:
    """Reject degenerate denominators and negative densities early."""
    span = SUPPORT_RADIUS - 1e-6
    for i in range(points):
        x = -span + (2.0 * span) * i / (points - 1)
        w = weight(x, coeffs)  # raises DegenerateDenominatorError itself
        if w < -1e-12:
            raise ValueError(
                f"weight is negative ({w!r} at x={x!r}) for phi={coeffs.phi!r}; "
                "configuration outside the validated regime"
            )


def weight(x: float, coeffs: WeightCoefficients) -> float:
    """Rational weight w(x) on (-1/sqrt(2), 1/sqrt(2)).

    The numerator branch switches at x = 0 (the x >= 0 branch owns the
    boundary point).  When the lower denominator coefficients vanish the
    x = 0 value is the removable limit: t0/s1 if only s0 = 0, t2/s2 if
    s0 = s1 = 0.
    """
    if abs(x) >= SUPPORT_RADIUS:
        raise ValueError(f"weight is defined on |x| < 1/sqrt(2), got x={x!r}")
    # |x| below any physically meaningful scale: evaluate the x = 0 limit
    # instead of risking underflow of x^4 in the denominator.
    if abs(x) < 1e-80:
        if coeffs.s0 > _COEFF_ZERO:
            return 0.0
        if coeffs.s1 > _COEFF_ZERO:
            return coeffs.t0_pos / coeffs.s1
        return coeffs.t2_pos / coeffs.s2
    if x > 0.0:
        t0, t1, t2, t3 = coeffs.t0_pos, coeffs.t1_pos, coeffs.t2_pos, coeffs.t3_pos
    else:
        t0, t1, t2, t3 = coeffs.t0_neg, coeffs.t1_neg, coeffs.t2_neg, coeffs.t3_neg
    x2 = x * x
    num = ((t3 * x + t2) * x + t1) * x * x2 + t0 * x2
    den = (coeffs.s2 * x2 + coeffs.s1) * x2 + coeffs.s0
    scale = (abs(coeffs.s2) * x2 + abs(coeffs.s1)) * x2 + abs(coeffs.s0)
    if den <= 0.0 or den < _DEGENERATE_RTOL * scale:
        raise DegenerateDenominatorError(x, coeffs.phi)
    return num / den


def ac_density(x: float, coeffs: WeightCoefficients) -> float:
    """Continuous part w(x) * f_K(x; 1/sqrt(2)); zero outside the support."""
    if abs(x) >= SUPPORT_RADIUS:
        return 0.0
    return weight(x, coeffs) * konno_density(x, SUPPORT_RADIUS)


def atom_mass(coeffs: WeightCoefficients, tol: float = 1e-10) -> float:
    """Atom C = 1 - integral of the continuous part.

    The integral is evaluated with the endpoint-absorbing quadrature at
    tolerance ``tol``.  A raw value outside [0, 1] by more than ``tol``
    triggers a warning before clamping.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    result: QuadratureResult = integrate_ac(lambda x: ac_density(x, coeffs), tol)
    raw = 1.0 - result.value
    if raw < -tol or raw > 1.0 + tol:
        warnings.warn(
            f"atom mass {raw!r} outside [0, 1] beyond tol={tol:g}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(1.0, max(0.0, raw))


# ---------------------------------------------------------------------------
# Reference configurations with closed-form weights, used as test oracles
# and by the verification command.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleFixture:
    """One reference configuration and its externally known values."""

    case_id: str
    phi: float
    init: InitialStateAngles
    weight_fn: Callable[[float], float]
    ac_integral: float
    atom: float


def _w_hadamard_10(x: float) -> float:
    return 1.0 - x


def _w_hadamard_sym(x: float) -> float:
    return 1.0


def _w_halfphase_10(x: float) -> float:
    if x >= 0.0:
        return (-(x**3) + 5.0 * x * x) / (x * x + 4.0)
    return (-(x**3) + x * x) / (x * x + 4.0)


def _w_halfphase_sym(x: float) -> float:
    return 3.0 * x * x / (4.0 + x * x)


def _w_quarterphase_10(x: float) -> float:
    if x >= 0.0:
        return (x**3 + 5.0 * x * x - 2.0 * x + 2.0) / (x * x + 4.0)
    return (x**3 - x * x - 2.0 * x + 2.0) / (x * x + 4.0)


def _w_quarterphase_sym(x: float) -> float:
    return 3.0 * x * x / (4.0 + x * x)


_SYM_INIT = InitialStateAngles(a=SUPPORT_RADIUS, b=SUPPORT_RADIUS, phi12=math.pi / 2.0)
_RIGHT_INIT = InitialStateAngles(a=1.0, b=0.0, phi12=0.0)

_FIXTURES: dict[str, ExampleFixture] = {
    f.case_id: f
    for f in (
        ExampleFixture("hadamard_10", 0.0, _RIGHT_INIT, _w_hadamard_10, 1.0, 0.0),
        ExampleFixture("hadamard_sym", 0.0, _SYM_INIT, _w_hadamard_sym, 1.0, 0.0),
        ExampleFixture("halfphase_10", 0.5, _RIGHT_INIT, _w_halfphase_10, 0.2, 0.8),
        ExampleFixture("halfphase_sym", 0.5, _SYM_INIT, _w_halfphase_sym, 0.2, 0.8),
        ExampleFixture("quarterphase_10", 0.25, _RIGHT_INIT, _w_quarterphase_10, 0.6, 0.4),
        ExampleFixture("quarterphase_sym", 0.25, _SYM_INIT, _w_quarterphase_sym, 0.2, 0.8),
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


def example_fixture(case_id: str) -> Callable[[float], float]:
    """Closed-form weight function of one reference configuration."""
    return fixture(case_id).weight_fn


def _angle_distance(u: float, v: float) -> float:
    return abs(cmath.phase(cmath.exp(1j * (u - v))))


def match_fixture(
    phi: float, init: InitialStateAngles, tol: float = 1e-9
) -> str | None:
    """Case id of the reference configuration matching (phi, init), if any.

    The relative phase is compared modulo 2*pi and ignored when either
    modulus vanishes (it is unobservable there).
    """
    for case in _FIXTURES.values():
        if abs(phi - case.phi) > tol:
            continue
        if abs(init.a - case.init.a) > tol or abs(init.b - case.init.b) > tol:
            continue
        phase_free = min(init.a, init.b) <= tol
        if phase_free or _angle_distance(init.phi12, case.init.phi12) <= tol:
            return case.case_id
    return None
