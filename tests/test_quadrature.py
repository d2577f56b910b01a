"""Tests for the endpoint-absorbing quadrature on the ballistic support."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from wojcikwalk import (
    SUPPORT_RADIUS,
    QuadratureConvergenceError,
    QuadratureResult,
    integrate_ac,
    konno_density,
    quadrature,
)

S = SUPPORT_RADIUS


def base_density(x):
    return konno_density(x, S)


def clipped_reference(density, delta0=1e-4):
    """Independent oracle: integrate on clipped intervals, extrapolate inward.

    The integrands blow up like an inverse square root at both endpoints, so
    the clipped integral behaves like I - c*sqrt(delta) - d*delta**1.5 + ...
    Two Richardson stages in sqrt(delta) remove both leading tail terms.
    """
    levels = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for j in range(3):
            delta = delta0 / 4**j
            val, _ = quad(
                density, -S + delta, S - delta, limit=400, epsabs=1e-13, epsrel=1e-13
            )
            levels.append(val)
    r01 = 2.0 * levels[1] - levels[0]
    r12 = 2.0 * levels[2] - levels[1]
    return (8.0 * r12 - r01) / 7.0


def test_base_density_normalizes():
    result = integrate_ac(base_density, 1e-10)
    assert abs(result.value - 1.0) <= 1e-12
    assert result.est_error <= 1e-10
    assert result.evaluations > 0


def test_matches_clipped_extrapolation_oracle():
    for density in (base_density, lambda x: x * x * base_density(x)):
        want = clipped_reference(density)
        got = integrate_ac(density, 1e-10).value
        assert abs(got - want) <= 1e-8


def test_second_moment_closed_form():
    # integral of x^2 f_K(x; a) over (-a, a) is 1 - sqrt(1 - a^2); here a^2 = 1/2
    result = integrate_ac(lambda x: x * x * base_density(x), 1e-10)
    assert abs(result.value - (1.0 - S)) <= 1e-12


def test_smooth_integrand_exact():
    result = integrate_ac(lambda x: np.ones_like(x), 1e-12)
    assert abs(result.value - 2.0 * S) <= 1e-13


def test_subinterval_additivity():
    cuts = [-S, -0.42, -0.1, 0.0, 0.2, 0.55, S]
    whole = integrate_ac(base_density, 1e-11).value
    parts = sum(
        integrate_ac(base_density, 1e-11, lo=lo, hi=hi).value
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )
    assert abs(whole - parts) <= 1e-12


def test_partial_interval_matches_direct_quadrature():
    # away from the endpoints the integrand is smooth and quad needs no help
    want, _ = quad(base_density, 0.1, 0.5, epsabs=1e-13, epsrel=1e-13)
    got = integrate_ac(base_density, 1e-11, lo=0.1, hi=0.5).value
    assert abs(got - want) <= 1e-11


def test_tolerance_validation():
    for tol in (0.0, -1e-9, 2e-2, 1.0):
        with pytest.raises(ValueError):
            integrate_ac(base_density, tol)


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate_ac(base_density, 1e-8, lo=0.3, hi=0.3)
    with pytest.raises(ValueError):
        integrate_ac(base_density, 1e-8, lo=0.5, hi=0.1)
    with pytest.raises(ValueError):
        integrate_ac(base_density, 1e-8, lo=-1.0, hi=0.5)
    with pytest.raises(ValueError):
        integrate_ac(base_density, 1e-8, lo=0.0, hi=0.8)


def test_budget_exhaustion_raises_and_estimates_shrink(monkeypatch):
    # square-root kink off center: panel doubling converges, but slowly
    kink = lambda x: np.sqrt(np.abs(x - 0.1))
    true_value = integrate_ac(kink, 1e-6).value
    estimates = []
    for budget in (300, 1200, 5000, 20000):
        monkeypatch.setattr(quadrature, "_BUDGET", budget)
        with pytest.raises(QuadratureConvergenceError, match=f"within {budget} evaluations") as excinfo:
            integrate_ac(kink, 1e-14)
        partial = excinfo.value.partial
        assert isinstance(partial, QuadratureResult)
        assert partial.evaluations <= budget
        assert math.isfinite(partial.value)
        estimates.append(partial.est_error)
    assert all(a > b for a, b in zip(estimates, estimates[1:]))
    # the partial values themselves home in on the true integral
    assert abs(partial.value - true_value) <= 1e-4


def test_converged_result_meets_tolerance():
    for tol in (1e-4, 1e-8, 1e-11):
        result = integrate_ac(base_density, tol)
        assert result.est_error <= tol
