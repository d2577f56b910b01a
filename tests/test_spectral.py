"""Tests for the residue route: frequencies, residues, pointwise weight, binned density."""

import math
import warnings

import numpy as np
import pytest

from wojcikwalk import (
    CoarseKGridWarning,
    InitialStateAngles,
    SUPPORT_RADIUS,
    ac_density,
    density_via_k_integration,
    fixture,
    integrate_ac,
    residue_factors,
    weight,
    weight_coefficients,
    weight_from_residues,
    x_of_k,
)

S = SUPPORT_RADIUS


def interior_ks(n, seed=5):
    """Frequencies bounded away from the coordinate axes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = float(rng.uniform(0.0, 2.0 * math.pi))
        if min(abs(math.cos(k)), abs(math.sin(k))) > 1e-3:
            out.append(k)
    return out


# ---------------------------------------------------------------------------
# frequencies and abscissae
# ---------------------------------------------------------------------------


def test_x_of_k_spot_values():
    xp, xm = x_of_k(math.pi / 4.0)
    assert abs(xp - 1.0 / math.sqrt(3.0)) <= 1e-15
    assert xm == -xp
    xp2, _ = x_of_k(math.pi / 3.0)
    assert abs(xp2 - 1.0 / math.sqrt(5.0)) <= 1e-15
    # decreasing in |cos k| on (0, pi/2), bounded by the support radius
    ks = np.linspace(0.05, math.pi / 2.0 - 0.05, 30)
    vals = [x_of_k(float(k))[0] for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < S for v in vals)


def test_axis_frequencies_are_rejected():
    for k in (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi):
        with pytest.raises(ValueError):
            residue_factors(k, 1, 0.5, InitialStateAngles(1.0, 0.0))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def test_residue_factors_shape_and_signs():
    init = InitialStateAngles(0.6, 0.8, 0.4)
    for k in interior_ks(20):
        for branch in (1, -1):
            factors = residue_factors(k, branch, 0.3, init)
            for item in (factors.item1, factors.item2, factors.item3, factors.item4):
                assert math.isfinite(item)
                assert item >= 0.0
            assert (factors.x > 0.0) == (branch == 1)
            assert abs(factors.x) < S
            assert math.isfinite(factors.product())
    with pytest.raises(ValueError):
        residue_factors(1.0, 0, 0.3, init)


def test_residue_weight_matches_closed_forms():
    xs = np.linspace(-S + 0.02, S - 0.02, 41)
    for case_id in ("hadamard_10", "halfphase_10", "halfphase_sym", "quarterphase_10"):
        case = fixture(case_id)
        for x in xs:
            if abs(x) < 0.02:
                continue
            got = weight_from_residues(float(x), case.phi, case.init)
            assert abs(got - case.weight_fn(float(x))) <= 1e-9, case_id


def test_residue_weight_matches_coefficients_for_random_configurations():
    rng = np.random.default_rng(23)
    xs = np.linspace(-S + 0.03, S - 0.03, 21)
    for _ in range(3):
        phi = float(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2.0)
        init = InitialStateAngles(math.cos(theta), math.sin(theta), rng.uniform(-3, 3))
        coeffs = weight_coefficients(phi, init)
        for x in xs:
            if abs(x) < 0.03:
                continue
            got = weight_from_residues(float(x), phi, init)
            assert abs(got - weight(float(x), coeffs)) <= 1e-8


def test_residue_weight_domain():
    init = InitialStateAngles(1.0, 0.0)
    for x in (0.0, S, -S, 0.9):
        with pytest.raises(ValueError):
            weight_from_residues(x, 0.5, init)


# ---------------------------------------------------------------------------
# binned k integration
# ---------------------------------------------------------------------------


def test_binned_density_matches_per_bin_integrals():
    case = fixture("halfphase_10")
    coeffs = weight_coefficients(case.phi, case.init)
    binned = density_via_k_integration(case.phi, case.init, n_k=10**5, bins=40)
    assert binned.masses.shape == (40,)
    assert binned.centers().shape == (40,)
    for lo, hi, mass in zip(binned.bin_edges[:-1], binned.bin_edges[1:], binned.masses):
        want = integrate_ac(
            lambda x: ac_density(x, coeffs), 1e-9, lo=float(lo), hi=float(hi)
        ).value
        assert abs(mass - want) <= 1e-4


def test_binned_density_total_is_continuous_mass():
    case = fixture("halfphase_10")
    binned = density_via_k_integration(case.phi, case.init, n_k=10**5, bins=40)
    assert abs(binned.total() - case.ac_integral) <= 1e-6
    plain = fixture("hadamard_10")
    full = density_via_k_integration(plain.phi, plain.init, n_k=10**5, bins=40)
    assert abs(full.total() - 1.0) <= 1e-5


def test_binned_density_mirror_symmetry_for_symmetric_state():
    case = fixture("halfphase_sym")
    binned = density_via_k_integration(case.phi, case.init, n_k=10**5, bins=40)
    assert np.max(np.abs(binned.masses - binned.masses[::-1])) <= 1e-12


def test_grid_rounding_avoids_axes():
    case = fixture("quarterphase_10")
    binned = density_via_k_integration(case.phi, case.init, n_k=10**4 + 3, bins=20)
    assert np.all(np.isfinite(binned.masses))
    assert abs(binned.total() - case.ac_integral) <= 1e-3


def test_coarse_grid_warning():
    case = fixture("halfphase_10")
    with pytest.warns(CoarseKGridWarning):
        density_via_k_integration(case.phi, case.init, n_k=10**4, bins=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CoarseKGridWarning)
        density_via_k_integration(case.phi, case.init, n_k=10**5, bins=40)


def test_grid_parameter_validation():
    init = InitialStateAngles(1.0, 0.0)
    with pytest.raises(ValueError):
        density_via_k_integration(0.5, init, n_k=9_999, bins=40)
    with pytest.raises(ValueError):
        density_via_k_integration(0.5, init, n_k=10**5, bins=19)
