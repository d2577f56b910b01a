"""Tests for the residue route: pointwise weight and binned density."""

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
    weight,
    weight_coefficients,
    weight_from_residues,
)

S = SUPPORT_RADIUS


# ---------------------------------------------------------------------------
# pointwise residue weight
# ---------------------------------------------------------------------------


def test_axis_frequencies_are_rejected():
    # |x| this small feeds k within 1e-12 of pi/2, where the sign factors degenerate
    for x in (1e-13, -1e-13, np.array([0.3, 1e-13])):
        with pytest.raises(ValueError, match="coordinate axis"):
            weight_from_residues(x, 0.5, InitialStateAngles(1.0, 0.0))


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
    for x in (0.0, S, -S, 0.9, math.nan, np.array([0.2, -0.3, 0.9])):
        with pytest.raises(ValueError, match="need 0 <"):
            weight_from_residues(x, 0.5, init)


def test_array_evaluation_matches_float_calls(frozen):
    # the array route must give the frozen scalar code's bits point by point,
    # for both signs of x and in any array shape
    rng = np.random.default_rng(29)
    for _ in range(4):
        phi = float(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2.0)
        init = InitialStateAngles(math.cos(theta), math.sin(theta), rng.uniform(-3, 3))
        old_init = frozen.InitialStateAngles(init.a, init.b, init.phi12)
        xs = rng.uniform(-S + 1e-6, S - 1e-6, (6, 25))
        got = weight_from_residues(xs, phi, init)
        assert got.shape == xs.shape
        want = np.array(
            [frozen.weight_from_residues(x, phi, old_init) for x in xs.ravel().tolist()]
        ).reshape(xs.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        single = weight_from_residues(float(xs[0, 0]), phi, init)
        assert type(single) is float and single == want[0, 0]


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
