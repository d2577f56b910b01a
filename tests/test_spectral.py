"""Tests for the residue route: pointwise weight and binned density."""

import math

import numpy as np
import pytest

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    SUPPORT_RADIUS,
    WalkParams,
    ac_density,
    density_via_k_integration,
    fixture,
    integrate_ac,
    weight,
    weight_coefficients,
    weight_from_residues,
)

S = SUPPORT_RADIUS


def oracle_configurations():
    """The six fixtures and eight seeded random configurations."""
    configs = [fixture(case).params for case in EXAMPLE_CASE_IDS]
    rng = np.random.default_rng(43)
    for _ in range(8):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = float(rng.uniform(0.0, 1.0))
        configs.append(WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3))))
    return configs


# ---------------------------------------------------------------------------
# pointwise residue weight
# ---------------------------------------------------------------------------


def test_axis_frequencies_are_rejected():
    # |x| this small feeds k within 1e-12 of pi/2, where the sign factors degenerate
    for x in (1e-13, -1e-13, np.array([0.3, 1e-13])):
        with pytest.raises(ValueError, match="coordinate axis"):
            weight_from_residues(x, WalkParams(0.5, 1.0, 0.0))


def test_residue_weight_near_the_origin_keeps_the_documented_accuracy():
    # the x -> k -> cos k round trip keeps k to about 1e-16 absolute, so the
    # relative error grows like 1/|x|: measured 1.6e-7 at x = 1e-9 and
    # 3.9e-7 at x = -1e-9
    init = WalkParams(0.3, 0.6, 0.8, phi1=0.0, phi2=1.0)
    coeffs = weight_coefficients(init)
    for x in (1e-9, -1e-9):
        want = weight(x, coeffs)
        assert abs(weight_from_residues(x, init) - want) <= 6e-7 * abs(want), x


def test_residue_weight_matches_closed_forms():
    xs = np.linspace(-S + 0.02, S - 0.02, 41)
    for case_id in ("hadamard_10", "halfphase_10", "halfphase_sym", "quarterphase_10"):
        case = fixture(case_id)
        for x in xs:
            if abs(x) < 0.02:
                continue
            got = weight_from_residues(float(x), case.params)
            assert abs(got - case.weight_fn(float(x))) <= 1e-9, case_id


def test_residue_weight_matches_coefficients_for_random_configurations():
    rng = np.random.default_rng(23)
    xs = np.linspace(-S + 0.03, S - 0.03, 21)
    for _ in range(3):
        phi = float(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2.0)
        init = WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        coeffs = weight_coefficients(init)
        for x in xs:
            if abs(x) < 0.03:
                continue
            got = weight_from_residues(float(x), init)
            assert abs(got - weight(float(x), coeffs)) <= 1e-8


def test_residue_weight_domain():
    init = WalkParams(0.5, 1.0, 0.0)
    for x in (0.0, S, -S, 0.9, math.nan, np.array([0.2, -0.3, 0.9])):
        with pytest.raises(ValueError, match="need 0 <"):
            weight_from_residues(x, init)


def test_array_evaluation_matches_float_calls(frozen):
    # the array route must give the frozen scalar code's bits point by point,
    # for both signs of x and in any array shape
    rng = np.random.default_rng(29)
    for _ in range(4):
        phi = float(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2.0)
        init = WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        old_init = frozen.InitialStateAngles(init.a, init.b, init.phi12)
        xs = rng.uniform(-S + 1e-6, S - 1e-6, (6, 25))
        got = weight_from_residues(xs, init)
        assert got.shape == xs.shape
        want = np.array(
            [frozen.weight_from_residues(x, phi, old_init) for x in xs.ravel().tolist()]
        ).reshape(xs.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        single = weight_from_residues(float(xs[0, 0]), init)
        assert type(single) is float and single == want[0, 0]
    for init in oracle_configurations():
        old_init = frozen.InitialStateAngles(init.a, init.b, init.phi12)
        xs = rng.uniform(-S + 1e-6, S - 1e-6, 24)
        want = [frozen.weight_from_residues(x, init.phi, old_init) for x in xs.tolist()]
        assert np.array_equal(weight_from_residues(xs, init).view(np.uint64), np.array(want).view(np.uint64))


# ---------------------------------------------------------------------------
# binned k integration
# ---------------------------------------------------------------------------


def test_binned_density_matches_per_bin_integrals():
    case = fixture("halfphase_10")
    coeffs = weight_coefficients(case.params)
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)
    assert binned.masses.shape == (40,)
    assert binned.bin_edges.shape == (41,)
    for lo, hi, mass in zip(binned.bin_edges[:-1], binned.bin_edges[1:], binned.masses):
        want = integrate_ac(
            lambda x: ac_density(x, coeffs), 1e-9, lo=float(lo), hi=float(hi)
        ).value
        assert abs(mass - want) <= 1e-10


def test_binned_density_total_is_continuous_mass():
    case = fixture("halfphase_10")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)
    assert abs(binned.masses.sum() - case.ac_integral) <= 1e-12
    plain = fixture("hadamard_10")
    full = density_via_k_integration(plain.params.phi, plain.params, n_k=10**5, bins=40)
    assert abs(full.masses.sum() - 1.0) <= 1e-12


def test_binned_density_mirror_symmetry_for_symmetric_state():
    case = fixture("halfphase_sym")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)
    assert np.max(np.abs(binned.masses - binned.masses[::-1])) <= 1e-12


def bin_integrals(params, edges, which=None):
    """``integrate_ac`` of the closed-form density over the bins numbered in ``which`` (all by default)."""
    coeffs = weight_coefficients(params)
    which = range(len(edges) - 1) if which is None else which
    return np.array(
        [
            integrate_ac(lambda x: ac_density(x, coeffs), 1e-10, lo=float(edges[i]), hi=float(edges[i + 1])).value
            for i in which
        ]
    )


@pytest.mark.parametrize(
    "n_k, bins",
    # odd bin counts have no edge at 0 (without u = 0 and the graded
    # breakpoints the middle bin was up to 3.8e-5 off); 400 bins at
    # n_k = 10^4 once left some bins under 32 samples
    [
        (10**4, 20),
        (10**4, 40),
        (10**4, 71),
        (10**4, 300),
        (10**4, 400),
        (10**5, 40),
        (10**5 + 2, 41),
        (10**6 + 4, 40),
        (10**6 + 4, 71),
        (1_008_000, 21),
    ],
)
def test_k_masses_match_per_bin_integrals(n_k, bins):
    # measured at most 3.1e-13, mostly integrate_ac's own error (against
    # 30-digit bin integrals the masses are within 1e-15).  The edge bins
    # need the panels to start at k = 0, not at the 2.1e-8 that
    # SUPPORT_RADIUS pulls back to (1e-9 to 1.3e-8 short otherwise), and
    # the fourth configuration, phi = 0.74996, the graded breakpoints.
    rng = np.random.default_rng(47)
    for _ in range(6):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = float(rng.uniform(1e-3, 1.0 - 1e-3))
        params = WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        binned = density_via_k_integration(phi, params, n_k, bins)
        want = bin_integrals(params, binned.bin_edges)
        assert np.max(np.abs(binned.masses - want)) <= 1e-10, (params, n_k, bins)


def test_poles_near_the_origin_are_resolved():
    # as phi nears 0, 1/4 or 3/4 the density's poles approach x = 0, inside
    # the middle bins' first panel: without the graded breakpoints these
    # bins were off by 7.1e-9 to 3.0e-7 at n_k = 10^4
    for phi in (1e-5, 0.25 + 1e-5, 0.75 - 3.6e-5, 1.0 - 1e-5):
        params = WalkParams(phi, 0.6, 0.8, 1.0)
        binned = density_via_k_integration(phi, params, 10**4, 40)
        want = bin_integrals(params, binned.bin_edges, [19, 20])
        assert np.max(np.abs(binned.masses[[19, 20]] - want)) <= 1e-10, phi


def test_grid_rounding_avoids_axes():
    case = fixture("quarterphase_10")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**4 + 3, bins=20)
    assert np.all(np.isfinite(binned.masses))
    assert abs(binned.masses.sum() - case.ac_integral) <= 1e-12


def test_grid_parameter_validation():
    init = WalkParams(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        density_via_k_integration(0.5, init, n_k=9_999, bins=40)
    with pytest.raises(ValueError):
        density_via_k_integration(0.5, init, n_k=10**5, bins=19)
    # n_k and bins are read as evolve reads t: numpy integers are taken, a
    # float or a bool is refused by name before anything runs
    non_integers = ((1e5, 40, "n_k"), (100000.5, 40, "n_k"), (10**5, 40.0, "bins"), (10**5, True, "bins"))
    for n_k, bins, name in non_integers:
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            density_via_k_integration(0.5, init, n_k=n_k, bins=bins)
    assert len(density_via_k_integration(0.5, init, n_k=np.int64(10**4), bins=np.int32(20)).masses) == 20
    # phi obeys the rule of WalkParams.phi, with its message
    for phi in (math.nan, 1.0, -0.1):
        with pytest.raises(ValueError) as refused:
            density_via_k_integration(phi, init, n_k=10**5, bins=40)
        assert str(refused.value) == f"phi must lie in [0, 1), got {phi!r}"
