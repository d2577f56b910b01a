"""Tests for the residue route: pointwise weight and binned density."""

import cmath
import math
import warnings

import numpy as np
import pytest

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    CoarseKGridWarning,
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
        assert abs(mass - want) <= 1e-4


def test_binned_density_total_is_continuous_mass():
    case = fixture("halfphase_10")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)
    assert abs(binned.masses.sum() - case.ac_integral) <= 1e-6
    plain = fixture("hadamard_10")
    full = density_via_k_integration(plain.params.phi, plain.params, n_k=10**5, bins=40)
    assert abs(full.masses.sum() - 1.0) <= 1e-5


def test_binned_density_mirror_symmetry_for_symmetric_state():
    case = fixture("halfphase_sym")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)
    assert np.max(np.abs(binned.masses - binned.masses[::-1])) <= 1e-12


def four_quadrant_masses(phi, init, n_k, bins):
    """Bin masses from every frequency of the grid, each quadrant evaluated on its own.

    The pole factor carries the signs of cos k and sin k through
    z = cos(theta) + i sin(theta) at the pole, as the residue construction
    states it, with no folding between quadrants.
    """
    n_k = 4 * math.ceil(n_k / 4)
    dk = 2.0 * math.pi / n_k
    k = (np.arange(n_k) + 0.5) * dk
    c, s = np.cos(k), np.sin(k)
    u = np.abs(c) / np.sqrt(1.0 + c * c)
    omega = cmath.exp(2j * math.pi * phi)
    alpha, beta = init.a * cmath.exp(1j * init.phi12), init.b
    masses = np.zeros(bins)
    for branch in (1, -1):
        x = branch * u
        cos_t = -branch * np.sign(c) / np.sqrt(2.0 * (1.0 - x * x))
        sin_t = np.sign(s) * np.sqrt((1.0 - 2.0 * x * x) / (2.0 * (1.0 - x * x)))
        root = u / np.sqrt(1.0 - u * u)
        f = np.sign(cos_t) * (cos_t + 1j * sin_t) * (math.sqrt(2.0) * np.abs(cos_t) - root)
        denom = 1.0 - math.sqrt(2.0) * omega * f + omega * omega * f * f
        lead = alpha if branch == 1 else beta
        spinor = alpha - branch * beta - math.sqrt(2.0) * omega * lead * f
        norm = x * x / np.abs(denom) ** 2 * 0.5 * np.abs(spinor) ** 2 * 2.0 / (1.0 + branch * x)
        where = np.clip(((x + S) / (2.0 * S / bins)).astype(int), 0, bins - 1)
        masses += np.bincount(where, weights=norm * dk / (2.0 * math.pi), minlength=bins)
    return masses


def test_quadrant_fold_matches_four_quadrant_loop():
    # the fold evaluates a quarter of the grid; the masses may change in
    # their last bits only (measured: 1.1e-14 on hadamard_sym, whose edge
    # bins sum ~10^4 near-equal deposits)
    configs = [(fixture(case).params.phi, fixture(case).params) for case in EXAMPLE_CASE_IDS]
    rng = np.random.default_rng(41)
    for _ in range(8):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi12 = float(rng.uniform(-3, 3))
        phi = float(rng.uniform(0.0, 1.0))
        configs.append((phi, WalkParams(phi, math.cos(theta), math.sin(theta), phi12)))
    for phi, init in configs:
        for n_k, bins in ((10**5, 40), (10**5 + 2, 41)):
            got = density_via_k_integration(phi, init, n_k, bins).masses
            want = four_quadrant_masses(phi, init, n_k, bins)
            assert np.max(np.abs(got - want)) <= 1e-13, (phi, init, n_k)


def reference_pole(c):
    u = np.abs(c) / np.sqrt(1.0 + c * c)
    one_minus = 1.0 - u * u
    cos_t = 1.0 / np.sqrt(2.0 * one_minus)
    sin_t = np.sqrt((1.0 - 2.0 * u * u) / (2.0 * one_minus))
    root = u / np.sqrt(one_minus)
    m = math.sqrt(2.0) * cos_t - root
    return u, cos_t * m + 1j * (sin_t * m)


def reference_residue_norm(u, f, branch, phi, init):
    omega = cmath.exp(2j * math.pi * phi)
    alpha = init.a * cmath.exp(1j * init.phi12)
    beta = init.b

    denom = 1.0 - math.sqrt(2.0) * omega * f + (omega * omega) * f * f
    item1 = u * u
    item2 = 1.0 / np.abs(denom) ** 2
    if branch == 1:
        item3 = 0.5 * np.abs(alpha - beta - math.sqrt(2.0) * omega * alpha * f) ** 2
    else:
        item3 = 0.5 * np.abs(alpha + beta - math.sqrt(2.0) * omega * beta * f) ** 2
    item4 = 2.0 / (1.0 + u)
    return item1 * item2 * item3 * item4


def fsum_k_masses(phi, init, n_k, bins):
    """Per-bin ``math.fsum`` of the quadrant-folded deposits: each mass rounded once.

    Also the per-bin sample counts of the whole grid, four per quadrant-I
    frequency and branch.
    """
    quarter = math.ceil(n_k / 4)
    dk = 2.0 * math.pi / (4 * quarter)
    bin_width = 2.0 * S / bins
    k = (np.arange(quarter) + 0.5) * dk
    u, f = reference_pole(np.cos(k))
    where, deposits = [], []
    for branch in (1, -1):
        norms = reference_residue_norm(u, f, branch, phi, init) + reference_residue_norm(
            u, f.conj(), branch, phi, init
        )
        where.append(np.clip(((branch * u + S) / bin_width).astype(int), 0, bins - 1))
        deposits.append(norms * (dk / math.pi))
    where, deposits = np.concatenate(where), np.concatenate(deposits)
    order = np.argsort(where, kind="stable")
    cuts = np.searchsorted(where[order], np.arange(bins + 1))
    deposits = deposits[order].tolist()
    masses = np.array([math.fsum(deposits[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])
    return masses, 4 * np.diff(cuts)


@pytest.mark.parametrize(
    "n_k, bins",
    # 300 bins: the undersampled warning; 10^6 + 4 and 1 008 000: the edge
    # bins of hadamard_sym sum ~10^5 near-equal deposits each
    [
        (10**4, 20),
        (10**4, 300),
        (10**5, 40),
        (10**5 + 2, 41),
        (10**6 + 4, 71),
        (10**6 + 4, 40),
        (1_008_000, 21),
    ],
)
def test_k_masses_match_the_exactly_summed_deposits(n_k, bins):
    # measured at most 3.9e-14 (hadamard_sym, n_k = 10^6 + 4, 40 bins);
    # summing each branch per chunk of 250 000 frequencies before adding it
    # to the masses reached 9.4e-14 there and 9.3e-14 at 1 008 000
    for init in oracle_configurations():
        want, counts = fsum_k_masses(init.phi, init, n_k, bins)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CoarseKGridWarning)
            got = density_via_k_integration(init.phi, init, n_k, bins).masses
        assert np.max(np.abs(got - want)) <= 6e-14, (init, n_k, bins)
        low = int(counts.min())  # 28 at (10^4, 300)
        if low < 32:
            assert len(caught) == 1 and f"only {low} samples" in str(caught[0].message)
        else:
            assert not caught


def test_undersampling_counts_every_quadrant():
    # at n_k = 10^4 the emptiest bin receives 44 samples of the whole grid
    # with 200 bins and 28 with 300 (of the quadrant-I samples: 11 and 7)
    case = fixture("halfphase_10")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CoarseKGridWarning)
        density_via_k_integration(case.params.phi, case.params, n_k=10**4, bins=200)
    with pytest.warns(CoarseKGridWarning, match="only 28 samples"):
        density_via_k_integration(case.params.phi, case.params, n_k=10**4, bins=300)


def test_grid_rounding_avoids_axes():
    case = fixture("quarterphase_10")
    binned = density_via_k_integration(case.params.phi, case.params, n_k=10**4 + 3, bins=20)
    assert np.all(np.isfinite(binned.masses))
    assert abs(binned.masses.sum() - case.ac_integral) <= 1e-3


def test_coarse_grid_warning():
    case = fixture("halfphase_10")
    with pytest.warns(CoarseKGridWarning):
        density_via_k_integration(case.params.phi, case.params, n_k=10**4, bins=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CoarseKGridWarning)
        density_via_k_integration(case.params.phi, case.params, n_k=10**5, bins=40)


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
