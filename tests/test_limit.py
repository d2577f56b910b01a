"""Tests for the analytic weak-limit measure: weight, base density, atom."""

import math

import numpy as np
import pytest

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    DegenerateDenominatorError,
    InitialStateAngles,
    SUPPORT_RADIUS,
    WalkParams,
    ac_density,
    atom_from_integral,
    atom_mass,
    bin_masses_in_k,
    density_via_k_integration,
    distribution,
    evolve,
    fixture,
    integrate_ac,
    konno_density,
    limit,
    match_fixture,
    quadrature,
    weight,
    weight_coefficients,
)

S = SUPPORT_RADIUS

# (ac integral, atom) reference values per case, frozen independently of the
# fixture records so a registry typo cannot hide.
REFERENCE_MASSES = {
    "hadamard_10": (1.0, 0.0),
    "hadamard_sym": (1.0, 0.0),
    "halfphase_10": (0.2, 0.8),
    "halfphase_sym": (0.2, 0.8),
    "quarterphase_10": (0.6, 0.4),
    "quarterphase_sym": (0.2, 0.8),
}


def coefficients_for(case_id):
    case = fixture(case_id)
    return weight_coefficients(case.params)


def random_configurations(n, seed):
    """(phi, params) pairs with uniform phase and a random normalized spinor."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi12 = float(rng.uniform(-3, 3))
        phi = float(rng.uniform(0.0, 1.0))
        yield phi, WalkParams(phi, math.cos(theta), math.sin(theta), phi12)


# ---------------------------------------------------------------------------
# base density
# ---------------------------------------------------------------------------


def test_konno_density_values():
    assert abs(konno_density(0.0, S) - 1.0 / math.pi) <= 1e-15
    assert konno_density(0.8, S) == 0.0
    assert konno_density(-0.8, S) == 0.0
    assert konno_density(S, S) == 0.0
    for x in (0.1, 0.43, 0.699):
        assert abs(konno_density(x, S) - konno_density(-x, S)) <= 1e-15
    # grows monotonically toward the support endpoints
    assert konno_density(0.3, S) < konno_density(0.6, S) < konno_density(0.7, S)


def test_konno_density_scale_validation():
    for a in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            konno_density(0.1, a)


def test_konno_density_other_scale():
    # at scale a, the density at 0 is sqrt(1 - a^2) / (pi * a)
    a = 0.5
    assert abs(konno_density(0.0, a) - math.sqrt(0.75) / (math.pi * 0.5)) <= 1e-15


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_denominator_coefficients_for_reference_phases():
    c0 = weight_coefficients(WalkParams(0.0, 1.0, 0.0))
    assert (c0.s0, c0.s1, c0.s2) == (0.0, 0.0, 1.0)
    ch = weight_coefficients(WalkParams(0.5, 1.0, 0.0))
    assert abs(ch.s0 - 16.0) <= 1e-12
    assert abs(ch.s1 - 8.0) <= 1e-12
    assert abs(ch.s2 - 1.0) <= 1e-12
    cq = weight_coefficients(WalkParams(0.25, 1.0, 0.0))
    assert abs(cq.s0) <= 1e-30
    assert abs(cq.s1 - 4.0) <= 1e-12
    assert abs(cq.s2 - 1.0) <= 1e-12


def test_numerator_coefficients_halfphase_right_start():
    c = coefficients_for("halfphase_10")
    assert np.max(np.abs(np.subtract(c.pos, (20.0, -4.0, 5.0, -1.0)))) <= 1e-12
    assert np.max(np.abs(np.subtract(c.neg, (4.0, -4.0, 1.0, -1.0)))) <= 1e-12


@pytest.mark.parametrize(
    "a, b, phi12",
    [
        (math.nan, math.nan, 0.0),
        (math.nan, 0.0, 0.0),
        (math.inf, 0.0, 0.0),
        (1.0, 0.0, math.nan),
        (0.6, 0.8, -math.inf),
    ],
)
def test_initial_state_rejects_non_finite(a, b, phi12):
    with pytest.raises(ValueError):
        InitialStateAngles(a, b, phi12)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        InitialStateAngles(-0.5, 0.5)
    with pytest.raises(ValueError):
        InitialStateAngles(0.9, 0.9)
    angles = InitialStateAngles.from_phases(0.6, 1.0, 0.8, 0.25)
    assert abs(angles.phi12 - 0.75) <= 1e-15


def test_benchmark_constructor_reads_as_the_walk_params():
    # the benchmark builds its spinor with InitialStateAngles.from_phases
    # for density_via_k_integration, which must give it the bits of the
    # WalkParams of the same four numbers
    configs = [fixture(c).params for c in EXAMPLE_CASE_IDS]
    rng = np.random.default_rng(71)
    for _ in range(6):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi1, phi2 = rng.uniform(-3.0, 3.0, 2)
        phi = float(rng.uniform(0.0, 1.0))
        configs.append(WalkParams(phi, math.cos(theta), math.sin(theta), float(phi1), float(phi2)))
    for params in configs:
        angles = InitialStateAngles.from_phases(params.a, params.phi1, params.b, params.phi2)
        got, want = (
            density_via_k_integration(params.phi, init, n_k=10**4, bins=40).masses.view(np.uint64)
            for init in (angles, params)
        )
        assert np.array_equal(got, want), params


def test_coefficients_well_defined_across_phases():
    # the denominator never vanishes away from x = 0 for any defect phase;
    # construction runs its own support scan and must stay silent
    rng = np.random.default_rng(7)
    for phi in np.linspace(0.01, 0.99, 25):
        theta = rng.uniform(0.0, math.pi / 2.0)
        init = WalkParams(float(phi), math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        coeffs = weight_coefficients(init)
        assert math.isfinite(weight(0.3, coeffs))
        assert math.isfinite(weight(-0.3, coeffs))


# ---------------------------------------------------------------------------
# weight evaluation
# ---------------------------------------------------------------------------


def test_weight_reduces_to_closed_forms():
    grid = np.linspace(-S + 1e-3, S - 1e-3, 201)
    for case_id in EXAMPLE_CASE_IDS:
        coeffs = coefficients_for(case_id)
        closed = fixture(case_id).weight_fn
        worst = max(abs(weight(float(x), coeffs) - closed(float(x))) for x in grid)
        assert worst <= 1e-12, case_id


def test_weight_removable_values_at_zero():
    # all three removable cases: s0 > 0, s0 = 0 < s1, s0 = s1 = 0
    assert abs(weight(0.0, coefficients_for("halfphase_10")) - 0.0) <= 1e-15
    assert abs(weight(0.0, coefficients_for("quarterphase_10")) - 0.5) <= 1e-14
    assert abs(weight(0.0, coefficients_for("hadamard_10")) - 1.0) <= 1e-14


def test_weight_spot_values():
    coeffs = coefficients_for("halfphase_10")
    assert abs(weight(0.5, coeffs) - 9.0 / 34.0) <= 1e-14
    assert abs(weight(-0.5, coeffs) - 3.0 / 34.0) <= 1e-14


def test_weight_branch_asymmetry_and_symmetry():
    asym = coefficients_for("halfphase_10")
    assert weight(0.5, asym) > weight(-0.5, asym)
    sym = coefficients_for("halfphase_sym")
    for x in (0.1, 0.33, 0.6):
        assert abs(weight(x, sym) - weight(-x, sym)) <= 1e-13


def test_mirrored_spinor_gives_the_mirrored_weight_and_atom():
    # reflecting x -> -x maps the start [a e^(i phi1), b e^(i phi2)] to
    # [b e^(i phi2), a e^(i (phi1 + pi))] (the walk's mirror symmetry), so
    # w(-x) of the mirrored spinor is w(x), and the atom is the same
    # (measured: 9.3e-16 relative to max w, 5.6e-16 on C)
    xs = np.linspace(-S + 1e-3, S - 1e-3, 401)
    for phi, init in random_configurations(200, seed=53):
        mirrored = WalkParams(phi, init.b, init.a, -init.phi12 - math.pi)
        coeffs, mirrored_coeffs = weight_coefficients(init), weight_coefficients(mirrored)
        w = weight(xs, coeffs)
        assert np.max(np.abs(weight(-xs, mirrored_coeffs) - w)) <= 1e-13 * np.max(w), (phi, init)
        assert abs(atom_mass(mirrored_coeffs) - atom_mass(coeffs)) <= 1e-13, (phi, init)


def test_weight_finite_near_support_edge():
    coeffs = coefficients_for("quarterphase_10")
    assert math.isfinite(weight(S - 1e-9, coeffs))
    assert math.isfinite(weight(-S + 1e-9, coeffs))


def test_weight_domain_validation():
    coeffs = coefficients_for("halfphase_10")
    for x in (S, -S, 0.8, -1.0):
        with pytest.raises(ValueError):
            weight(x, coeffs)
        with pytest.raises(ValueError):
            weight(np.array([0.1, x, -0.2]), coeffs)


def hand_made_coefficients(**values):
    """``WeightCoefficients`` at phi = 0.3 with every coefficient 0.0 except ``values``.

    No defect phase and spinor give these: they reach the refusals that
    ``weight_coefficients`` guards against but never meets.
    """
    zeros = dict(s0=0.0, s1=0.0, s2=0.0, pos=(0.0,) * 4, neg=(0.0,) * 4)
    return limit.WeightCoefficients(**{**zeros, "phi": 0.3, **values})


def test_weight_refuses_a_denominator_at_or_below_zero():
    coeffs = hand_made_coefficients(s0=-1.0, s2=1.0)  # den = x^4 - 1 < 0
    with pytest.raises(DegenerateDenominatorError) as caught:
        weight(0.25, coeffs)
    assert (caught.value.x, caught.value.phi) == (0.25, 0.3)
    assert str(caught.value) == "weight denominator vanished at x=0.25 (defect phase 0.3)"
    # an array names its first degenerate point
    with pytest.raises(DegenerateDenominatorError) as caught:
        weight(np.array([-0.5, 0.1]), coeffs)
    assert caught.value.x == -0.5
    # s1 = s2 = 0 too: no point below the 1e-80 cutoff needs the x = 0
    # limit t2/s2, so the denominator itself is refused
    with pytest.raises(DegenerateDenominatorError) as caught:
        weight(0.1, hand_made_coefficients(s0=-1.0))
    assert (caught.value.x, caught.value.phi) == (0.1, 0.3)
    # at x = 0 the limit's denominator s2 is zero
    with pytest.raises(DegenerateDenominatorError) as caught:
        weight(0.0, hand_made_coefficients())
    assert (caught.value.x, caught.value.phi) == (0.0, 0.3)


def test_support_validation_refuses_a_negative_weight():
    # w(x) = -x^2 on the x >= 0 branch and 0 on the other
    coeffs = hand_made_coefficients(pos=(-1.0, 0.0, 0.0, 0.0), s0=1.0)
    with pytest.raises(ValueError, match=r"^weight is negative \(-.* for phi=0\.3; configuration"):
        limit._validate_on_support(coeffs)
    # the same coefficients with a nonnegative weight pass
    limit._validate_on_support(hand_made_coefficients(pos=(1.0, 0.0, 0.0, 0.0), s0=1.0))


def test_weight_tiny_arguments_use_limit():
    coeffs = coefficients_for("quarterphase_10")
    assert abs(weight(1e-100, coeffs) - 0.5) <= 1e-14
    assert abs(weight(-1e-100, coeffs) - 0.5) <= 1e-14


# Signed zeros, points below the 1e-80 cutoff, the midpoint of the middle bin
# of an odd grid (next to 0 but not 0), both branches up to the support edge.
_INNER_GRID = np.concatenate(
    (
        [0.0, -0.0, 1e-100, -1e-100, 9e-81, -S + 50.5 * (2.0 * S / 101)],
        np.linspace(-S + 1e-12, S - 1e-12, 401),
    )
)
# The same plus points on and past the support edge, where densities are 0.
_FULL_GRID = np.concatenate((_INNER_GRID, [S, -S, 0.71, -0.8, 1.5]))


def test_array_evaluation_matches_float_calls(frozen):
    """An array in gives the frozen scalar implementation's values bit for bit, in its own shape.

    A scalar in gives a 0-d array holding the same value.
    """
    configs = [(fixture(c).params.phi, fixture(c).params) for c in EXAMPLE_CASE_IDS]
    configs += list(random_configurations(3, seed=29))
    for phi, init in configs:
        coeffs = weight_coefficients(init)
        old = frozen.limit.weight_coefficients(phi, frozen.limit.InitialStateAngles(init.a, init.b, init.phi12))
        evaluators = (
            (_INNER_GRID, lambda x: weight(x, coeffs), lambda x: frozen.limit.weight(x, old)),
            (_FULL_GRID, lambda x: konno_density(x, S), lambda x: frozen.limit.konno_density(x, S)),
            (_FULL_GRID, lambda x: ac_density(x, coeffs), lambda x: frozen.limit.ac_density(x, old)),
        )
        for grid, evaluate, reference in evaluators:
            want = np.array([reference(x) for x in grid.tolist()])
            assert np.array_equal(evaluate(grid), want)
            square = grid[:400].reshape(20, 20)
            assert np.array_equal(evaluate(square), want[:400].reshape(20, 20))
            single = evaluate(float(grid[7]))
            assert single.shape == () and single == want[7]


# ---------------------------------------------------------------------------
# density and atom
# ---------------------------------------------------------------------------


def test_ac_density_is_product_and_vanishes_outside():
    coeffs = coefficients_for("halfphase_10")
    x = 0.37
    want = weight(x, coeffs) * konno_density(x, S)
    assert abs(ac_density(x, coeffs) - want) <= 1e-15
    assert ac_density(0.9, coeffs) == 0.0
    assert ac_density(-S, coeffs) == 0.0


def test_continuous_mass_and_atom_per_case():
    for case_id, (ac_ref, atom_ref) in REFERENCE_MASSES.items():
        coeffs = coefficients_for(case_id)
        got = integrate_ac(lambda x: ac_density(x, coeffs), 1e-10).value
        assert abs(got - ac_ref) <= 1e-9, case_id
        assert abs(atom_mass(coeffs) - atom_ref) <= 1e-13, case_id


def test_fixture_records_match_reference_masses():
    for case_id, (ac_ref, atom_ref) in REFERENCE_MASSES.items():
        case = fixture(case_id)
        assert case.ac_integral == ac_ref
        assert case.atom == atom_ref


def test_limit_measure_decomposes_unit_mass():
    for phi, init in random_configurations(4, seed=11):
        coeffs = weight_coefficients(init)
        cont = integrate_ac(lambda x: ac_density(x, coeffs), 1e-10).value
        assert abs(atom_mass(coeffs) + cont - 1.0) <= 1e-8


def configurations_off_the_singular_phases(n, seed):
    """Random configurations with phi at least 0.05 from 0, 1/4, 3/4 and 1."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < n:
        phi = float(rng.uniform(0.0, 1.0))
        if min(abs(phi - s) for s in (0.0, 0.25, 0.75, 1.0)) >= 0.05:
            theta = rng.uniform(0.0, math.pi / 2.0)
            configs.append(WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3))))
    return configs


def walk_moments_extrapolated(params):
    """E[cos(2 X_t / t)], E[(X_t / t)^2] and E[(X_t / t)^4], Richardson-extrapolated in 1/t.

    The walks run to t = 2000, 4000 and 8000.
    """

    def moments(t):
        dist = distribution(evolve(params, t))
        r = dist.support / t
        return np.array([dist.prob @ np.cos(2.0 * r), dist.prob @ (r * r), dist.prob @ r**4])

    return (8.0 * moments(8000) - 6.0 * moments(4000) + moments(2000)) / 3.0


def integral_in_k(g, coeffs):
    """The integral of g(x) w(x) f_K(x) dx over the support, as one bin of the k rule."""

    def integrand(c):
        u = quadrature.abscissa(c)
        return g(np.stack((u, -u))) * limit._weight_in_k(c, coeffs)

    return float(bin_masses_in_k(integrand, 1)[1][0])


@pytest.mark.parametrize(
    "params",
    [fixture(case_id).params for case_id in EXAMPLE_CASE_IDS] + configurations_off_the_singular_phases(20, seed=9),
)
def test_atom_and_second_moment_from_the_walk(params):
    # X_t / t converges weakly to C delta_0 + w f_K dx, and the localized part
    # adds O(1/t^2) to the moments: E[cos(2 X_t / t)] minus the continuous
    # part's integral of cos(2x) is an atom C that is not 1 - integral.
    # Moment convergence is how Grimmett, Janson and Scudo prove weak limits
    # of quantum walks (PRE 69, 026119, 2004).  The limit side is the k rule,
    # within 5.6e-16 of the x quadrature on these cases.  Measured: C within
    # 1.2e-9, the second moment within 5.8e-10 and the fourth within 7.2e-11.
    # Next to (not at) phi = 0, 1/4 and 3/4 t = 8000 is not yet asymptotic:
    # C is off by 1.1e-7 at phi = 0.27, 4.5e-6 at 0.255 and 1.5e-7 at 0.01
    # (spinor (0.6, 0, 0.8, 1)), so those phases are left out, not given a
    # looser bound.
    coeffs = weight_coefficients(params)
    cos_moment, second_moment, fourth_moment = walk_moments_extrapolated(params)
    atom_walk = cos_moment - integral_in_k(lambda x: np.cos(2 * x), coeffs)
    atom_residues = 1.0 - density_via_k_integration(params.phi, params, 10**4, 40).masses.sum()
    assert abs(atom_walk - atom_residues) <= 1e-8
    assert abs(second_moment - integral_in_k(lambda x: x * x, coeffs)) <= 1e-8
    assert abs(fourth_moment - integral_in_k(lambda x: x**4, coeffs)) <= 1e-9


def test_atom_from_integral_clamps_with_a_warning():
    assert atom_from_integral(0.2, 1e-10) == 1.0 - 0.2
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert atom_from_integral(1.0 + 1e-6, 1e-8) == 0.0
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert atom_from_integral(-1e-6, 1e-8) == 1.0
    # within tol of [0, 1]: clamped silently
    assert atom_from_integral(1.0 + 1e-9, 1e-8) == 0.0


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------


def test_fixture_lookup_and_unknown_id():
    assert len(EXAMPLE_CASE_IDS) == 6
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        assert case.case_id == case_id
        assert callable(case.weight_fn)
    with pytest.raises(ValueError):
        fixture("no_such_case")


def test_match_fixture_recognizes_all_cases():
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        assert match_fixture(case.params) == case_id


def test_match_fixture_rejects_other_configurations():
    assert match_fixture(WalkParams(0.37, 1.0, 0.0)) is None
    # symmetric moduli but wrong relative phase is not the symmetric case
    assert match_fixture(WalkParams(0.5, S, S)) is None


def test_match_fixture_is_exact_up_to_rounding():
    rng = np.random.default_rng(31)
    for case_id in EXAMPLE_CASE_IDS:
        ref = fixture(case_id).params
        # a global phase on both spinor components drops out
        for g in rng.uniform(-10.0, 10.0, 2000):
            shifted = WalkParams(ref.phi, ref.a, ref.b, ref.phi1 + g, ref.phi2 + g)
            assert match_fixture(shifted) == case_id, (case_id, g)
        # 1e-12 off in the phase, the spinor angle or the relative phase is
        # no reference case: w there is off the closed form by more than 1e-12
        theta = math.atan2(ref.b, ref.a)
        for d in (1e-12, -1e-12):
            near = [WalkParams(ref.phi + d, ref.a, ref.b, ref.phi1, ref.phi2)] if ref.phi + d >= 0.0 else []
            if 0.0 <= theta + d <= math.pi / 2.0:
                near.append(WalkParams(ref.phi, math.cos(theta + d), math.sin(theta + d), ref.phi1, ref.phi2))
            if min(ref.a, ref.b) > 0.0:
                near.append(WalkParams(ref.phi, ref.a, ref.b, ref.phi1 + d, ref.phi2))
            for params in near:
                assert match_fixture(params) is None, (case_id, params)


def test_match_fixture_ignores_phase_when_unobservable():
    # with b = 0 the relative phase is a global phase
    assert match_fixture(WalkParams(0.5, 1.0, 0.0, 2.7)) == "halfphase_10"
    # the phase is compared modulo a full turn, and a global phase drops out
    wrapped = WalkParams(0.5, S, S, math.pi / 2.0 + 2.0 * math.pi)
    assert match_fixture(wrapped) == "halfphase_sym"
    assert match_fixture(WalkParams(0.5, S, S, math.pi / 2.0 + 1.3, 1.3)) == "halfphase_sym"
