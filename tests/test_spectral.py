"""Tests for the residue route: pointwise weight and binned density."""

import math
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    SUPPORT_RADIUS,
    WalkParams,
    ac_density,
    atom_mass,
    bin_masses_in_k,
    density_via_k_integration,
    fixture,
    integrate_ac,
    weight,
    weight_coefficients,
    weight_from_residues,
)
from wojcikwalk import limit, quadrature, spectral

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
    # |x| this small feeds k within 1e-12 of pi/2, where the sign factors
    # degenerate: refused where |cos k| = |x| / sqrt(1 - x^2) < 1e-12
    params = WalkParams(0.5, 1.0, 0.0)
    for x in (1e-13, -1e-13, np.array([0.3, 1e-13]), 5e-13, -5e-13, np.array([[0.3], [-5e-13]])):
        with pytest.raises(ValueError, match=r"^x=-?[0-9.e-]+ maps to k on a coordinate axis"):
            weight_from_residues(x, params)
    for x in (2e-12, -2e-12, np.array([[2e-12, -0.3], [-2e-12, 0.3]])):
        got = weight_from_residues(x, params)
        assert got.shape == np.shape(x) and np.isfinite(got).all(), x


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
        assert single.shape == () and single == want[0, 0]
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
    # n_k = 10^4 once left some bins under 32 samples.  One bin holds the
    # whole continuous mass.
    [
        (10**4, 1),
        (10**4, 2),
        (10**4, 3),
        (10**4, 20),
        (10**4, 40),
        (10**4, 71),
        (10**4, 300),
        (10**4, 400),
        (10**4, 3000),
        (10**5 + 2, 41),
        (1_008_000, 21),
    ],
)
def test_k_masses_match_per_bin_integrals(n_k, bins):
    # measured at most 3.1e-13 (2.1e-13 for 1 to 3 bins; 1.24e-12 at 3000),
    # mostly integrate_ac's own error (against
    # 30-digit bin integrals the masses are within 1e-15).  The edge bins
    # need the panels to start at k = 0, not at the 2.1e-8 that
    # SUPPORT_RADIUS pulls back to (1e-9 to 1.3e-8 short otherwise), and
    # the fourth configuration, phi = 0.74996, the graded breakpoints.
    # Past 400 bins a spread of bins is compared: the first two, the last
    # two, the two at x = 0 and every 97th.
    which = np.arange(bins)
    if bins > 400:
        which = np.unique(np.r_[0, 1, bins // 2 - 1, bins // 2, bins - 2, bins - 1, which[::97]])
    rng = np.random.default_rng(47)
    for _ in range(6):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = float(rng.uniform(1e-3, 1.0 - 1e-3))
        params = WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        binned = density_via_k_integration(phi, params, n_k, bins)
        want = bin_integrals(params, binned.bin_edges, which)
        assert np.max(np.abs(binned.masses[which] - want)) <= 1e-10, (params, n_k, bins)


def mp_weight_coefficients(params):
    """``weight_coefficients``'s formulas in mpmath: (s0, s1, s2) and both numerator branches (t0..t3)."""
    phi, a, b, p12 = (mp.mpf(v) for v in (params.phi, params.a, params.b, params.phi12))
    turn = 2 * mp.pi * phi
    cos2, sin2, cos4 = mp.cos(turn), mp.sin(turn), mp.cos(2 * turn)
    sq = mp.sin(mp.pi * phi) ** 2
    a1 = 1 + 2 * a * a - 2 * a * b * mp.cos(p12) - 2 * a * a * cos2 + 2 * a * b * mp.cos(p12 + turn)
    a2 = 1 - 2 * a * a - 2 * a * b * mp.cos(p12)
    a3 = 2 * a * (a * sin2 - b * mp.sin(p12 + turn))
    b1 = 1 + 2 * b * b + 2 * a * b * mp.cos(p12) - 2 * a * b * mp.cos(p12 - turn) - 2 * b * b * cos2
    b2 = 1 - 2 * b * b + 2 * a * b * mp.cos(p12)
    b3 = 2 * b * (-a * mp.sin(p12 - turn) + b * sin2)
    den = (16 * sq * sq * cos2 * cos2, 8 * sq * (cos4 + 4 * sq * sin2 * sin2), cos4 * cos4)
    pos = (-4 * sq * (a3 * sin2 - a1), 4 * a2 * sq, a1 * cos4 + 8 * a3 * sq * sin2, a2 * cos4)
    neg = (-4 * sq * (b3 * sin2 - b1), -4 * b2 * sq, b1 * cos4 + 8 * b3 * sq * sin2, -b2 * cos4)
    return den, pos, neg


def mp_bin_integrals(params, edges):
    """30-digit integrals of w(x) f_K(x) over the bins, in u with x = R sin u, R = 1/sqrt(2).

    dx = R cos u du cancels f_K's sqrt(R^2 - x^2) = R cos u, which leaves
    w(x) sqrt(1 - R^2) / (pi (1 - x^2)) du.  The outer bins run to
    u = -+pi/2, since SUPPORT_RADIUS rounds below R.  Each numerator branch
    is integrated on its own sign of u, cut at the 4^-j of the route's
    graded breakpoints, where the poles near x = 0 sit as phi nears 0, 1/4
    or 3/4.
    """
    (s0, s1, s2), pos, neg = mp_weight_coefficients(params)
    radius = 1 / mp.sqrt(2)
    graded = [mp.mpf(4) ** -j for j in range(23, 0, -1)]

    def integrand(u, t):
        x = radius * mp.sin(u)
        x2 = x * x
        num = (((t[3] * x + t[2]) * x + t[1]) * x + t[0]) * x2
        return num / (((s2 * x2 + s1) * x2 + s0) * (1 - x2))

    us = [-mp.pi / 2] + [mp.asin(mp.mpf(float(e)) / radius) for e in edges[1:-1]] + [mp.pi / 2]
    masses = []
    for lo, hi in zip(us[:-1], us[1:]):
        total = mp.zero
        # u >= 0 on the x >= 0 branch; u < 0 as v = -u >= 0 on the other
        for sign, t, start, end in ((1, pos, lo, hi), (-1, neg, -hi, -lo)):
            start = max(start, mp.zero)
            if end > start:
                cuts = [start] + [g for g in graded if start < g < end] + [end]
                total += mp.quad(lambda v: integrand(sign * v, t), cuts, method="gauss-legendre")
        masses.append(total * radius / mp.pi)
    return np.array([float(m) for m in masses])


@pytest.mark.parametrize("bins", [20, 41])
def test_k_masses_match_30_digit_bin_integrals(bins):
    # measured at most 7.2e-16 (the two hadamard fixtures, 41 bins); the
    # closed form through the same k rule, at most 1.9e-16, so a fault of
    # the shared rule cannot hide behind the two routes' agreement
    configs = [fixture(case).params for case in EXAMPLE_CASE_IDS]
    configs += [WalkParams(phi, 0.6, 0.8, 1.0) for phi in (1e-6, 0.25 + 1e-5, 0.75 - 3.6e-5)]
    configs.append(WalkParams(0.3, 1.0, 0.0))
    with mp.workdps(30):
        for params in configs:
            binned = density_via_k_integration(params.phi, params, 10**4, bins)
            want = mp_bin_integrals(params, binned.bin_edges)
            assert np.max(np.abs(binned.masses - want)) <= 2e-15, params
            coeffs = weight_coefficients(params)
            closed = bin_masses_in_k(lambda c: limit._weight_in_k(c, coeffs), bins)[1]
            assert np.max(np.abs(closed - want)) <= 2e-15, params


def test_k_masses_do_not_depend_on_n_k():
    # n_k is only checked to be an integer: the k grid is fixed
    rng = np.random.default_rng(53)
    for _ in range(3):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi = float(rng.uniform(0.0, 1.0))
        params = WalkParams(phi, math.cos(theta), math.sin(theta), float(rng.uniform(-3, 3)))
        for bins in (40, 71):
            want = density_via_k_integration(phi, params, 10**4, bins).masses
            for n_k in (1, 10**5 + 2, 10**6 + 4, 1_008_000):
                got = density_via_k_integration(phi, params, n_k, bins).masses
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (params, n_k, bins)


@pytest.mark.parametrize("bins", [40, 71, 3000])
def test_k_route_evaluation_count(monkeypatch, bins):
    # one pass: each frequency goes through _residue_norms twice, with f
    # and conj f; measured 3 204 frequencies at 40 bins, 3 420 at 71 and
    # 25 704 at 3000
    sizes = []
    norms = spectral._residue_norms

    def spy(u, f, phi, init):
        sizes.append(u.size)
        return norms(u, f, phi, init)

    monkeypatch.setattr(spectral, "_residue_norms", spy)
    params = fixture("halfphase_10").params
    density_via_k_integration(params.phi, params, 10**6 + 4, bins)
    assert len(sizes) == 2 and sizes[0] == sizes[1] <= 2_500 + 12 * (bins + 25), sizes


def test_k_route_blocks_move_at_most_last_bits(monkeypatch):
    # the panels go through _residue_norms _MAX_PANELS at a time, and a block
    # boundary may regroup the rows of the 12-point BLAS dot products.
    # Measured against one pass: the same bits at 2 * 10^4 bins (3 blocks),
    # at most 8.5e-22 at 10^5 bins (8 blocks, hadamard_10)
    sizes = []
    norms = spectral._residue_norms

    def spy(u, f, phi, init):
        sizes.append(u.size)
        return norms(u, f, phi, init)

    for params in (WalkParams(0.37, 0.6, 0.8, 1.0), fixture("hadamard_10").params):
        for bins in (2 * 10**4, 10**5):
            with monkeypatch.context() as patch:
                patch.setattr(quadrature, "_MAX_PANELS", 10**6)
                one_pass = density_via_k_integration(params.phi, params, 10**4, bins).masses
            sizes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_residue_norms", spy)
                blocked = density_via_k_integration(params.phi, params, 10**4, bins).masses
            if bins == 2 * 10**4:
                assert np.array_equal(blocked.view(np.uint64), one_pass.view(np.uint64)), params
            assert np.max(np.abs(blocked - one_pass)) <= 1e-20, (params, bins)
    # 10^5 bins cut quadrant I into 64 404 panels: 8 blocks, two norm passes each
    assert len(sizes) == 16 and max(sizes) <= 12 * 8192 and sum(sizes) == 2 * 12 * 64_404, sizes


def test_k_route_memory_is_bounded():
    # the panels' frequencies and norms exist one block at a time: a 55 MB
    # peak at 2 * 10^5 bins, against 251 MB when every panel was evaluated at
    # once (x86-64, Python 3.11, numpy 2.4; importing the package takes 29 MB).
    # On Linux a child's ru_maxrss also counts the RSS of the process that
    # spawned it, so a small Python process starts the call and reports.
    spawn = (
        "import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:]); "
        "_, status, usage = os.wait4(proc.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    call = (
        "from wojcikwalk import WalkParams, density_via_k_integration; "
        "density_via_k_integration(0.37, WalkParams(0.37, 0.6, 0.8, 1.0), 10**4, 2 * 10**5)"
    )
    argv = [sys.executable, "-c", spawn, sys.executable, "-c", call]
    report = subprocess.run(argv, capture_output=True, text=True, check=True)
    code, peak_kb = map(int, report.stdout.split())
    assert code == 0
    assert peak_kb / 1024 <= 100.0, peak_kb


def test_residue_weight_evaluation_count(monkeypatch):
    # quadrants I and II are one array: one pole pass, and one norm pass with
    # the pole factors of each x > 0 and the conjugates of each x < 0
    calls = []
    pole, norms = spectral._ballistic_pole, spectral._residue_norms

    def pole_spy(c):
        calls.append(("pole", c.size))
        return pole(c)

    def norms_spy(u, f, phi, init):
        calls.append(("norms", u.size))
        return norms(u, f, phi, init)

    monkeypatch.setattr(spectral, "_ballistic_pole", pole_spy)
    monkeypatch.setattr(spectral, "_residue_norms", norms_spy)
    xs = np.linspace(-S, S, 72)[1:-1]
    weight_from_residues(xs, fixture("halfphase_10").params)
    assert calls == [("pole", 140), ("norms", 140)]


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
    with pytest.raises(ValueError, match=r"^bins must be at least 1, got 0$"):
        density_via_k_integration(0.5, init, n_k=10**5, bins=0)
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


def test_phi_must_agree_with_init():
    # weight_from_residues reads init.phi, so a second phi that disagrees
    # would give masses of another configuration than its weight
    init = WalkParams(0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"^phi=0\.3 disagrees with init\.phi=0\.5$"):
        density_via_k_integration(0.3, init, 10**4, 40)
    assert abs(density_via_k_integration(0.5, init, 10**4, 40).masses.sum() - 0.2) <= 1e-12


# ---------------------------------------------------------------------------
# exact symmetries and the atom on log-graded phases
# ---------------------------------------------------------------------------


def graded_phases():
    """phi = c +- 10^-e for c in {0, 1/4, 1/2, 3/4, 1} and e = 2..10, kept in [0, 1): 72 phases.

    As phi nears 0, 1/4 or 3/4 the poles of w close in on x = 0, where
    uniform draws of phi never go.
    """
    return [
        c + sign * 10.0**-e
        for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        for e in range(2, 11)
        for sign in (1.0, -1.0)
        if 0.0 <= c + sign * 10.0**-e < 1.0
    ]


def test_exact_symmetries_hold_on_log_graded_phases():
    # each map leaves the limit law unchanged, with the mirror also
    # reversing x: complex conjugation (phi -> 1 - phi, phases negated),
    # the mirror (a, b, phi1, phi2) -> (b, a, phi2, phi1 + pi) and a global
    # phase.  Measured at most 4.2e-16 per 40-bin mass, 3.5e-14 of max |w|
    # for the residue weight and 4.1e-14 for the closed form, all from the
    # conjugation near phi = 1/4, which rounds the phase.  The x grid keeps
    # |x| >= 0.01, where the residue route's x -> k round trip (about
    # 4e-16 / |x| relative) stays well inside the bound.  The closed form's
    # 40-bin masses, through the residue route's k rule with (w(u), w(-u))
    # as the integrand, and its atom hold to the residue masses: measured
    # at most 7.9e-16 per bin and 2.9e-15 on the atom.
    rng = np.random.default_rng(59)
    xs = np.linspace(-S, S, 72)[1:-1]
    phases = graded_phases()
    assert len(phases) == 72
    for phi in phases:
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi1, phi2, turn = (float(v) for v in rng.uniform(-3.0, 3.0, 3))
        params = WalkParams(phi, math.cos(theta), math.sin(theta), phi1, phi2)
        images = (
            (WalkParams(1.0 - phi, params.a, params.b, -phi1, -phi2), 1.0),
            (WalkParams(phi, params.b, params.a, phi2, phi1 + math.pi), -1.0),
            (WalkParams(phi, params.a, params.b, phi1 + turn, phi2 + turn), 1.0),
        )
        masses = density_via_k_integration(phi, params, 10**4, 40).masses
        residues = weight_from_residues(xs, params)
        coeffs = weight_coefficients(params)
        closed = weight(xs, coeffs)
        closed_masses = bin_masses_in_k(lambda c: limit._weight_in_k(c, coeffs), 40)[1]
        assert np.max(np.abs(closed_masses - masses)) <= 1e-13, params
        assert abs(atom_mass(coeffs) - (1.0 - masses.sum())) <= 1e-13, params
        for image, side in images:
            image_masses = density_via_k_integration(image.phi, image, 10**4, 40).masses
            if side < 0.0:
                image_masses = image_masses[::-1]
            assert np.max(np.abs(image_masses - masses)) <= 1e-15, (params, image)
            got = weight_from_residues(side * xs, image)
            assert np.max(np.abs(got - residues)) <= 1e-13 * np.max(np.abs(residues)), (params, image)
            got = weight(side * xs, weight_coefficients(image))
            assert np.max(np.abs(got - closed)) <= 1e-13 * np.max(np.abs(closed)), (params, image)


@pytest.mark.parametrize("phi", [1e-8, 0.2500001, 1e-6, 0.749999, 1.0 - 1e-7, 0.3])
def test_closed_form_atom_matches_the_residue_masses(phi):
    # near phi = 0, 1/4, 3/4 and 1 the poles of w sit next to x = 0, where
    # an adaptive quadrature in x missed them (off by 6e-8, or no
    # convergence); the residue masses are within 1e-15 of 30-digit
    # integrals there.  Measured at most 2.1e-15.
    params = WalkParams(phi, 0.6, 0.8, 1.0)
    want = 1.0 - density_via_k_integration(phi, params, 10**4, 40).masses.sum()
    assert abs(atom_mass(weight_coefficients(params), 1e-10) - want) <= 1e-13

