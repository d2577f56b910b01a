"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances and runtime budgets are part of the criteria and are
asserted, not just measured.
"""

import math
import time

import numpy as np
import pytest

from wojcikwalk import (
    EXAMPLE_CASE_IDS,
    SUPPORT_RADIUS,
    WalkParams,
    ac_density,
    atom_mass,
    cesaro_average,
    density_via_k_integration,
    distribution,
    evolve,
    fixture,
    integrate_ac,
    konno_density,
    path_sum_field,
    walk,
    weight,
    weight_coefficients,
)

S = SUPPORT_RADIUS
ATOM_WINDOW = 0.05

# continuous mass and atom per reference case
EXPECTED_MASSES = {
    "hadamard_10": (1.0, 0.0),
    "hadamard_sym": (1.0, 0.0),
    "halfphase_10": (0.2, 0.8),
    "halfphase_sym": (0.2, 0.8),
    "quarterphase_10": (0.6, 0.4),
    "quarterphase_sym": (0.2, 0.8),
}

HALFPHASE = WalkParams(phi=0.5, a=1.0, b=0.0)


@pytest.fixture(scope="module")
def halfphase_walk_10k():
    """The t = 10^4 evolution shared by criteria 5 and 9, with its runtime."""
    started = time.perf_counter()
    state = evolve(HALFPHASE, 10_000)
    elapsed = time.perf_counter() - started
    return state, elapsed


def closed_form_density(case):
    return lambda x: case.weight_fn(x) * konno_density(x, S)


def binned_empirical_mass(dist, t, edges):
    """Rescaled empirical mass per bin, interior of the support only."""
    ratios = dist.support / t
    inside = (ratios > -S) & (ratios < S)
    width = edges[1] - edges[0]
    idx = np.clip(((ratios[inside] + S) / width).astype(int), 0, len(edges) - 2)
    return np.bincount(idx, weights=dist.prob[inside], minlength=len(edges) - 1)


def kept_bin_mask(edges, window=ATOM_WINDOW):
    lo = edges[:-1]
    hi = edges[1:]
    return (hi < -window) | (lo > window)


def test_criterion_1_continuous_mass_constants():
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        coeffs = weight_coefficients(case.params)
        started = time.perf_counter()
        result = integrate_ac(lambda x: ac_density(x, coeffs), 1e-10)
        elapsed = time.perf_counter() - started
        want = EXPECTED_MASSES[case_id][0]
        assert abs(result.value - want) <= 1e-8, case_id
        assert elapsed < 1.0, f"{case_id}: {elapsed:.3f}s"


def test_criterion_2_atom_masses():
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        coeffs = weight_coefficients(case.params)
        want = EXPECTED_MASSES[case_id][1]
        assert abs(atom_mass(coeffs) - want) <= 1e-8, case_id


def test_criterion_3_closed_form_reduction_on_grid():
    # 1000 points: both sign branches plus the removable x = 0 limit
    grid = np.append(np.linspace(-S + 1e-3, S - 1e-3, 999), 0.0)
    assert len(grid) == 1000
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        coeffs = weight_coefficients(case.params)
        worst = max(abs(weight(float(x), coeffs) - case.weight_fn(float(x))) for x in grid)
        assert worst <= 1e-12, f"{case_id}: {worst:.3e}"


def test_criterion_4_spectral_oracle_equivalence():
    bins = 40
    for case_id in EXAMPLE_CASE_IDS:
        case = fixture(case_id)
        started = time.perf_counter()
        binned = density_via_k_integration(case.params.phi, case.params, n_k=10**6, bins=bins)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"{case_id}: {elapsed:.3f}s"
        density = closed_form_density(case)
        for lo, hi, mass in zip(
            binned.bin_edges[:-1], binned.bin_edges[1:], binned.masses
        ):
            want = integrate_ac(density, 1e-9, lo=float(lo), hi=float(hi)).value
            assert abs(mass - want) <= 1e-10, f"{case_id}: bin [{lo:.4f}, {hi:.4f}]"


def test_criterion_5_simulation_convergence(halfphase_walk_10k):
    state_10k, elapsed = halfphase_walk_10k
    assert elapsed < 2.0, f"t=10^4 evolution took {elapsed:.1f}s"
    case = fixture("halfphase_10")
    density = closed_form_density(case)
    edges = np.linspace(-S, S, 72)  # 71 bins, each about 0.02 wide
    kept = kept_bin_mask(edges)
    expected = np.array(
        [
            integrate_ac(density, 1e-9, lo=float(lo), hi=float(hi)).value
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )

    deviations = {}
    for t in (100, 1000, 10_000):
        state = state_10k if t == 10_000 else evolve(HALFPHASE, t)
        empirical = binned_empirical_mass(distribution(state), t, edges)
        deviations[t] = float(np.sum(np.abs(empirical - expected)[kept]))

    assert deviations[10_000] <= 0.02, deviations
    assert deviations[100] > deviations[1000] > deviations[10_000], deviations


def test_criterion_6_time_averaged_origin_mass():
    started = time.perf_counter()
    half = cesaro_average(WalkParams(phi=0.5, a=1.0, b=0.0), 5000, 0)
    quarter = cesaro_average(WalkParams(phi=0.25, a=1.0, b=0.0), 5000, 0)
    plain = cesaro_average(WalkParams(phi=0.0, a=1.0, b=0.0), 5000, 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"three T=5000 averages took {elapsed:.2f}s"
    assert abs(half - 8.0 / 25.0) <= 1e-3
    assert abs(quarter - 4.0 / 25.0) <= 1e-3
    assert plain <= 1e-3


def test_criterion_7_unitarity_at_long_times():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        phi = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        phi1, phi2 = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        params = WalkParams(
            phi=phi, a=math.cos(theta), b=math.sin(theta), phi1=phi1, phi2=phi2
        )
        state = evolve(params, 10_000)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12, params


def test_criterion_8_path_sum_oracle():
    rng = np.random.default_rng(8)
    inits = []
    for _ in range(3):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        phi1, phi2 = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        inits.append((math.cos(theta), math.sin(theta), phi1, phi2))
    for phi in (0.0, 0.25, 0.5, 0.3):
        for a, b, phi1, phi2 in inits:
            params = WalkParams(phi=phi, a=a, b=b, phi1=phi1, phi2=phi2)
            for t in (5, 12):
                fast = evolve(params, t)
                brute = path_sum_field(params, t)
                diff = float(np.max(np.abs(fast.amplitudes - brute.amplitudes)))
                assert diff <= 1e-12, (phi, t, diff)


def test_criterion_9_symmetry_witnesses(halfphase_walk_10k):
    # symmetric initial state: the distribution mirrors exactly at every time,
    # read from the kernel's rows (column j is site 2j - tau) of a walk that
    # normalizes every step and of a longer, unnormalized one
    for phi in (0.5, 0.25):
        params = WalkParams(phi=phi, a=S, b=S, phi1=math.pi / 2.0, phi2=0.0)
        for t in (512, 1000):
            for tau, (left, right, pend) in enumerate(walk._populated_rows(params, t)):
                prob = np.abs(left[: tau + 1]) ** 2 + np.abs(right[: tau + 1]) ** 2
                prob = np.ldexp(prob, -pend)
                assert float(np.max(np.abs(prob - prob[::-1]))) <= 1e-15, (phi, t, tau)

    # asymmetric [1, 0] start: the side holding more mass is the side whose
    # weight is larger
    state_10k, _ = halfphase_walk_10k
    dist = distribution(state_10k)
    t = state_10k.time
    ratios = dist.support / t
    right = float(dist.prob[(ratios > ATOM_WINDOW) & (ratios < S)].sum())
    left = float(dist.prob[(ratios < -ATOM_WINDOW) & (ratios > -S)].sum())
    coeffs = weight_coefficients(HALFPHASE)
    weight_gap = weight(0.5, coeffs) - weight(-0.5, coeffs)
    assert weight_gap > 0.0
    assert right - left > 0.01  # measurable, same sign as the weight gap
