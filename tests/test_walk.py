"""Tests for the exact defect-coin walk evolution and its distributions."""

import cmath
import math

import numpy as np
import pytest

from wojcikwalk import (
    AmplitudeField,
    StepLimitError,
    WalkParams,
    cesaro_average,
    distribution,
    evolve,
    path_sum_field,
    rescaled_distribution,
    step,
)

RIGHT = WalkParams(phi=0.0, a=1.0, b=0.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def symmetric_params(phi):
    return WalkParams(phi=phi, a=INV_SQRT2, b=INV_SQRT2, phi1=math.pi / 2.0, phi2=0.0)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(phi=1.0, a=1.0, b=0.0)
    with pytest.raises(ValueError):
        WalkParams(phi=-0.2, a=1.0, b=0.0)
    with pytest.raises(ValueError):
        WalkParams(phi=0.3, a=-1.0, b=0.0)
    with pytest.raises(ValueError):
        WalkParams(phi=0.3, a=0.8, b=0.8)


def test_params_from_spinor_roundtrip():
    alpha = 0.6 * cmath.exp(0.31j)
    beta = 0.8 * cmath.exp(-1.2j)
    params = WalkParams.from_spinor(0.3, alpha, beta)
    spinor = params.initial_spinor()
    assert abs(spinor[0] - alpha) <= 1e-15
    assert abs(spinor[1] - beta) <= 1e-15
    assert abs(params.phi12 - (0.31 + 1.2)) <= 1e-15


@pytest.mark.parametrize(
    "fields",
    [
        {"a": math.nan, "b": math.nan},
        {"a": math.nan, "b": 0.0},
        {"a": math.inf, "b": 0.0},
        {"a": 1.0, "b": 0.0, "phi1": math.nan},
        {"a": 0.6, "b": 0.8, "phi2": math.inf},
    ],
)
def test_params_reject_non_finite(fields):
    with pytest.raises(ValueError):
        WalkParams(phi=0.5, **fields)


# ---------------------------------------------------------------------------
# hand-computed small-time values
# ---------------------------------------------------------------------------


def test_one_step_splits_evenly_for_any_phase():
    for phi in (0.0, 0.25, 0.5, 0.77):
        state = evolve(WalkParams(phi=phi, a=1.0, b=0.0), 1)
        dist = distribution(state)
        assert abs(dist.probability_at(-1) - 0.5) <= 1e-15
        assert abs(dist.probability_at(1) - 0.5) <= 1e-15
        assert dist.probability_at(0) == 0.0
        # the left mover carries the origin coin phase
        left = state.amplitudes[0, state.origin_offset - 1]
        assert abs(left - cmath.exp(2j * math.pi * phi) * INV_SQRT2) <= 1e-15


def test_two_step_distribution_for_any_phase():
    # at t <= 2 every path crosses the origin once, so the defect phase is
    # still global and the distribution equals the plain Hadamard one
    for phi in (0.0, 0.3, 0.5):
        dist = distribution(evolve(WalkParams(phi=phi, a=1.0, b=0.0), 2))
        assert abs(dist.probability_at(-2) - 0.25) <= 1e-15
        assert abs(dist.probability_at(0) - 0.5) <= 1e-15
        assert abs(dist.probability_at(2) - 0.25) <= 1e-15


def test_three_step_hadamard_values():
    dist = distribution(evolve(RIGHT, 3))
    want = {-3: 0.125, -1: 0.625, 1: 0.125, 3: 0.125}
    for x, p in want.items():
        assert abs(dist.probability_at(x) - p) <= 1e-15


def test_four_step_defect_interference():
    # first time the defect phase is visible; frozen exact rationals
    plain = distribution(evolve(WalkParams(phi=0.0, a=1.0, b=0.0), 4))
    half = distribution(evolve(WalkParams(phi=0.5, a=1.0, b=0.0), 4))
    want_plain = {-4: 1 / 16, -2: 5 / 8, 0: 1 / 8, 2: 1 / 8, 4: 1 / 16}
    want_half = {-4: 1 / 16, -2: 1 / 8, 0: 5 / 8, 2: 1 / 8, 4: 1 / 16}
    for x in (-4, -2, 0, 2, 4):
        assert abs(plain.probability_at(x) - want_plain[x]) <= 1e-12
        assert abs(half.probability_at(x) - want_half[x]) <= 1e-12


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_evolve_zero_steps_is_initial_state():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.2, phi2=-0.4)
    state = evolve(params, 0)
    assert state.time == 0
    assert state.amplitudes.shape == (2, 1)
    assert np.allclose(state.amplitudes[:, 0], params.initial_spinor(), atol=1e-16)


def test_step_matches_evolve():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.2, phi2=0.0)
    state = evolve(params, 0)
    for t in range(1, 9):
        state = step(state, params.phi)
        direct = evolve(params, t)
        assert state.time == t
        assert np.array_equal(state.amplitudes, direct.amplitudes)


def test_parity_sites_are_exactly_empty():
    state = evolve(WalkParams(phi=0.3, a=0.6, b=0.8), 9)
    dist = distribution(state)
    for x in range(-9, 10):
        if (x + 9) % 2 == 1:
            assert dist.probability_at(x) == 0.0


def test_unitarity_long_run():
    state = evolve(WalkParams(phi=0.7, a=0.6, b=0.8, phi1=0.5), 2000)
    assert abs(state.total_probability() - 1.0) <= 1e-12


def test_global_phase_leaves_distribution_unchanged():
    base = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.2, phi2=-0.7)
    shifted = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.2 + 1.1, phi2=-0.7 + 1.1)
    p1 = distribution(evolve(base, 40)).prob
    p2 = distribution(evolve(shifted, 40)).prob
    assert np.max(np.abs(p1 - p2)) <= 1e-14


def test_symmetric_initial_state_gives_symmetric_distribution():
    for phi in (0.5, 0.25):
        state = evolve(symmetric_params(phi), 60)
        prob = distribution(state).prob
        assert np.max(np.abs(prob - prob[::-1])) <= 1e-14


def test_spinor_and_support_accessors():
    state = evolve(RIGHT, 5)
    assert state.origin_offset == 5
    assert np.array_equal(state.positions(), np.arange(-5, 6))
    dist = distribution(state)
    assert dist.probability_at(11) == 0.0


def test_amplitude_field_shape_validation():
    with pytest.raises(ValueError):
        AmplitudeField(np.zeros((2, 4), dtype=np.complex128), 2)
    with pytest.raises(ValueError):
        AmplitudeField(np.zeros((2, 3), dtype=np.complex128), -1)


# ---------------------------------------------------------------------------
# brute-force path oracle
# ---------------------------------------------------------------------------


def test_evolve_matches_path_sum():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.9, phi2=-0.2)
    for t in (1, 2, 3, 7, 10):
        fast = evolve(params, t)
        brute = path_sum_field(params, t)
        assert np.max(np.abs(fast.amplitudes - brute.amplitudes)) <= 1e-13


def test_path_sum_refuses_large_t():
    with pytest.raises(ValueError):
        path_sum_field(RIGHT, 21)
    with pytest.raises(ValueError):
        path_sum_field(RIGHT, -1)


def test_step_cap():
    with pytest.raises(StepLimitError):
        evolve(RIGHT, 11, max_steps=10)
    with pytest.raises(ValueError):
        evolve(RIGHT, -3)


# ---------------------------------------------------------------------------
# rescaled distribution and time averages
# ---------------------------------------------------------------------------


def test_rescaled_distribution_pairs():
    t = 4
    dist = distribution(evolve(WalkParams(phi=0.5, a=1.0, b=0.0), t))
    pairs = rescaled_distribution(dist, t)
    assert pairs.shape == (2 * t + 1, 2)
    assert np.allclose(pairs[:, 0], np.arange(-t, t + 1) / t, atol=1e-16)
    # scaled masses: t * P_t(x); their sum over the support is t
    assert abs(pairs[:, 1].sum() - t) <= 1e-12
    mid = pairs[t]  # x = 0 row
    assert abs(mid[1] - t * 5 / 8) <= 1e-12


def test_rescaled_distribution_validation():
    dist = distribution(evolve(RIGHT, 3))
    with pytest.raises(ValueError):
        rescaled_distribution(dist, 0)
    with pytest.raises(ValueError):
        rescaled_distribution(dist, 5)


def test_cesaro_average_equals_direct_mean():
    params = WalkParams(phi=0.5, a=1.0, b=0.0)
    for x in (0, 1, -2):
        direct = np.mean(
            [distribution(evolve(params, t)).probability_at(x) for t in range(25)]
        )
        assert abs(cesaro_average(params, 25, x) - direct) <= 1e-15


def test_cesaro_average_validation_and_far_sites():
    with pytest.raises(ValueError):
        cesaro_average(RIGHT, 0, 0)
    assert cesaro_average(RIGHT, 3, 10) == 0.0


def test_cesaro_off_origin_localization_profile():
    # the trapped mass decays geometrically away from the defect; the
    # off-origin prefactor is 3 times the origin value for both phases
    half = WalkParams(phi=0.5, a=1.0, b=0.0)
    quarter = WalkParams(phi=0.25, a=1.0, b=0.0)
    for x in (1, 2):
        want = (24.0 / 25.0) * (1.0 / 5.0) ** x
        assert abs(cesaro_average(half, 5000, x) - want) <= 0.005
        want = (12.0 / 25.0) * (1.0 / 5.0) ** x
        assert abs(cesaro_average(quarter, 5000, x) - want) <= 0.005
