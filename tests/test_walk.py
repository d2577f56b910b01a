"""Tests for the exact defect-coin walk evolution and its distributions."""

import cmath
import dataclasses
import functools
import math
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wojcikwalk import (
    MAX_STEPS,
    AmplitudeField,
    StepLimitError,
    WalkParams,
    cesaro_average,
    distribution,
    evolve,
    path_sum_field,
    rescaled_distribution,
    walk,
)

RIGHT = WalkParams(phi=0.0, a=1.0, b=0.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
TINY = np.finfo(np.float64).tiny

needs_extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="np.longdouble has no 64-bit mantissa here"
)


def symmetric_params(phi):
    return WalkParams(phi=phi, a=INV_SQRT2, b=INV_SQRT2, phi1=math.pi / 2.0, phi2=0.0)


def random_fields(rng):
    """WalkParams fields for a random phase and spinor, to build either package's params."""
    theta = rng.uniform(0.0, math.pi / 2.0)
    phi1, phi2 = rng.uniform(-3.0, 3.0, 2)
    return {
        "phi": float(rng.uniform(0.0, 1.0)),
        "a": math.cos(theta),
        "b": math.sin(theta),
        "phi1": float(phi1),
        "phi2": float(phi2),
    }


def extended_precision_rows(params, t):
    """Yield an unwindowed walk in np.clongdouble at times 0, 1, ..., t.

    It starts from the same double spinor and defect factor as ``evolve`` and
    normalizes every step, so it is the exact walk to about 1e-19.  The yield
    at time tau is a (2, tau + 1) view, column j holding site 2j - tau.
    """
    inv_sqrt2 = 1 / np.sqrt(np.longdouble(2))
    defect = np.clongdouble(params.defect_factor())
    rows = np.zeros((2, t + 1), dtype=np.clongdouble)
    rows[:, 0] = params.initial_spinor()
    yield rows[:, :1]
    for tau in range(t):
        left, right = rows[0, : tau + 1], rows[1, : tau + 1]
        diff = (left - right) * inv_sqrt2
        left += right
        left *= inv_sqrt2
        rows[1, 1 : tau + 2] = diff
        rows[1, 0] = 0
        if tau % 2 == 0:
            rows[0, tau // 2] *= defect
            rows[1, tau // 2 + 1] *= defect
        yield rows[:, : tau + 2]


@functools.lru_cache(maxsize=None)
def extended_precision_walk(params, times):
    """Populated amplitudes of the clongdouble walk at each of ``times``."""
    return {
        tau: rows.copy()
        for tau, rows in enumerate(extended_precision_rows(params, max(times)))
        if tau in times
    }


def extended_precision_error(state, params):
    """Max |A - A_ld| over the populated sites of an ``evolve`` field."""
    want = extended_precision_walk(params, ORACLE_TIMES)[state.time]
    return float(np.max(np.abs(state.amplitudes.astype(np.clongdouble) - want)))


ORACLE_TIMES = (10, 64, 513, 2000, 3000, 4000)
ORACLE_PARAMS = [
    WalkParams(**random_fields(np.random.default_rng(seed))) for seed in (61, 62, 63)
]
# the same spinors at the trapping phases 1/2 and 1/4
TRAPPING_PARAMS = [dataclasses.replace(params, phi=phi) for phi in (0.5, 0.25) for params in ORACLE_PARAMS]


walk_params = st.builds(
    lambda phi, theta, phi1, phi2: WalkParams(
        phi=phi, a=math.cos(theta), b=math.sin(theta), phi1=phi1, phi2=phi2
    ),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, math.pi / 2.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)


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
        p_left, p_right = dist.prob  # sites -1, 1
        assert abs(p_left - 0.5) <= 1e-15
        assert abs(p_right - 0.5) <= 1e-15
        # the left mover at site -1 carries the origin coin phase
        left = state.amplitudes[0, 0]
        assert abs(left - cmath.exp(2j * math.pi * phi) * INV_SQRT2) <= 1e-15


def test_two_step_distribution_for_any_phase():
    # at t <= 2 every path crosses the origin once, so the defect phase is
    # still global and the distribution equals the plain Hadamard one
    for phi in (0.0, 0.3, 0.5):
        dist = distribution(evolve(WalkParams(phi=phi, a=1.0, b=0.0), 2))
        for x, p in {-2: 0.25, 0: 0.5, 2: 0.25}.items():
            assert abs(dist.prob[(x + 2) // 2] - p) <= 1e-15


def test_three_step_hadamard_values():
    dist = distribution(evolve(RIGHT, 3))
    want = {-3: 0.125, -1: 0.625, 1: 0.125, 3: 0.125}
    for x, p in want.items():
        assert abs(dist.prob[(x + 3) // 2] - p) <= 1e-15


def test_four_step_defect_interference():
    # first time the defect phase is visible; frozen exact rationals
    plain = distribution(evolve(WalkParams(phi=0.0, a=1.0, b=0.0), 4))
    half = distribution(evolve(WalkParams(phi=0.5, a=1.0, b=0.0), 4))
    want_plain = {-4: 1 / 16, -2: 5 / 8, 0: 1 / 8, 2: 1 / 8, 4: 1 / 16}
    want_half = {-4: 1 / 16, -2: 1 / 8, 0: 5 / 8, 2: 1 / 8, 4: 1 / 16}
    for x in (-4, -2, 0, 2, 4):
        assert abs(plain.prob[(x + 4) // 2] - want_plain[x]) <= 1e-12
        assert abs(half.prob[(x + 4) // 2] - want_half[x]) <= 1e-12


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_evolve_zero_steps_is_initial_state():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.2, phi2=-0.4)
    state = evolve(params, 0)
    assert state.time == 0
    assert state.amplitudes.shape == (2, 1)
    assert np.allclose(state.amplitudes[:, 0], params.initial_spinor(), atol=1e-16)


def test_unitarity_long_run():
    state = evolve(WalkParams(phi=0.7, a=0.6, b=0.8, phi1=0.5), 2000)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12


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
    assert np.array_equal(state.positions(), np.arange(-5, 6, 2))
    dist = distribution(state)
    assert np.array_equal(dist.support, state.positions())
    assert dist.prob.shape == (6,)
    # one column per site of t's parity, on either side of the 512-step switch
    assert path_sum_field(RIGHT, 5).amplitudes.shape == (2, 6)
    assert evolve(RIGHT, 600).amplitudes.shape == (2, 601)


def test_amplitude_field_shape_validation():
    # the time is the shape's: t + 1 columns of two rows, t >= 0
    for shape in ((3, 4), (2, 0), (4,), (2, 2, 2)):
        with pytest.raises(ValueError):
            AmplitudeField(np.zeros(shape, dtype=np.complex128))
    assert AmplitudeField(np.zeros((2, 4), dtype=np.complex128)).time == 3
    assert AmplitudeField(np.zeros((2, 1), dtype=np.complex128)).time == 0


# ---------------------------------------------------------------------------
# brute-force path oracle
# ---------------------------------------------------------------------------


def test_evolve_matches_path_sum():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.9, phi2=-0.2)
    for t in (1, 2, 3, 7, 10):
        fast = evolve(params, t)
        brute = path_sum_field(params, t)
        assert np.max(np.abs(fast.amplitudes - brute.amplitudes)) <= 1e-13


def test_zero_steps_give_the_initial_spinor_on_both_routes():
    params = WalkParams(phi=0.3, a=0.6, b=0.8, phi1=0.9, phi2=-0.2)
    want = params.initial_spinor().reshape(2, 1)
    for field in (path_sum_field(params, 0), evolve(params, 0)):
        assert field.time == 0
        assert np.array_equal(field.amplitudes.view(np.uint64), want.view(np.uint64))


def test_path_sum_refuses_large_t():
    with pytest.raises(ValueError):
        path_sum_field(RIGHT, 21)
    with pytest.raises(ValueError):
        path_sum_field(RIGHT, -1)


def test_step_cap():
    # one step past the cap: refused before the O(t) buffers are allocated
    tracemalloc.start()
    try:
        with pytest.raises(StepLimitError):
            evolve(RIGHT, MAX_STEPS + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(ValueError):
        evolve(RIGHT, -3)
    # T - 1 steps past the cap: refused before the O(T) buffers are allocated
    with pytest.raises(StepLimitError):
        cesaro_average(RIGHT, MAX_STEPS + 2, 0)
    # the cap is checked before the answer for a far site is known to be 0
    with pytest.raises(StepLimitError):
        cesaro_average(RIGHT, MAX_STEPS + 2, 10**7)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda value: evolve(RIGHT, value), "t"),
        (lambda value: path_sum_field(RIGHT, value), "t"),
        (lambda value: cesaro_average(RIGHT, value, 0), "T"),
        (lambda value: cesaro_average(RIGHT, 10, value), "x"),
    ],
)
@pytest.mark.parametrize("value", [2.0, 1.0, True, np.True_, np.float64(3.0), "4", None])
def test_walk_entry_points_refuse_non_integers_by_name(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(value)


def test_walk_entry_points_take_numpy_integers():
    assert evolve(RIGHT, np.int64(3)).time == 3
    assert type(evolve(RIGHT, np.int32(600)).time) is int
    assert path_sum_field(RIGHT, np.uint8(3)).time == 3
    assert cesaro_average(RIGHT, np.int64(25), np.int16(-2)) == cesaro_average(RIGHT, 25, -2)


# ---------------------------------------------------------------------------
# bit identity with the frozen reference kernel
# ---------------------------------------------------------------------------


def assert_dense_field_is_parity_padded(compact, dense):
    """The frozen (2, 2t + 1) field: exact zeros off t's parity, the compact field on it."""
    assert not dense[:, 1::2].any()
    assert np.array_equal(compact.view(np.uint64), dense[:, ::2].copy().view(np.uint64))


def test_evolve_is_bit_identical_to_frozen(frozen):
    # the frozen kernel stores all 2t + 1 sites of [-t, t]; evolve stores
    # the t + 1 of t's parity, and the others must be empty
    rng = np.random.default_rng(41)
    for _ in range(6):
        fields = random_fields(rng)
        for t in (0, 1, 2, 3, 7, 64, 501):
            got = evolve(WalkParams(**fields), t)
            want = frozen.walk.evolve(frozen.walk.WalkParams(**fields), t)
            assert_dense_field_is_parity_padded(got.amplitudes, want.amplitudes)
            got_prob = distribution(got).prob.view(np.uint64)
            want_prob = frozen.walk.distribution(want).prob.view(np.uint64)
            assert np.array_equal(got_prob, want_prob[::2])
            assert not want_prob[1::2].any()


def subnormal_count(values):
    parts = np.abs(values.view(np.float64))
    return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(np.float64).tiny)))


@needs_extended_precision
def test_underflow_window_changes_only_negligible_components(frozen):
    # past t = 2044 the front of the light cone underflows and the window
    # drops it: every amplitude it left at zero is below the smallest normal
    # double in the unwindowed extended-precision walk
    for params in ORACLE_PARAMS:
        got = evolve(params, 3000)
        want = extended_precision_walk(params, ORACLE_TIMES)[3000]
        dropped = got.amplitudes == 0
        assert dropped.any()
        assert np.max(np.abs(want[dropped])) < TINY
        assert extended_precision_error(got, params) <= 1e-14
        # the unwindowed kernel keeps hundreds of stuck subnormals; these are
        # zeros now.  A window threshold that ignored the pending 2^(pend / 2)
        # of the unnormalized steps would keep about 40.
        ref = frozen.walk.evolve(frozen.walk.WalkParams(**dataclasses.asdict(params)), 3000)
        assert subnormal_count(got.amplitudes) * 10 < subnormal_count(ref.amplitudes)
        assert subnormal_count(got.amplitudes) <= 10


def test_cesaro_light_cone_is_bit_identical_to_frozen(frozen):
    # only the backward light cone of (x, T - 1) is stepped; the sites at its
    # edge, both parities of x + T and the sites past reach all keep their bits
    rng = np.random.default_rng(59)
    for _ in range(3):
        fields = random_fields(rng)
        for T in (2, 3, 61, 400):
            edge = {T - 1, T - 2, -(T - 1), -(T - 2)}
            for x in sorted(edge | {0, 1, -3, T // 2, T, -T - 1}):
                got = cesaro_average(WalkParams(**fields), T, x)
                want = frozen.walk.cesaro_average(frozen.walk.WalkParams(**fields), T, x)
                assert got == want, (T, x)


def test_cesaro_average_is_bit_identical_to_frozen(frozen):
    rng = np.random.default_rng(47)
    for _ in range(4):
        fields = random_fields(rng)
        for T in (1, 2, 60):
            for x in (0, 1, -2, 5, T + 3):
                got = cesaro_average(WalkParams(**fields), T, x)
                want = frozen.walk.cesaro_average(frozen.walk.WalkParams(**fields), T, x)
                assert got == want


def test_walks_up_to_512_steps_keep_the_frozen_kernel_bits(frozen):
    # short walks normalize every step, as the frozen kernel does; only
    # longer ones defer the 1/sqrt(2) of each step
    fields = random_fields(np.random.default_rng(67))
    ref_params = frozen.walk.WalkParams(**fields)
    got = evolve(WalkParams(**fields), 512)
    assert_dense_field_is_parity_padded(got.amplitudes, frozen.walk.evolve(ref_params, 512).amplitudes)
    # one step past the switch the bits part (2.1e-14 here), but the frozen
    # field still holds nothing off t's parity
    dense = frozen.walk.evolve(ref_params, 513).amplitudes
    assert not dense[:, 1::2].any()
    assert np.max(np.abs(evolve(WalkParams(**fields), 513).amplitudes - dense[:, ::2])) <= 1e-13
    for x in (0, 5, -511, 512):
        want = frozen.walk.cesaro_average(ref_params, 513, x)
        assert cesaro_average(WalkParams(**fields), 513, x) == want, x


# ---------------------------------------------------------------------------
# bit identity of walks past 512 steps with the kernel they were defined on
# ---------------------------------------------------------------------------

# The step kernel as it was before its fixed per-step cost was cut, copied
# verbatim apart from its names and the ``every`` of its window tests: five
# views and a slice write-back per step, the defect multiplied on numpy
# scalars, and a 2-D store that zeroes every column leaving the window, light
# cone included.  The frozen reference normalizes every step, so its tests
# stop at 512 steps; this copy pins the bits of the unnormalized long walks.
# With ``every=1`` it tests the window after each step, as the kernel did
# before; ``segment_reference_rows`` tests it at the kernel's own cadence, at
# the start of each 64-step segment and after the last step.
_INV_SQRT2 = walk._INV_SQRT2
_SHORT_WALK = walk._SHORT_WALK
_RESCALE_EVERY = walk._RESCALE_EVERY
_RESCALE = walk._RESCALE
_THRESHOLDS = tuple(walk._TINY * 2.0 ** (pend / 2) for pend in range(_RESCALE_EVERY))


def reference_advance(
    left: np.ndarray,
    right: np.ndarray,
    spare: np.ndarray,
    lo: int,
    hi: int,
    tau: int,
    defect: complex,
    normalize: bool,
) -> None:
    """One step, in place, on the active columns [lo, hi).

    Before the step column j holds site 2j - tau; after it, site
    2j - (tau + 1).  The new right movers L - R go straight into
    ``spare[lo + 1 : hi + 1]``, one column up, and the new left movers
    L + R replace ``left[lo:hi]`` in place: two array passes, and the new
    state is ``left`` and ``spare``.  Unless ``normalize`` is set (two more
    passes, times 1/sqrt(2)), the step is sqrt(2) times the unitary one.
    The defect then multiplies the two amplitudes that left site 0, which
    is column tau // 2 and populated at even tau only.  Columns outside
    [lo, hi) of ``left`` and ``right`` must hold zeros; ``spare`` is
    overwritten on [lo, hi + 1).
    """
    np.subtract(left[lo:hi], right[lo:hi], out=spare[lo + 1 : hi + 1])
    spare[lo] = 0.0
    left[lo:hi] += right[lo:hi]
    if normalize:
        left[lo:hi] *= _INV_SQRT2
        spare[lo + 1 : hi + 1] *= _INV_SQRT2
    origin = tau // 2
    if tau % 2 == 0 and lo <= origin < hi:
        left[origin] *= defect
        spare[origin + 1] *= defect


def reference_rows(
    params: WalkParams, t: int, target: int | None = None, every: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield the populated sites' unnormalized amplitudes at times 0, 1, ..., t.

    The yield at time tau is ``(left, right, pend)``: two length-(t + 1)
    views whose column j is site 2j - tau (columns past tau hold zeros),
    and the number of unnormalized steps since the last rescale.  The true
    amplitudes are the yielded ones times 2^(-pend / 2).  The next step
    overwrites both views.  Only the active window of columns is stepped,
    and every column outside it holds exact zeros.  After every ``every``-th
    step and after the last one, an edge column leaves the window while both
    its true amplitudes are below ``_TINY``; with a ``target`` site, so does
    every column outside the backward light cone of (target, t), which
    cannot reach the target by time t.  The checks run before anything is
    allocated.
    """
    walk._check_steps(t)
    if target is None:
        shift, cap = -t, t + 1
    else:  # column j at time s is in the cone iff s + shift <= j < cap
        shift, cap = -((t - target) // 2), (t + target) // 2 + 1
    rows = np.zeros((3, t + 1), dtype=np.complex128)
    left, right, spare = rows  # the two right-mover rows swap every step
    left[0], right[0] = params.initial_spinor()
    defect = params.defect_factor()
    lo, hi, pend = 0, 1, 0
    yield left, right, pend
    short = t <= _SHORT_WALK
    for tau in range(t):
        reference_advance(left, right, spare, lo, hi, tau, defect, short)
        right, spare = spare, right
        hi += 1
        if not short:
            pend += 1
            if pend == _RESCALE_EVERY:
                left[lo:hi] *= _RESCALE
                right[lo:hi] *= _RESCALE
                pend = 0
        if (tau + 1) % every and tau + 1 < t:
            yield left, right, pend
            continue
        tiny = _THRESHOLDS[pend]
        while lo < hi and (
            lo < tau + 1 + shift or abs(left.item(lo)) < tiny and abs(right.item(lo)) < tiny
        ):
            rows[:, lo] = 0.0
            lo += 1
        while lo < hi and (
            hi > cap or abs(left.item(hi - 1)) < tiny and abs(right.item(hi - 1)) < tiny
        ):
            hi -= 1
            rows[:, hi] = 0.0
        yield left, right, pend


segment_reference_rows = functools.partial(reference_rows, every=_RESCALE_EVERY)


def reference_cesaro(params, T, x):
    """``cesaro_average`` on ``reference_rows``, as it read its site before."""
    acc = 0.0
    for tau, (left, right, pend) in enumerate(reference_rows(params, T - 1, x)):
        if abs(x) <= tau and (x + tau) % 2 == 0:
            j = (x + tau) // 2
            acc += math.ldexp(abs(left[j]) ** 2 + abs(right[j]) ** 2, -pend)
    return acc / T


def last_rows(rows):
    """The uint64 bits of a kernel's final (left, right) yield, and its pend."""
    for left, right, pend in rows:
        pass
    return np.array((left, right)).view(np.uint64), pend


# a valid spinor with a - b = 1.1e-16: its right-moving front starts near
# 2^-53 and leaves the normal doubles at t = 1939, before the 2045 of [1, 0]
SLANTED = WalkParams(phi=0.0, a=0.7071067811865476, b=0.7071067811865475)


@needs_extended_precision
def test_window_trims_a_general_spinor_before_t_2044():
    # the front of the light cone is (alpha -+ beta) 2^(-t/2) times a phase,
    # so a start with alpha close to beta underflows long before the 2045 of
    # [1, 0].  The window is tested at the start of each 64-step segment, so
    # it first trims at 1984 = 31 * 64 (2048 from [1, 0]), and every column
    # it drops is below the smallest normal double in the unwindowed walk
    t = 2000
    dropped_at = []
    rows = zip(walk._populated_rows(SLANTED, t), extended_precision_rows(SLANTED, t))
    for tau, ((left, right, _), exact) in enumerate(rows):
        dropped = (left[: tau + 1] == 0) & (right[: tau + 1] == 0)
        if dropped.any():
            dropped_at.append(tau)
            assert np.max(np.abs(exact[:, dropped])) < TINY, tau
    assert dropped_at[0] == 1984
    assert len(dropped_at) == t - 1984 + 1


def evolve_on(kernel, params, t):
    """``evolve(params, t)`` run on ``kernel`` from a cold basis cache."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(walk, "_populated_rows", kernel)
        walk._basis_walk.cache_clear()
        try:
            return evolve(params, t)
        finally:
            walk._basis_walk.cache_clear()


@pytest.mark.parametrize("t", [513, 2100, 4100])
def test_long_evolve_is_bit_identical_to_the_reference_kernel(t):
    rng = np.random.default_rng(83)
    for _ in range(3):
        params = WalkParams(**random_fields(rng))
        got = evolve_on(walk._populated_rows, params, t).amplitudes.view(np.uint64)
        want = evolve_on(segment_reference_rows, params, t).amplitudes.view(np.uint64)
        assert np.array_equal(got, want), (params, t)


@pytest.mark.parametrize("t", [513, 2100, 4100])
def test_kernel_rows_from_any_spinor_are_bit_identical_to_the_reference(t):
    # evolve runs long walks from [1, 0] only; cesaro_average runs the
    # kernel from the spinor itself, whose window may trim earlier
    rng = np.random.default_rng(89)
    for params in [SLANTED] + [WalkParams(**random_fields(rng)) for _ in range(2)]:
        got, got_pend = last_rows(walk._populated_rows(params, t))
        want, want_pend = last_rows(segment_reference_rows(params, t))
        assert got_pend == want_pend
        assert np.array_equal(got, want), (params, t)


def test_long_cesaro_average_is_bit_identical_to_the_reference_kernel():
    rng = np.random.default_rng(97)
    for T, x in ((5000, 0), (3001, -5), (2600, 40), (514, -513)):
        params = WalkParams(**{**random_fields(rng), "phi": 0.5 if x == 0 else rng.uniform()})
        assert cesaro_average(params, T, x) == reference_cesaro(params, T, x), (T, x)
    for x in (0, 1, 1938, -1937):
        assert cesaro_average(SLANTED, 2100, x) == reference_cesaro(SLANTED, 2100, x), x


def test_every_kernel_pass_stores_to_a_64_byte_aligned_output(monkeypatch):
    # a complex128 store that starts off a cache line runs about twice as
    # slow, so every add and subtract of a step writes to an aligned view:
    # through the window's trims (t = 4100), from cone floors of different
    # residues mod 4 (the two Cesaro sites) and on the normalizing path
    offsets = []

    def spy(ufunc):
        def call(*args):
            offsets.append(args[2].ctypes.data % 64)
            return ufunc(*args)

        return call

    monkeypatch.setattr(np, "subtract", spy(np.subtract))
    monkeypatch.setattr(np, "add", spy(np.add))
    rng = np.random.default_rng(107)
    walk._basis_walk.cache_clear()
    evolve(WalkParams(**random_fields(rng)), 4100)
    walk._basis_walk.cache_clear()
    cesaro_average(WalkParams(**random_fields(rng)), 3001, 0)
    cesaro_average(WalkParams(**random_fields(rng)), 2100, 40)
    evolve(WalkParams(**random_fields(rng)), 300)
    assert len(offsets) == 2 * (4100 + 3000 + 2099 + 300)
    assert set(offsets) == {0}


class OppositeStart(WalkParams):
    """The start [a, -b]: with a = b its left-moving front alpha + beta is an exact zero.

    ``WalkParams`` cannot spell it, since exp(i pi) is not exactly -1 in
    floating point; the kernel reads only the spinor and the defect factor.
    """

    def initial_spinor(self) -> np.ndarray:
        return np.array([self.a, -self.b], dtype=np.complex128)


def cone_yields(params, t, target, reference):
    """(got, want, pend) for each yield of the kernel and of ``reference`` at the same time.

    got and want are (2, n) complex copies of the two yields' backward
    light cone of (target, t), and pend is the one the two must agree on.
    Without a target every column is in the cone; with one, the columns
    outside it cannot reach the target, and ``reference_rows`` zeroes them.
    """
    if target is None:
        shift, cap = -t, t + 1
    else:
        shift, cap = -((t - target) // 2), (t + target) // 2 + 1
    kernel = walk._populated_rows(params, t, target)
    for tau, ((left, right, pend), (want_left, want_right, want_pend)) in enumerate(
        zip(kernel, reference(params, t, target))
    ):
        cone = slice(max(tau + shift, 0), min(cap, tau + 1))
        assert pend == want_pend, (params, t, target, tau)
        if target is None:
            assert not left[tau + 1 :].any() and not right[tau + 1 :].any(), (params, t, tau)
        want = np.array((want_left[cone], want_right[cone]))
        yield np.array((left[cone], right[cone])), want, pend
    assert tau == t


def assert_every_yield_matches_the_reference(params, t, target=None):
    """Each yield of the kernel has the bits of ``segment_reference_rows`` at the same time."""
    for tau, (got, want, _) in enumerate(cone_yields(params, t, target, segment_reference_rows)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (params, t, target, tau)


# a step segment is 64 steps, walks past 512 steps are unnormalized, and the
# [1, 0] walk's fronts leave the normal doubles at t = 2045 and leave the
# window at t = 2048
@pytest.mark.parametrize("t", [63, 64, 65, 128, 512, 513, *range(2040, 2051)])
def test_every_yield_is_bit_identical_to_the_reference_kernel(t):
    rng = np.random.default_rng(t)
    for params in (WalkParams(phi=0.37, a=1.0, b=0.0), WalkParams(**random_fields(rng))):
        assert_every_yield_matches_the_reference(params, t)


@pytest.mark.parametrize("t", [64, 513, 2100])
def test_every_yield_from_a_front_at_or_near_zero_is_bit_identical_to_the_reference(t):
    # alpha = +-beta exactly: a front is zero from the first step on, and
    # the window trims at the first segment start; SLANTED's front leaves
    # the doubles at 1939 and the window at 1984
    half = 0.7071067811865476
    for params in (
        WalkParams(phi=0.5, a=half, b=half),
        OppositeStart(phi=0.25, a=half, b=half),
        SLANTED,
    ):
        assert_every_yield_matches_the_reference(params, t)


@pytest.mark.parametrize(
    "t, target", [(2100, 2090), (2100, -2091), (2100, 0), (513, 500), (65, -64)]
)
def test_every_cone_yield_is_bit_identical_to_the_reference(t, target):
    # with |target| close to t the backward light cone clamps the window
    # from the first segments on, long before the fronts reach the smallest
    # double
    rng = np.random.default_rng(101)
    for params in (WalkParams(**random_fields(rng)), SLANTED):
        assert_every_yield_matches_the_reference(params, t, target)


@pytest.mark.parametrize(
    "t, target", [(2048, None), (2100, None), (4100, None), (2100, 2090), (2100, -2091), (2100, 0)]
)
def test_every_yield_moves_only_below_tiny_against_the_per_step_window(t, target):
    # the kernel keeps a column that falls below tiny mid-segment until the
    # next segment start, where the window tested after every step dropped
    # it at once.  Measured on these starts: the bits differ only where a
    # true amplitude is at most 1.1e-285, and by at most 9.3e-302 there.
    half = 0.7071067811865476
    rng = np.random.default_rng(t)
    for params in (
        WalkParams(phi=0.37, a=1.0, b=0.0),
        WalkParams(**random_fields(rng)),
        WalkParams(phi=0.5, a=half, b=half),
        OppositeStart(phi=0.25, a=half, b=half),
        SLANTED,
    ):
        for got, want, pend in cone_yields(params, t, target, reference_rows):
            scale = 2.0 ** (pend / 2)  # the yields are the true amplitudes times this
            bits = got.view(np.uint64) != want.view(np.uint64)
            moved = bits.reshape(*got.shape, 2).any(axis=-1)
            assert np.all(np.maximum(abs(got), abs(want))[moved] <= 1e-280 * scale), params
            assert np.all(abs(got - want)[moved] <= 1e-300 * scale), params


@pytest.mark.parametrize("t", [2100, 4100, 10**4])
def test_long_evolve_probabilities_keep_the_per_step_window_bits(t):
    rng = np.random.default_rng(t)
    for _ in range(2):
        params = WalkParams(**random_fields(rng))
        got = distribution(evolve_on(walk._populated_rows, params, t)).prob.view(np.uint64)
        want = distribution(evolve_on(reference_rows, params, t)).prob.view(np.uint64)
        assert np.array_equal(got, want), (params, t)


# ---------------------------------------------------------------------------
# accuracy against an extended-precision walk
# ---------------------------------------------------------------------------


@needs_extended_precision
@pytest.mark.parametrize("params", ORACLE_PARAMS + TRAPPING_PARAMS)
def test_evolve_matches_extended_precision_walk(params):
    # the oracle agrees with the independent sum over paths
    brute = path_sum_field(params, 10).amplitudes
    assert np.max(np.abs(brute - extended_precision_walk(params, ORACLE_TIMES)[10])) <= 1e-15
    # walks past 512 steps round once per step, not twice; the
    # parent kernel, which normalizes every step, is off by 7.6e-14 to
    # 2.2e-13 at t = 2000 and 4000.  At the trapping phases, where most of
    # the mass stays near the origin, evolve is off by up to 4.9e-15 at
    # phi = 1/2 (t = 64) and 9.5e-15 at phi = 1/4 (seed 61, t = 4000)
    for t in (64, 513, 2000, 4000):
        assert extended_precision_error(evolve(params, t), params) <= 1e-14, t


def extended_precision_cesaro(params, T, xs):
    """(1/T) sum_{t < T} P_t(x) of the clongdouble walk, for each x in xs."""
    sums = dict.fromkeys(xs, np.longdouble(0))
    for tau, rows in enumerate(extended_precision_rows(params, T - 1)):
        for x in xs:
            if abs(x) <= tau and (x + tau) % 2 == 0:
                j = (x + tau) // 2
                sums[x] += abs(rows[0, j]) ** 2 + abs(rows[1, j]) ** 2
    return {x: total / T for x, total in sums.items()}


@needs_extended_precision
def test_long_cesaro_average_matches_extended_precision_walk():
    # past 512 steps the light-cone walk is unnormalized and P is scaled back
    # by an exact power of two; T - 1 = 513, 576, 699 leave 1, 0 and 59
    # steps pending since the last rescale.  The relative bound also holds
    # at the front of the light cone, where P is 1e-157 to 1e-214.
    for params in ORACLE_PARAMS:
        for T in (514, 577, 700):
            xs = sorted({T - 1, T - 2, -(T - 1), -(T - 2), 0, 1, -3, T // 2, -(T // 3)})
            for x, want in extended_precision_cesaro(params, T, xs).items():
                assert abs(cesaro_average(params, T, x) - want) <= 1e-14 * want, (T, x)


@needs_extended_precision
def test_cesaro_average_at_a_trapping_phase_matches_extended_precision_walk():
    # at phi = 1/2 and 1/4 most of the mass stays trapped near the origin;
    # the light-cone walk from a general spinor is measured up to 2.2e-14
    # (phi = 1/2) and 7.3e-15 (phi = 1/4) relative at T = 2001 on these six
    # spinors, and up to 6.3e-14 at T = 5000 on 12 from default_rng(7) at
    # phi = 1/2, above the 1e-14 of T <= 700 above
    for phi in (0.5, 0.25):
        rng = np.random.default_rng(1)
        for _ in range(6):
            params = WalkParams(**{**random_fields(rng), "phi": phi})
            for x, want in extended_precision_cesaro(params, 2001, (0, 1, -1, 2, -2, 3, -3)).items():
                assert abs(cesaro_average(params, 2001, x) - want) <= 1e-13 * want, (params, x)


# ---------------------------------------------------------------------------
# one basis walk per phase and length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [513, 2000, 3001, 4000])
def test_kernel_walk_from_down_is_the_signed_mirror_of_the_walk_from_up(t):
    # sigma = [[0, 1], [-1, 0]] gives sigma H sigma^-1 = -H and the defect
    # sits at the mirror-invariant origin, so at time tau the walk from
    # [0, 1] is (-1)^(tau + 1) times the walk from [1, 0] with column j of
    # (L, R) moved to column tau - j of (R, -L).  Rounding and the
    # underflow window are mirror-symmetric too, so every yield agrees
    # value for value (a zero may differ in sign).  Long walks in evolve
    # are built on this.
    for phi in (0.0, 0.37, 0.5, 0.913):
        up = walk._populated_rows(WalkParams(phi=phi, a=1.0, b=0.0), t)
        down = walk._populated_rows(WalkParams(phi=phi, a=0.0, b=1.0), t)
        for tau, ((left, right, pend), (m_left, m_right, m_pend)) in enumerate(zip(up, down)):
            sign = 1.0 if tau % 2 else -1.0
            assert m_pend == pend
            assert np.array_equal(m_left[: tau + 1], sign * right[tau::-1]), (phi, tau)
            assert np.array_equal(m_right[: tau + 1], -sign * left[tau::-1]), (phi, tau)
            assert not m_left[tau + 1 :].any() and not m_right[tau + 1 :].any()
        assert tau == t


@pytest.mark.parametrize("t", [577, 2000])
def test_long_walk_bits_do_not_depend_on_the_cache(t):
    rng = np.random.default_rng(71)
    fields = random_fields(rng)
    params = WalkParams(**fields)
    other = WalkParams(**{**random_fields(rng), "phi": fields["phi"]})
    walk._basis_walk.cache_clear()
    cold = evolve(params, t).amplitudes.view(np.uint64).copy()
    evolve(other, t)
    warm = evolve(params, t)
    assert np.array_equal(warm.amplitudes.view(np.uint64), cold)
    # a returned field is the caller's own: the cached basis is not in it
    warm.amplitudes[:] = 7.0
    assert np.array_equal(evolve(params, t).amplitudes.view(np.uint64), cold)


def test_long_walks_run_the_kernel_once_per_phase_and_length(monkeypatch):
    runs = []
    kernel = walk._populated_rows

    def counting(params, t, target=None):
        runs.append((params.phi, t))
        return kernel(params, t, target)

    monkeypatch.setattr(walk, "_populated_rows", counting)
    walk._basis_walk.cache_clear()
    rng = np.random.default_rng(73)
    for _ in range(8):
        evolve(WalkParams(**{**random_fields(rng), "phi": 0.37}), 2000)
    assert runs == [(0.37, 2000)]
    evolve(WalkParams(**{**random_fields(rng), "phi": 0.5}), 2000)
    evolve(WalkParams(**{**random_fields(rng), "phi": 0.5}), 2001)
    assert runs[1:] == [(0.5, 2000), (0.5, 2001)]
    # short walks are run from their own spinor, one kernel run per call
    del runs[:]
    for _ in range(3):
        evolve(WalkParams(**{**random_fields(rng), "phi": 0.5}), 512)
    assert runs == [(0.5, 512)] * 3


# ---------------------------------------------------------------------------
# exact symmetries, on generated configurations
# ---------------------------------------------------------------------------


@given(params=walk_params, t=st.integers(0, 300))
def test_evolution_is_linear_in_the_initial_spinor(params, t):
    alpha, beta = params.initial_spinor()
    up = evolve(WalkParams(phi=params.phi, a=1.0, b=0.0), t).amplitudes
    down = evolve(WalkParams(phi=params.phi, a=0.0, b=1.0), t).amplitudes
    got = evolve(params, t).amplitudes
    assert np.max(np.abs(got - (alpha * up + beta * down))) <= 1e-13


@given(params=walk_params, t=st.integers(0, 1000))
def test_mirrored_spinor_gives_the_mirrored_distribution(params, t):
    # reflecting x -> -x swaps the movers, and under the Hadamard coin the
    # start [alpha, beta] becomes [beta, -alpha]; t up to 1000 also covers
    # the unnormalized steps of walks past 512 steps
    mirrored = WalkParams(
        phi=params.phi, a=params.b, b=params.a, phi1=params.phi2, phi2=params.phi1 + math.pi
    )
    p = distribution(evolve(params, t)).prob
    q = distribution(evolve(mirrored, t)).prob
    assert np.max(np.abs(p - q[::-1])) <= 1e-13


@given(params=walk_params, t=st.integers(0, 300))
def test_conjugate_phase_and_spinor_give_the_same_distribution(params, t):
    # complex conjugation maps the coin exp(2 pi i phi) H to exp(2 pi i (1 - phi)) H
    conjugate = WalkParams(
        phi=(1.0 - params.phi) % 1.0, a=params.a, b=params.b, phi1=-params.phi1, phi2=-params.phi2
    )
    p = distribution(evolve(params, t)).prob
    q = distribution(evolve(conjugate, t)).prob
    assert np.max(np.abs(p - q)) <= 1e-13


# ---------------------------------------------------------------------------
# rescaled distribution and time averages
# ---------------------------------------------------------------------------


def test_rescaled_distribution_pairs():
    t = 4
    dist = distribution(evolve(WalkParams(phi=0.5, a=1.0, b=0.0), t))
    pairs = rescaled_distribution(dist)
    assert pairs.shape == (t + 1, 2)
    assert np.allclose(pairs[:, 0], np.arange(-t, t + 1, 2) / t, atol=1e-16)
    # scaled masses: t * P_t(x); their sum over the support is t
    assert abs(pairs[:, 1].sum() - t) <= 1e-12
    mid = pairs[t // 2]  # x = 0 row
    assert abs(mid[1] - t * 5 / 8) <= 1e-12


def test_rescaled_distribution_validation():
    with pytest.raises(ValueError):
        rescaled_distribution(distribution(evolve(RIGHT, 0)))


def test_cesaro_average_equals_direct_mean():
    params = WalkParams(phi=0.5, a=1.0, b=0.0)
    for x in (0, 1, -2):
        direct = np.mean(
            [
                distribution(evolve(params, t)).prob[(x + t) // 2] if abs(x) <= t and (x + t) % 2 == 0 else 0.0
                for t in range(25)
            ]
        )
        assert abs(cesaro_average(params, 25, x) - direct) <= 1e-15


def test_cesaro_average_validation_and_far_sites():
    with pytest.raises(ValueError):
        cesaro_average(RIGHT, 0, 0)
    assert cesaro_average(RIGHT, 3, 10) == 0.0
    # a site out of reach returns at once: no O(T) buffers, no steps
    tracemalloc.start()
    try:
        assert cesaro_average(RIGHT, MAX_STEPS, MAX_STEPS) == 0.0
        assert cesaro_average(RIGHT, MAX_STEPS, -MAX_STEPS) == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


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
