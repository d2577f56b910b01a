"""Exact unitary evolution of a defect-coin quantum walk on the integer line.

The coin is the Hadamard matrix at every site except the origin, where it
carries an extra phase factor exp(2*pi*i*phi).  A state at time t is a pair
of complex amplitude arrays (left movers, right movers) on the support
[-t, t].  One step sends

    newL(x) = c(x+1) * (L(x+1) + R(x+1)) / sqrt(2)
    newR(x) = c(x-1) * (L(x-1) - R(x-1)) / sqrt(2)

with c(y) = exp(2*pi*i*phi) if y = 0 and 1 otherwise, i.e. the coin acts at
the source site before the shift.  Everything is plain IEEE-754 complex
arithmetic; unitarity drift stays below 1e-12 out to 10^4 steps (4.1e-13
measured over 10 random starts).

Two-pass step: one kernel, ``_populated_rows``, runs every step of
``evolve`` and ``cesaro_average``.  It works on the populated sites only and
keeps unnormalized Hadamard sums, L + R and L - R.  The sum replaces the left
movers in place, and the difference goes straight into the shifted slot of
a second right-mover row; the two right-mover rows swap every step.  That
is two array passes per step instead of four, and one rounding per
component instead of two.  The passes are two ufunc calls with a positional
out on three views; the rest of a step is scalar bookkeeping through
``.item``.  A walk from [1, 0] costs 3.5 us per step at t = 2000 and 8.8 us
at t = 10^4, and ``cesaro_average`` at T = 5000 takes 23 ms (minimum of 30
rounds on a shared 2-CPU x86-64 VM, numpy 2.4).  Each unnormalized step
multiplies the state by sqrt(2); every 64 steps the window is multiplied
by 2^-32, which is exact, and ``evolve`` applies the remaining 2^(-pend/2)
of the pend pending steps once at the end.  Walks of at most 512 steps
normalize every step instead (four passes), so every output built on a
short walk, such as the CLI's default runs and the recorded benchmark
checksums, keeps the bits it had when every walk did.  Against a walk run
in np.clongdouble (64-bit mantissa) from the same double start, over 8
random starts, the largest amplitude error of the two-pass walk run from
the start itself at t = 2000, 4000 and 10^4 is at most 1.6e-15, 3.0e-15
and 4.6e-15; normalizing every step, it is 9e-14..1.2e-13,
1.8e-13..2.4e-13 and 4.7e-13..6.2e-13.  Outputs of walks past 512 steps
therefore differ from per-step normalization in their last digits: at
t = 10^4 by at most 6.2e-13 in an amplitude and 1.1e-12 in a P_t(x), which
is the error of per-step normalization itself.

Underflow window: the amplitude at the front of the light cone shrinks like
2^(-t/2) and leaves the normal double range near t = 2044.  Subnormal
arithmetic is slow, and it rounds the smallest subnormal times 1/sqrt(2)
back up, so an unwindowed step carries thousands of subnormals whose exact
values are near 1e-600.  The kernel therefore steps only a window of sites:
after each step an edge site leaves it once both its true amplitudes are
below the smallest normal double, tiny = 2.2e-308 (the unnormalized values
are compared with tiny * 2^(pend/2)), and holds exact zeros from then on.
At most 2t + 2 sites leave in t steps, each moves the state by less than
sqrt(2) * tiny, and the step is unitary, so in exact arithmetic the
windowed state stays within about 2 * sqrt(2) * t * tiny (6e-304 at
t = 10^4) of the unwindowed one.  The first sites to leave are the fronts
of the light cone, which hold (alpha + beta) 2^(-t/2) (left movers at
site -t) and (alpha - beta) 2^(-t/2) (right movers at site t), times the
defect phase, for a start [alpha, beta].  Until 2^(-t/2) min |alpha -+ beta|
drops below tiny, that is up to t = 2044 + 2 log2 min |alpha -+ beta|,
nothing leaves and every operation is the unwindowed one.  The [1, 0]
basis walk that ``evolve`` runs past 512 steps first trims at t = 2045
(phi = 0, 0.3, 0.5).  A start with alpha close to +-beta trims earlier:
from a = 0.7071067811865476, b = 0.7071067811865475, which is a valid
spinor, the window first trims at t = 1939, where every dropped amplitude
is at most 1.6e-308 in the clongdouble walk; with alpha = +-beta exactly a
front is an exact zero and leaves at t = 1.

Basis walks: the walk is linear in its initial spinor.  With
sigma = [[0, 1], [-1, 0]], sigma H sigma^-1 = -H, and the defect sits at
the mirror-invariant origin, so after t steps the walk from [0, 1] is
s * M(Psi), where Psi is the walk from [1, 0], s = (-1)^(t + 1), and the
mirror M moves column j of (L, R) to column t - j of (R, -L).  The kernel
keeps this identity value for value: negation is exact, and the window's
test is mirror-symmetric.  A walk of more than 512 steps from
[alpha, beta] is therefore alpha * Psi + s * beta * M(Psi), one kernel run
from [1, 0] and two passes over its t + 1 columns, with the final
normalization folded into the two coefficients.  ``evolve`` keeps the
last basis walk, 2(t + 1) complex amplitudes (0.32 MB at t = 10^4, about
32 MB at MAX_STEPS), so the next spinor at the same (phi, t) runs no step:
evolve + distribution at t = 2000 takes 0.1 ms instead of 16 ms (2-CPU
x86-64, numpy 2.4).  A kept and a fresh basis give the same bits.
Against the clongdouble walk, over 16 random starts, the superposition is
off by at most 2.9e-15, 3.8e-15 and 6.5e-15 at t = 2000, 4000 and 10^4,
where the walk from the start itself is off by at most 2.9e-15, 3.0e-15
and 4.8e-15; the two differ by at most 9.3e-15 in an amplitude and
1.6e-14 in a P_t(x) at t = 10^4.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "MAX_STEPS",
    "NORM_TOL",
    "StepLimitError",
    "WalkParams",
    "AmplitudeField",
    "Distribution",
    "evolve",
    "path_sum_field",
    "distribution",
    "rescaled_distribution",
    "cesaro_average",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TINY = float(np.finfo(np.float64).tiny)
_SHORT_WALK = 512  # walks of at most this many steps normalize every step
_RESCALE_EVERY = 64  # unnormalized steps between exact rescalings; even
_RESCALE = 2.0 ** (-_RESCALE_EVERY // 2)
# window thresholds: pend unnormalized steps scale every amplitude by 2^(pend / 2)
_THRESHOLDS = tuple(_TINY * 2.0 ** (pend / 2) for pend in range(_RESCALE_EVERY))

MAX_STEPS = 10**6  # memory guard: a walk of t steps holds O(t) amplitudes
NORM_TOL = 1e-12  # largest |a^2 + b^2 - 1| an initial spinor may have

_PATH_SUM_LIMIT = 20  # 2^t paths; anything larger is not a useful oracle


class StepLimitError(RuntimeError):
    """Requested evolution length exceeds the step cap ``MAX_STEPS``."""


def _check_phi(phi: float) -> None:
    if not (0.0 <= phi < 1.0):  # NaN fails too
        raise ValueError(f"phi must lie in [0, 1), got {phi!r}")


def _check_spinor(a: float, b: float, **phases: float) -> None:
    """The rules of an initial spinor: a, b >= 0, a^2 + b^2 = 1 to ``NORM_TOL``, finite phases."""
    if a < 0.0 or b < 0.0:
        raise ValueError(f"amplitude moduli a, b must be nonnegative, got a={a!r}, b={b!r}")
    norm = a * a + b * b
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"initial state not normalized: a^2 + b^2 = {norm!r}")
    if not all(math.isfinite(p) for p in phases.values()):
        named = ", ".join(f"{name}={value!r}" for name, value in phases.items())
        raise ValueError(f"phases must be finite, got {named}")


@dataclass(frozen=True)
class WalkParams:
    """Defect phase and initial spinor in polar form.

    ``phi`` is the defect phase in units of full turns, so the origin coin
    is exp(2*pi*i*phi) times Hadamard.  The walker starts at the origin in
    the spinor [a*exp(i*phi1), b*exp(i*phi2)] with a, b >= 0 and
    a^2 + b^2 = 1 to within ``NORM_TOL``.  This is also the initial spinor
    of the analytic routes, which read only ``a``, ``b`` and ``phi12``.
    """

    phi: float
    a: float
    b: float
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self) -> None:
        _check_phi(self.phi)
        _check_spinor(self.a, self.b, phi1=self.phi1, phi2=self.phi2)

    @property
    def phi12(self) -> float:
        """Relative phase phi1 - phi2; the only phase the statistics see."""
        return self.phi1 - self.phi2

    def initial_spinor(self) -> np.ndarray:
        return np.array(
            [self.a * cmath.exp(1j * self.phi1), self.b * cmath.exp(1j * self.phi2)],
            dtype=np.complex128,
        )

    def defect_factor(self) -> complex:
        return cmath.exp(2j * math.pi * self.phi)


@dataclass
class AmplitudeField:
    """Walk state at a fixed time: dense amplitudes over the support [-t, t].

    ``amplitudes`` has shape (2, 2t+1); row 0 holds left movers, row 1 right
    movers, and column t is lattice site 0.

    Parity invariant: after t steps only the sites x with x = t (mod 2) can
    hold amplitude, so every state that ``evolve`` and ``path_sum_field``
    produce has exact zeros in its odd columns.

    A field from ``evolve`` past t = 2044 holds exact zeros at the
    underflowed front of the light cone, where an unwindowed step would
    hold stuck subnormals: a walk past 512 steps is built from the [1, 0]
    walk, whose front leaves the normal doubles at t = 2045, and a shorter
    one never gets there.  The kernel run from a general start can trim
    earlier, from t = 2044 + 2 log2 min |alpha -+ beta| on (see the module
    docstring for the condition and the bound).
    """

    amplitudes: np.ndarray
    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be nonnegative")
        expected = (2, 2 * self.time + 1)
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitudes shape {self.amplitudes.shape} does not match "
                f"support of time {self.time} (expected {expected})"
            )

    def positions(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1)


@dataclass
class Distribution:
    """Position distribution P_t(x) over the support of one walk state."""

    support: np.ndarray
    prob: np.ndarray


def _check_steps(t: int) -> None:
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > MAX_STEPS:
        raise StepLimitError(f"requested {t} steps, cap is {MAX_STEPS}")


def _populated_rows(
    params: WalkParams, t: int, target: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield the populated sites' unnormalized amplitudes at times 0, 1, ..., t.

    The yield at time tau is ``(left, right, pend)``: two length-(t + 1)
    views whose column j is site 2j - tau (columns past tau hold zeros),
    and the number of unnormalized steps since the last rescale.  The true
    amplitudes are the yielded ones times 2^(-pend / 2).  The next step
    overwrites both views; it costs 3.5 us at t = 2000 and 8.8 us at
    t = 10^4 (module docstring).

    A step runs in place on the window of columns [lo, hi): L - R goes
    straight into ``spare[lo + 1 : hi + 1]``, one column up, L + R replaces
    ``left[lo:hi]``, and then ``spare`` and ``right`` swap.  ``left[hi]``
    holds zero, as it becomes the new top column, and ``spare[lo]`` is
    zeroed.  Walks of at most 512 steps multiply both by 1/sqrt(2) (two
    more passes); a longer walk's step is sqrt(2) times the unitary one.
    The defect then multiplies the two amplitudes that left site 0 (column
    tau // 2, populated at even tau only), read with ``.item`` and
    multiplied as a Python complex, which rounds as the numpy scalar does.

    After each step an edge column leaves the window while both its true
    amplitudes are below ``_TINY``, and holds exact zeros from then on:
    three scalar stores zero its left, right and spare entries (the spare
    entry is a right mover again after the next swap).  With a ``target``
    site the window is also clamped, by integer bounds on lo and hi, to the
    backward light cone of (target, t); columns outside the cone cannot
    reach the target by time t.  They are left as they are, not zeroed:
    values outside the backward cone never flow back into it, since the
    window never grows back over them.  Without a target, every column
    outside the window holds exact zeros.  The checks run before anything
    is allocated.
    """
    _check_steps(t)
    if target is None:
        shift, cap = -t, t + 1
    else:  # column j at time s is in the cone iff s + shift <= j < cap
        shift, cap = -((t - target) // 2), (t + target) // 2 + 1
    # the two right-mover rows swap every step
    left, right, spare = np.zeros((3, t + 1), dtype=np.complex128)
    left[0], right[0] = params.initial_spinor()
    defect = params.defect_factor()
    lo, hi, pend = 0, 1, 0
    yield left, right, pend
    short = t <= _SHORT_WALK
    for tau in range(t):
        now_left, now_right, new_right = left[lo:hi], right[lo:hi], spare[lo + 1 : hi + 1]
        np.subtract(now_left, now_right, new_right)
        np.add(now_left, now_right, now_left)
        spare[lo] = 0.0
        if short:
            np.multiply(now_left, _INV_SQRT2, now_left)
            np.multiply(new_right, _INV_SQRT2, new_right)
        origin = tau // 2
        if tau % 2 == 0 and lo <= origin < hi:
            left[origin] = left.item(origin) * defect
            spare[origin + 1] = spare.item(origin + 1) * defect
        right, spare = spare, right
        hi += 1
        if not short:
            pend += 1
            if pend == _RESCALE_EVERY:
                left[lo:hi] *= _RESCALE
                right[lo:hi] *= _RESCALE
                pend = 0
        tiny = _THRESHOLDS[pend]
        floor = tau + 1 + shift
        if lo < floor:
            lo = floor if floor < hi else hi
        while lo < hi and abs(left.item(lo)) < tiny and abs(right.item(lo)) < tiny:
            left[lo] = right[lo] = spare[lo] = 0.0
            lo += 1
        if hi > cap:
            hi = cap if cap > lo else lo
        while lo < hi and abs(left.item(hi - 1)) < tiny and abs(right.item(hi - 1)) < tiny:
            hi -= 1
            left[hi] = right[hi] = spare[hi] = 0.0
        yield left, right, pend


@functools.lru_cache(maxsize=1)
def _basis_walk(phi: float, t: int) -> tuple[np.ndarray, int]:
    """Unnormalized rows and pend of the walk from [1, 0] after t steps.

    The (2, t + 1) array is a read-only copy of the last yield of
    ``_populated_rows``; it holds 2(t + 1) complex amplitudes, about 32 MB
    at ``MAX_STEPS``, for as long as (phi, t) is the last key.
    """
    for left, right, pend in _populated_rows(WalkParams(phi, 1.0, 0.0), t):
        pass
    rows = np.array((left, right))
    rows.flags.writeable = False
    return rows, pend


def evolve(params: WalkParams, t: int) -> AmplitudeField:
    """Evolve from the origin spinor for t steps.

    The steps run in place on the populated parity class, within the
    underflow window of the module docstring.  A walk of at most 512 steps
    is run from the spinor itself, normalizing every step.  A longer walk
    is the superposition alpha * Psi + s * beta * M(Psi) of the basis walk
    Psi from [1, 0] at the same phase, with the mirror M and the sign
    s = (-1)^(t + 1) of the module docstring.  Psi is the unnormalized
    two-pass walk, exactly rescaled every 64 steps, and its remaining
    2^-(pend // 2), times 1/sqrt(2) for odd pend, is folded into the two
    coefficients.  The last basis walk is cached, so the next spinor at the
    same (phi, t) runs no step; a cached and a fresh basis give the same
    bits.  The result is scattered into a new dense field with zeros
    between and beyond.

    Raises
    ------
    StepLimitError
        When t exceeds ``MAX_STEPS``, before anything is allocated.
    """
    if t <= _SHORT_WALK:
        for left, right, _ in _populated_rows(params, t):
            pass
        amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
        amps[0, ::2] = left
        amps[1, ::2] = right
        return AmplitudeField(amps, t)
    (left, right), pend = _basis_walk(params.phi, t)
    scale = math.ldexp(_INV_SQRT2 if pend % 2 else 1.0, -(pend // 2))
    alpha, beta = params.initial_spinor() * scale
    if t % 2 == 0:
        beta = -beta
    amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    out_left, out_right = amps[:, ::2]
    np.multiply(left, alpha, out=out_left)
    out_left += beta * right[::-1]
    np.multiply(right, alpha, out=out_right)
    out_right -= beta * left[::-1]
    return AmplitudeField(amps, t)


def path_sum_field(params: WalkParams, t: int) -> AmplitudeField:
    """Brute-force state at time t as an explicit sum over all 2^t paths.

    Independent of evolve(): each left/right move sequence is walked site by
    site, multiplying the matching coin-row entry, and the signed amplitudes
    are accumulated by final site and arrival direction.  Exponential cost,
    only intended as a small-t cross-check.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > _PATH_SUM_LIMIT:
        raise ValueError(f"path enumeration limited to t <= {_PATH_SUM_LIMIT}")
    if t == 0:
        return AmplitudeField(params.initial_spinor().reshape(2, 1), 0)
    defect = params.defect_factor()
    alpha, beta = params.initial_spinor()
    out = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    for bits in range(1 << t):
        pos = 0
        amp = 0j
        direction = 0
        for j in range(t):
            move = (bits >> j) & 1  # 0 = left, 1 = right
            c = defect if pos == 0 else 1.0
            if j == 0:
                val = alpha + beta if move == 0 else alpha - beta
            elif move == 0:
                val = amp
            else:
                val = amp if direction == 0 else -amp
            amp = c * _INV_SQRT2 * val
            pos += 1 if move else -1
            direction = move
        out[direction, pos + t] += amp
    return AmplitudeField(out, t)


def distribution(state: AmplitudeField) -> Distribution:
    """P_t(x) = |L_x|^2 + |R_x|^2 over the support [-t, t]."""
    prob = np.abs(state.amplitudes[0]) ** 2 + np.abs(state.amplitudes[1]) ** 2
    return Distribution(state.positions(), prob)


def rescaled_distribution(dist: Distribution) -> np.ndarray:
    """Pairs (x/t, t*P_t(x)) for every site in the support -t..t.

    This is the rescaling under which the walk's position law converges;
    t is read off the support, and t = 0 has no rescaled space and is
    rejected.
    """
    t = len(dist.support) // 2
    if t <= 0:
        raise ValueError("rescaled distribution needs t >= 1")
    return np.column_stack((dist.support / t, t * dist.prob))


def cesaro_average(params: WalkParams, T: int, x: int) -> float:
    """Time average (1/T) * sum_{t=0}^{T-1} P_t(x).

    Odd and even times are both included; sites with the wrong parity
    contribute exactly zero at those times.  For defect phases that trap the
    walker this approximates the site's share of the localized mass.  Only
    the backward light cone of (x, T - 1) is stepped, which gives the same
    bits as the whole walk at about half the work; |x| >= T returns 0.0
    without stepping.  Past 512 steps each P_t(x) is read from the
    unnormalized amplitudes and scaled by 2^-pend, which is exact for odd
    pend too.  Against the same average of a walk run in np.clongdouble it
    is off by less than 1e-14 relative at T <= 700 on random phases; at the
    trapping phase 1/2 and |x| <= 3, by up to 2.2e-14 at T = 2001 (6 random
    spinors) and 6.3e-14 at T = 5000 (12).  Raises StepLimitError, before
    allocating, when T - 1 exceeds ``MAX_STEPS``.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T!r}")
    _check_steps(T - 1)
    if abs(x) >= T:  # the walker never reaches x within T - 1 steps
        return 0.0
    acc = 0.0
    j = (x + abs(x)) // 2  # the column of x at time |x|; one column up every two steps
    for left, right, pend in itertools.islice(_populated_rows(params, T - 1, x), abs(x), None, 2):
        acc += math.ldexp(abs(left.item(j)) ** 2 + abs(right.item(j)) ** 2, -pend)
        j += 1
    return acc / T
