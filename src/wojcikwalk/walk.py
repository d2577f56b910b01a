"""Exact unitary evolution of a defect-coin quantum walk on the integer line.

The coin is the Hadamard matrix at every site except the origin, where it
carries an extra phase factor exp(2*pi*i*phi).  After t steps the walker
can only sit on the t + 1 sites -t, -t + 2, ..., t of t's parity, and a
state at time t is a pair of complex amplitude arrays (left movers, right
movers) on exactly those sites.  One step sends

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
out on views made once per segment of 64 steps, at the segment's start,
where the window's edge tests and its light-cone clamp run too (see
``_populated_rows``).  The three rows share one 64-byte-aligned buffer,
laid out so that both calls store to views that start on a cache line at
every step; a store off a cache line ran about twice as slow.  The views
start up to four zero columns below the window, and the stepped zero
column just below it keeps the spare row's first window column zero, so a
step is only those two calls, the defect on even steps and the yield.  A
walk from [1, 0] costs 2.4 us per step at t = 2000 and 6.1 us at
t = 10^4, and ``cesaro_average`` at T = 5000 takes 16 ms (minimum of
30 rounds on a shared 2-CPU x86-64 VM with AVX-512, numpy 2.4).  Each
unnormalized step multiplies the state by sqrt(2); every 64 steps the
window is multiplied by 2^-32, which is exact, and ``evolve`` applies the
2^(-pend/2) of the pend = t mod 64 steps since then at the end.  Walks of
at most 512 steps normalize every step instead (four passes), so every
output built on a short walk, such as the CLI's default runs and the
recorded benchmark checksums, keeps the bits it had when every walk did.
Against a walk run in np.clongdouble (64-bit mantissa) from the same double
start, over 8 random starts, the largest amplitude error of the two-pass
walk run from the start itself at t = 2000, 4000 and 10^4 is at most
1.6e-15, 3.0e-15 and 4.6e-15; normalizing every step, it is
9e-14..1.2e-13, 1.8e-13..2.4e-13 and 4.7e-13..6.2e-13.  Outputs of walks
past 512 steps therefore differ from per-step normalization in their last
digits: at t = 10^4 by at most 6.2e-13 in an amplitude and 1.1e-12 in a
P_t(x), which is the error of per-step normalization itself.

Underflow window: the amplitude at the front of the light cone shrinks like
2^(-t/2) and leaves the normal double range near t = 2044.  Subnormal
arithmetic is slow, and it rounds the smallest subnormal times 1/sqrt(2)
back up, so an unwindowed step carries thousands of subnormals whose exact
values are near 1e-600.  The kernel therefore steps only a window of sites:
at the start of each 64-step segment, and once more after the last step,
an edge site leaves it once both its true amplitudes are below the
smallest normal double, tiny = 2.2e-308, and holds exact zeros from then
on (after the last step the unnormalized values are compared with
tiny * 2^(pend/2); at a segment start pend is 0).  At most 2t + 2 sites
leave in t steps, each moves the state by less than sqrt(2) * tiny, and
the step is unitary, so in exact arithmetic the windowed state stays
within about 2 * sqrt(2) * t * tiny (6e-304 at t = 10^4) of the
unwindowed one.  The first sites to leave are the fronts of the light
cone, which hold (alpha + beta) 2^(-t/2) (left movers at site -t) and
(alpha - beta) 2^(-t/2) (right movers at site t), times the defect phase,
for a start [alpha, beta].  Until 2^(-t/2) min |alpha -+ beta| drops below
tiny, that is up to t = 2044 + 2 log2 min |alpha -+ beta|, nothing leaves
and every operation is the unwindowed one; a front leaves at the first
segment start after that.  The [1, 0] basis walk that ``evolve`` runs past
512 steps first trims at t = 2048 (phi = 0, 0.3, 0.5).  A start with alpha
close to +-beta trims earlier: from a = 0.7071067811865476,
b = 0.7071067811865475, which is a valid spinor whose front drops below
tiny at t = 1939, the window first trims at t = 1984, and up to t = 2000
every amplitude it drops is at most 2.7e-315 in the clongdouble walk; with
alpha = +-beta exactly a front is an exact zero from t = 1 on and leaves
at t = 64 (after the last step of a shorter walk).  A site that drops
below tiny within a segment is stepped until the segment ends.  Against a
window tested after every step, that moves amplitudes only where they are
at most 1.1e-285, by at most 9.3e-302, and no P_t(x) of ``evolve`` at
t = 2100, 4100 or 10^4 by a bit (measured on the starts of the bit-oracle
tests in tests/test_walk.py).

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
import operator
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
_PAD = 4  # zero columns ahead of each kernel row: one 64-byte line

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
    """Walk state at a fixed time: amplitudes on the t + 1 sites of t's parity.

    ``amplitudes`` has shape (2, t + 1), and ``time`` reads t off that
    shape; row 0 holds left movers, row 1 right movers, and column
    j is lattice site 2j - t, so ``positions()`` is -t, -t + 2, ..., t.
    The other sites of [-t, t] hold no amplitude after t steps.

    A field from ``evolve`` past t = 2047 holds exact zeros at the
    underflowed front of the light cone, where an unwindowed step would
    hold stuck subnormals: a walk past 512 steps is built from the [1, 0]
    walk, whose front leaves the normal doubles at t = 2045 and the window
    at the segment start t = 2048, and a shorter one never gets there.  The
    kernel run from a general start can trim earlier, at the first multiple
    of 64 past t = 2044 + 2 log2 min |alpha -+ beta| (see the module
    docstring for the condition and the bound).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.ndim != 2 or len(self.amplitudes) != 2 or self.time < 0:
            raise ValueError(f"amplitudes must have shape (2, t + 1), t >= 0, got {self.amplitudes.shape}")

    @property
    def time(self) -> int:
        return self.amplitudes.shape[1] - 1

    def positions(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1, 2)


@dataclass
class Distribution:
    """Position distribution P_t(x) over the support of one walk state."""

    support: np.ndarray
    prob: np.ndarray


def _integer(value: int, name: str) -> int:
    """``value`` as a Python int, through ``operator.index``; a bool is refused too.

    Raises TypeError naming the argument, so a float step count fails with
    its own message rather than an unrelated one from numpy or itertools.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r} of type {type(value).__name__}")


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
    and pend, the unnormalized steps since the last rescale (tau mod 64
    past 512 steps, else 0), so the true amplitudes are the yielded ones
    times 2^(-pend / 2).  The next step overwrites both views; it costs
    2.4 us at t = 2000 and 6.1 us at t = 10^4 (module docstring).

    The live sites are the window of columns [lo, hi).  A step runs in
    place: L - R goes straight into ``spare``, one column up, L + R
    replaces ``left``, and then ``spare`` and ``right`` swap.  ``left[hi]``
    holds zero, as it becomes the new top column, and ``spare[lo]`` gets
    the zero of the stepped column lo - 1 (below).  Walks of at most 512
    steps multiply both by 1/sqrt(2) (two more passes); a longer walk's
    step is sqrt(2) times the unitary one.  The defect then multiplies the
    two amplitudes that left site 0 (column tau // 2, populated at even
    tau only), read with ``.item`` and multiplied as a Python complex,
    which rounds as the numpy scalar does.

    Buffer layout.  The three rows are slices of one zeroed buffer whose
    start is rounded up to a multiple of 64 bytes (four complex128 columns),
    whatever address the allocator returned.  Each row begins with 4 pad
    columns ahead of its column 0, and the yields are views past the pad.
    The left row starts at a buffer column that is 0 mod 4 and both
    right-mover rows at columns that are 3 mod 4, so in padded coordinates
    ``left[a]`` and ``spare[a + 1]`` start a cache line for every
    a = 0 mod 4, whichever right-mover row is the spare.  Every view below
    starts at such an a, so each step stores its sum and difference to
    aligned outputs: a complex128 subtract of 10^4 columns into an output
    16 bytes past a cache line took 13.1-13.7 us, against 6.0 us into an
    aligned one (AVX-512 x86-64, numpy 2.4).

    Bookkeeping.  The steps come in segments of 64, the rescale period.
    At the start of each segment, and once more after the last step,
    before the yield:

    - past 512 steps, the window is multiplied by 2^-32 (not at tau = 0).
    - an edge column leaves the window while both its true amplitudes are
      below ``_TINY`` (pend is 0 at a segment start), and holds exact zeros
      from then on: three scalar stores zero its left, right and spare
      entries, the spare one a right mover again after the next swap.
    - with a ``target`` site the window is clamped, by integer bounds on
      lo and hi, to the backward light cone of (target, t); columns
      outside the cone cannot reach the target by time t.  Apart from the
      zero columns of the next item they are left as they are: values
      outside the backward cone never flow back into it.
    - the views that the two ufunc calls work on are made over the padded
      columns [a, top) with top = min(hi + 63, cap, t) plus the pad: every
      column a step of the segment can reach.  The start a is the largest
      multiple of 4 at or below column lo - 1, and columns [a, lo) of all
      three rows are zeroed.  A segment starts at an even step, after an
      even number of swaps, so ``right`` and ``spare`` are rows 1 and 2.

    Between, lo stays and hi only grows, so the window may hold columns
    below tiny or outside the cone until the next segment start (see the
    module docstring for what that moves).  The views also step the 1 to
    4 columns below lo, which hold +0.0 and give +0.0, and the columns from
    hi up, which hold zeros whose sums and differences are zeros.  A step
    moves a value to its own column and one column up, so a column below
    lo reaches the window only through ``spare[lo]``, which the stepped
    zero column lo - 1 sets to +0.0 at every step, the value a scalar
    store would give.  Without a target, every column outside the window
    holds exact zeros.  The checks run before anything is allocated.
    """
    _check_steps(t)
    if target is None:
        shift, cap = -t, t + 1
    else:  # column j at time s is in the cone iff s + shift <= j < cap
        shift, cap = -((t - target) // 2), (t + target) // 2 + 1
    # three padded rows in one 64-byte-aligned buffer (docstring); a complex128 is 16 bytes
    width = (t + _PAD + 4) // 4 * 4  # a multiple of 4, at least t + 1 + _PAD
    raw = np.zeros(16 * (3 * width + 3) + 63, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    buf = raw[start : start + 16 * (3 * width + 3)].view(np.complex128)
    row_left, row_right, row_spare = (
        buf[i : i + t + 1 + _PAD] for i in (0, width + 3, 2 * width + 3)
    )
    # the two right-mover rows swap every step
    left, right, spare = row_left[_PAD:], row_right[_PAD:], row_spare[_PAD:]
    left[0], right[0] = params.initial_spinor()
    defect = params.defect_factor()
    lo, hi = 0, 1
    short = t <= _SHORT_WALK
    subtract, add = np.subtract, np.add
    for tau in range(t + 1):
        pend = 0 if short else tau % _RESCALE_EVERY
        if tau % _RESCALE_EVERY == 0 or tau == t:  # the window's bookkeeping (docstring)
            if tau and not (short or pend):  # the segment's 64 steps scaled by 2^32
                left[lo:hi] *= _RESCALE
                right[lo:hi] *= _RESCALE
            tiny = _TINY * 2.0 ** (pend / 2)  # pend unnormalized steps scale by 2^(pend / 2)
            floor = tau + shift
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
            if tau < t:  # tau is even, so right and spare are rows 1 and 2 again
                a = (lo + _PAD - 1) // 4 * 4  # padded, at or below column lo - 1
                top = min(hi + _RESCALE_EVERY - 1, cap, t) + _PAD
                row_left[a : lo + _PAD] = row_right[a : lo + _PAD] = row_spare[a : lo + _PAD] = 0.0
                now_left, now_right = row_left[a:top], row_right[a:top]
                new_right, then_right, then_new = (
                    row_spare[a + 1 : top + 1], row_spare[a:top], row_right[a + 1 : top + 1]
                )
        yield left, right, pend
        if tau == t:
            return
        subtract(now_left, now_right, new_right)
        add(now_left, now_right, now_left)
        if short:
            np.multiply(now_left, _INV_SQRT2, now_left)
            np.multiply(new_right, _INV_SQRT2, new_right)
        if tau % 2 == 0:
            origin = tau // 2
            if lo <= origin < hi:
                left[origin] = left.item(origin) * defect
                spare[origin + 1] = spare.item(origin + 1) * defect
        right, spare = spare, right
        now_right, new_right, then_right, then_new = then_right, then_new, now_right, new_right
        hi += 1


@functools.lru_cache(maxsize=1)
def _basis_walk(phi: float, t: int) -> np.ndarray:
    """Unnormalized rows of the walk from [1, 0] after t steps, t mod 64 pending.

    The (2, t + 1) array is a read-only copy of the last yield of
    ``_populated_rows``; it holds 2(t + 1) complex amplitudes, about 32 MB
    at ``MAX_STEPS``, for as long as (phi, t) is the last key.
    """
    for left, right, _ in _populated_rows(WalkParams(phi, 1.0, 0.0), t):
        pass
    rows = np.array((left, right))
    rows.flags.writeable = False
    return rows


def evolve(params: WalkParams, t: int) -> AmplitudeField:
    """Evolve from the origin spinor for t steps.

    The steps run in place on the populated parity class, within the
    underflow window of the module docstring.  A walk of at most 512 steps
    is run from the spinor itself, normalizing every step.  A longer walk
    is the superposition alpha * Psi + s * beta * M(Psi) of the basis walk
    Psi from [1, 0] at the same phase, with the mirror M and the sign
    s = (-1)^(t + 1) of the module docstring.  Psi is the unnormalized
    two-pass walk, exactly rescaled every 64 steps, and its remaining
    2^-(pend // 2) for pend = t mod 64, times 1/sqrt(2) for odd t, is
    folded into the two coefficients.  The last basis walk is cached, so the
    next spinor at the same (phi, t) runs no step; a cached and a fresh
    basis give the same bits.  Either way the field holds the kernel's
    t + 1 columns in a new array of its own.

    Raises
    ------
    StepLimitError
        When t exceeds ``MAX_STEPS``, before anything is allocated.
    TypeError
        When t is not an integer (a bool is not one); numpy integers are.
    """
    t = _integer(t, "t")
    if t <= _SHORT_WALK:
        for left, right, _ in _populated_rows(params, t):
            pass
        return AmplitudeField(np.array((left, right)))
    left, right = _basis_walk(params.phi, t)
    scale = math.ldexp(_INV_SQRT2 if t % 2 else 1.0, -(t % _RESCALE_EVERY // 2))
    alpha, beta = params.initial_spinor() * scale
    if t % 2 == 0:
        beta = -beta
    out_left, out_right = amps = np.empty((2, t + 1), dtype=np.complex128)
    np.multiply(left, alpha, out=out_left)
    out_left += beta * right[::-1]
    np.multiply(right, alpha, out=out_right)
    out_right -= beta * left[::-1]
    return AmplitudeField(amps)


def path_sum_field(params: WalkParams, t: int) -> AmplitudeField:
    """Brute-force state at time t as an explicit sum over all 2^t paths.

    Independent of evolve(): each left/right move sequence is walked site by
    site, multiplying the matching coin-row entry, and the signed amplitudes
    are accumulated by final site and arrival direction.  Exponential cost,
    only intended as a small-t cross-check.
    """
    t = _integer(t, "t")
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > _PATH_SUM_LIMIT:
        raise ValueError(f"path enumeration limited to t <= {_PATH_SUM_LIMIT}")
    if t == 0:
        return AmplitudeField(params.initial_spinor().reshape(2, 1))
    defect = params.defect_factor()
    alpha, beta = params.initial_spinor()
    out = np.zeros((2, t + 1), dtype=np.complex128)
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
        out[direction, (pos + t) // 2] += amp
    return AmplitudeField(out)


def distribution(state: AmplitudeField) -> Distribution:
    """P_t(x) = |L_x|^2 + |R_x|^2 over the sites of the state's ``positions()``."""
    prob = np.abs(state.amplitudes[0]) ** 2 + np.abs(state.amplitudes[1]) ** 2
    return Distribution(state.positions(), prob)


def rescaled_distribution(dist: Distribution) -> np.ndarray:
    """Pairs (x/t, t*P_t(x)) for every site of the support -t, -t + 2, ..., t.

    This is the rescaling under which the walk's position law converges;
    t is the support's last site, and t = 0 has no rescaled space and is
    rejected.
    """
    t = int(dist.support[-1])
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
    allocating, when T - 1 exceeds ``MAX_STEPS``, and TypeError when T or
    x is not an integer (a bool is not one; numpy integers are).
    """
    T, x = _integer(T, "T"), _integer(x, "x")
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
