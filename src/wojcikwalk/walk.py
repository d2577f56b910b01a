"""Exact unitary evolution of a defect-coin quantum walk on the integer line.

The coin is the Hadamard matrix at every site except the origin, where it
carries an extra phase factor exp(2*pi*i*phi).  A state at time t is a pair
of complex amplitude arrays (left movers, right movers) on the support
[-t, t].  One step sends

    newL(x) = c(x+1) * (L(x+1) + R(x+1)) / sqrt(2)
    newR(x) = c(x-1) * (L(x-1) - R(x-1)) / sqrt(2)

with c(y) = exp(2*pi*i*phi) if y = 0 and 1 otherwise, i.e. the coin acts at
the source site before the shift.  Everything is plain IEEE-754 complex
arithmetic; unitarity drift stays below 1e-11 out to 10^4 steps.

Underflow window: the amplitude at the front of the light cone shrinks like
2^(-t/2) and leaves the normal double range near t = 2044.  Subnormal
arithmetic is slow, and it rounds the smallest subnormal times 1/sqrt(2)
back up, so an unwindowed step carries thousands of subnormals whose exact
values are near 1e-600.  The kernel therefore steps only a window of sites:
after each step an edge site leaves it once both its amplitudes are below
the smallest normal double, tiny = 2.2e-308, and holds exact zeros from then
on.  At most 2t + 2 sites leave in t steps, each moves the state by less
than sqrt(2) * tiny, and the step is unitary, so in exact arithmetic the
windowed state stays within about 2 * sqrt(2) * t * tiny (6e-304 at
t = 10^4) of the unwindowed one.  In
floating point the two also drift apart by rounding: once a component
differs at all, its later roundings can fall either way, a few ulps of its
own size.  Over 40 random walks at t = 10^4 no component above 4e-281
changed, the largest change was 6e-297, and every P_t(x) = |L|^2 + |R|^2
kept its bits, since the square of a component below 1e-280 underflows to 0
either way.  Before t = 2044 no site of a normalized start underflows and
every operation is the unwindowed one.
"""

from __future__ import annotations

import cmath
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
    "step",
    "evolve",
    "path_sum_field",
    "distribution",
    "rescaled_distribution",
    "cesaro_average",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TINY = float(np.finfo(np.float64).tiny)

MAX_STEPS = 10**6  # memory guard: a walk of t steps holds O(t) amplitudes
NORM_TOL = 1e-12  # largest |a^2 + b^2 - 1| an initial spinor may have

_PATH_SUM_LIMIT = 20  # 2^t paths; anything larger is not a useful oracle


class StepLimitError(RuntimeError):
    """Requested evolution length exceeds the step cap ``MAX_STEPS``."""


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
        if not (0.0 <= self.phi < 1.0):
            raise ValueError(f"phi must lie in [0, 1), got {self.phi!r}")
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("amplitude moduli a, b must be nonnegative")
        norm = self.a * self.a + self.b * self.b
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"initial state not normalized: a^2 + b^2 = {norm!r}")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValueError(f"phases must be finite, got phi1={self.phi1!r}, phi2={self.phi2!r}")

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
    hold amplitude, so every state that ``evolve``, ``step`` and
    ``path_sum_field`` produce has exact zeros in its odd columns.  ``step``
    relies on this: it reads only the even columns and refuses a state
    with anything in the odd ones.

    Past t = 2044 the sites at the front of the light cone underflow; a
    field from ``evolve`` holds exact zeros there, where an unwindowed step
    would hold stuck subnormals (see the module docstring for the bound).
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

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class Distribution:
    """Position distribution P_t(x) over the support of one walk state."""

    support: np.ndarray
    prob: np.ndarray


def _advance(
    rows: np.ndarray, lo: int, hi: int, tau: int, defect: complex, diff: np.ndarray
) -> None:
    """One step, in place, on the active columns ``[lo, hi)`` only.

    Before the step column j of ``rows`` holds site 2j - tau; after it, site
    2j - (tau + 1).  A left mover keeps its column and a right mover moves up
    one, so the active columns become ``[lo, hi + 1)``; columns outside
    ``[lo, hi)`` must hold zeros.  ``diff`` is scratch space of at least
    hi - lo entries.
    """
    left = rows[0, lo:hi]
    right = rows[1, lo:hi]
    d = diff[: hi - lo]
    np.subtract(left, right, out=d)
    left += right
    left *= _INV_SQRT2
    moved = rows[1, lo + 1 : hi + 1]
    np.multiply(d, _INV_SQRT2, out=moved)
    rows[1, lo] = 0.0
    origin = tau // 2  # column of site 0, populated at even times only
    if tau % 2 == 0 and lo <= origin < hi:
        rows[0, origin] *= defect
        rows[1, origin + 1] *= defect


def _negligible(rows: np.ndarray, j: int) -> bool:
    """Whether both amplitudes of column j are below the smallest normal double."""
    return abs(rows.item(0, j)) < _TINY and abs(rows.item(1, j)) < _TINY


def _check_steps(t: int) -> None:
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > MAX_STEPS:
        raise StepLimitError(f"requested {t} steps, cap is {MAX_STEPS}")


def _populated_rows(params: WalkParams, t: int, target: int | None = None) -> Iterator[np.ndarray]:
    """Yield the populated sites' amplitudes at times 0, 1, ..., t.

    The yield at time tau is a (2, tau + 1) view whose column j is site
    2j - tau; the next step overwrites it.  Only the active window of columns
    is stepped, and every column outside it holds exact zeros.  After each
    step an edge column leaves the window while both its amplitudes are
    below ``_TINY``; with a ``target`` site, so does every column outside
    the backward light cone of (target, t), which cannot reach the target
    by time t.  The checks run before anything is allocated.
    """
    _check_steps(t)
    if target is None:
        shift, cap = -t, t + 1
    else:  # column j at time s is in the cone iff s + shift <= j < cap
        shift, cap = -((t - target) // 2), (t + target) // 2 + 1
    rows = np.zeros((2, t + 1), dtype=np.complex128)
    diff = np.empty(t, dtype=np.complex128)
    rows[:, 0] = params.initial_spinor()
    defect = params.defect_factor()
    lo, hi = 0, 1
    yield rows[:, :1]
    for tau in range(t):
        _advance(rows, lo, hi, tau, defect, diff)
        hi += 1
        while lo < hi and (lo < tau + 1 + shift or _negligible(rows, lo)):
            rows[:, lo] = 0.0
            lo += 1
        while lo < hi and (hi > cap or _negligible(rows, hi - 1)):
            hi -= 1
            rows[:, hi] = 0.0
        yield rows[:, : tau + 2]


def step(state: AmplitudeField, phi: float) -> AmplitudeField:
    """Advance one time step; support grows by one site on each side.

    Every populated site is stepped: a single step has no underflow window.
    Raises ValueError for a state that breaks the parity invariant of
    ``AmplitudeField``, since the step reads only the even columns.
    """
    if state.amplitudes[:, 1::2].any():
        raise ValueError("state has amplitude on sites of the wrong parity for its time")
    tau = state.time
    rows = np.zeros((2, tau + 2), dtype=np.complex128)
    rows[:, : tau + 1] = state.amplitudes[:, ::2]
    diff = np.empty(tau + 1, dtype=np.complex128)
    _advance(rows, 0, tau + 1, tau, cmath.exp(2j * math.pi * phi), diff)
    out = np.zeros((2, 2 * tau + 3), dtype=np.complex128)
    out[:, ::2] = rows
    return AmplitudeField(out, tau + 1)


def evolve(params: WalkParams, t: int) -> AmplitudeField:
    """Evolve from the origin spinor for t steps.

    The steps run in place on the populated parity class, within the
    underflow window of the module docstring; the result is scattered into
    a dense field with zeros between and beyond.

    Raises
    ------
    StepLimitError
        When t exceeds ``MAX_STEPS``, before anything is allocated.
    """
    for rows in _populated_rows(params, t):
        pass
    amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    amps[:, ::2] = rows
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
    return Distribution(state.positions(), prob.real.astype(float))


def rescaled_distribution(dist: Distribution, t: int) -> np.ndarray:
    """Pairs (x/t, t*P_t(x)) for every site in the support.

    This is the rescaling under which the walk's position law converges;
    t = 0 has no rescaled space and is rejected.
    """
    if t <= 0:
        raise ValueError("rescaled distribution needs t >= 1")
    if len(dist.support) != 2 * t + 1:
        raise ValueError(f"distribution support does not match t={t}")
    return np.column_stack((dist.support / t, t * dist.prob))


def cesaro_average(params: WalkParams, T: int, x: int) -> float:
    """Time average (1/T) * sum_{t=0}^{T-1} P_t(x).

    Odd and even times are both included; sites with the wrong parity
    contribute exactly zero at those times.  For defect phases that trap the
    walker this approximates the site's share of the localized mass.  Only
    the backward light cone of (x, T - 1) is stepped, which gives the same
    bits as the whole walk at about half the work; |x| >= T returns 0.0
    without stepping.  Raises StepLimitError, before allocating, when T - 1
    exceeds ``MAX_STEPS``.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T!r}")
    _check_steps(T - 1)
    if abs(x) >= T:  # the walker never reaches x within T - 1 steps
        return 0.0
    acc = 0.0
    for tau, rows in enumerate(_populated_rows(params, T - 1, x)):
        if abs(x) <= tau and (x + tau) % 2 == 0:
            j = (x + tau) // 2
            acc += abs(rows[0, j]) ** 2 + abs(rows[1, j]) ** 2
    return acc / T
