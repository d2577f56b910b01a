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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "DEFAULT_MAX_STEPS",
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

DEFAULT_MAX_STEPS = 10**6

_PATH_SUM_LIMIT = 20  # 2^t paths; anything larger is not a useful oracle


class StepLimitError(RuntimeError):
    """Requested evolution length exceeds the configured step cap."""


@dataclass(frozen=True)
class WalkParams:
    """Defect phase and initial spinor in polar form.

    ``phi`` is the defect phase in units of full turns, so the origin coin
    is exp(2*pi*i*phi) times Hadamard.  The walker starts at the origin in
    the spinor [a*exp(i*phi1), b*exp(i*phi2)] with a, b >= 0 and
    a^2 + b^2 = 1.
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
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"initial state not normalized: a^2 + b^2 = {norm!r}")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValueError(f"phases must be finite, got phi1={self.phi1!r}, phi2={self.phi2!r}")

    @classmethod
    def from_spinor(cls, phi: float, alpha: complex, beta: complex) -> "WalkParams":
        """Build params from raw complex amplitudes (must be normalized)."""
        a = abs(alpha)
        b = abs(beta)
        phi1 = cmath.phase(alpha) if a > 0.0 else 0.0
        phi2 = cmath.phase(beta) if b > 0.0 else 0.0
        return cls(phi=phi, a=a, b=b, phi1=phi1, phi2=phi2)

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
    movers, and column ``origin_offset`` is lattice site 0.

    Parity invariant: after t steps only the sites x with x = t (mod 2) can
    hold amplitude, so every state that ``evolve``, ``step`` and
    ``path_sum_field`` produce has exact zeros in its odd columns.  ``step``
    relies on this: it reads only the even columns and refuses a state
    with anything in the odd ones.
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

    @property
    def origin_offset(self) -> int:
        return self.time

    def positions(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1)

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class Distribution:
    """Position distribution P_t(x) over the support of one walk state."""

    support: np.ndarray
    prob: np.ndarray

    def probability_at(self, x: int) -> float:
        t = (len(self.support) - 1) // 2
        if abs(x) > t:
            return 0.0
        return float(self.prob[x + t])


def _advance(rows: np.ndarray, tau: int, defect: complex, diff: np.ndarray) -> None:
    """One step, in place, on the populated sites only.

    Before the step column j of ``rows`` holds site 2j - tau; after it, site
    2j - (tau + 1).  A left mover keeps its column and a right mover moves up
    one, so ``rows`` needs tau + 2 columns, column tau + 1 of row 0 zero.
    ``diff`` is scratch space of at least tau + 1 entries.
    """
    left, right = rows[:, : tau + 1]
    d = diff[: tau + 1]
    np.subtract(left, right, out=d)
    left += right
    left *= _INV_SQRT2
    moved = rows[1, 1 : tau + 2]
    np.multiply(d, _INV_SQRT2, out=moved)
    rows[1, 0] = 0.0
    if tau % 2 == 0:  # the origin, column tau/2, is populated at even times only
        left[tau // 2] *= defect
        moved[tau // 2] *= defect


def _populated_rows(params: WalkParams, t: int, max_steps: int) -> Iterator[np.ndarray]:
    """Yield the populated sites' amplitudes at times 0, 1, ..., t.

    The yield at time tau is a (2, tau + 1) view whose column j is site
    2j - tau; the next step overwrites it.  The checks run before anything
    is allocated.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > max_steps:
        raise StepLimitError(f"requested {t} steps, cap is {max_steps}")
    rows = np.zeros((2, t + 1), dtype=np.complex128)
    diff = np.empty(t, dtype=np.complex128)
    rows[:, 0] = params.initial_spinor()
    defect = params.defect_factor()
    yield rows[:, :1]
    for tau in range(t):
        _advance(rows, tau, defect, diff)
        yield rows[:, : tau + 2]


def step(state: AmplitudeField, phi: float) -> AmplitudeField:
    """Advance one time step; support grows by one site on each side.

    Raises ValueError for a state that breaks the parity invariant of
    ``AmplitudeField``, since the step reads only the even columns.
    """
    if state.amplitudes[:, 1::2].any():
        raise ValueError("state has amplitude on sites of the wrong parity for its time")
    tau = state.time
    rows = np.zeros((2, tau + 2), dtype=np.complex128)
    rows[:, : tau + 1] = state.amplitudes[:, ::2]
    diff = np.empty(tau + 1, dtype=np.complex128)
    _advance(rows, tau, cmath.exp(2j * math.pi * phi), diff)
    out = np.zeros((2, 2 * tau + 3), dtype=np.complex128)
    out[:, ::2] = rows
    return AmplitudeField(out, tau + 1)


def evolve(params: WalkParams, t: int, max_steps: int = DEFAULT_MAX_STEPS) -> AmplitudeField:
    """Evolve from the origin spinor for t steps.

    The steps run in place on the t + 1 sites of the populated parity
    class; the result is scattered into a dense field with zeros between.

    Raises
    ------
    StepLimitError
        When t exceeds ``max_steps`` (memory guard; the state needs O(t)
        storage).
    """
    for rows in _populated_rows(params, t, max_steps):
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
    walker this approximates the site's share of the localized mass.
    Raises StepLimitError, before allocating, when T - 1 exceeds
    ``DEFAULT_MAX_STEPS``.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T!r}")
    acc = 0.0
    for tau, rows in enumerate(_populated_rows(params, T - 1, DEFAULT_MAX_STEPS)):
        if abs(x) <= tau and (x + tau) % 2 == 0:
            j = (x + tau) // 2
            acc += abs(rows[0, j]) ** 2 + abs(rows[1, j]) ** 2
    return acc / T
