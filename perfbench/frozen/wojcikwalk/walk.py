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

import numpy as np

__all__ = [
    "DEFAULT_MAX_STEPS",
    "StepLimitError",
    "Spinor",
    "WalkParams",
    "AmplitudeField",
    "Distribution",
    "coin_at",
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
class Spinor:
    """Two-component amplitude at one site: left mover and right mover."""

    left: complex
    right: complex

    def probability(self) -> float:
        return abs(self.left) ** 2 + abs(self.right) ** 2


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
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state not normalized: a^2 + b^2 = {norm!r}")

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

    def spinor(self, x: int) -> Spinor:
        if abs(x) > self.time:
            return Spinor(0j, 0j)
        idx = x + self.origin_offset
        return Spinor(complex(self.amplitudes[0, idx]), complex(self.amplitudes[1, idx]))

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


def coin_at(x: int, phi: float) -> np.ndarray:
    """The 2x2 coin at site x: Hadamard, with the defect phase at x = 0."""
    h = _INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128)
    if x == 0:
        h = cmath.exp(2j * math.pi * phi) * h
    return h


def _advance(src: np.ndarray, dst: np.ndarray, defect: complex) -> None:
    """One step: src covers [-t, t], dst covers [-(t+1), t+1], overwritten."""
    n = src.shape[1]
    center = n // 2
    u = (src[0] + src[1]) * _INV_SQRT2
    v = (src[0] - src[1]) * _INV_SQRT2
    u[center] *= defect
    v[center] *= defect
    dst[0, :n] = u
    dst[0, n:] = 0.0
    dst[1, 2:] = v
    dst[1, :2] = 0.0


def step(state: AmplitudeField, phi: float) -> AmplitudeField:
    """Advance one time step; support grows by one site on each side."""
    n = state.amplitudes.shape[1]
    out = np.empty((2, n + 2), dtype=np.complex128)
    _advance(state.amplitudes, out, cmath.exp(2j * math.pi * phi))
    return AmplitudeField(out, state.time + 1)


def _initial_field(params: WalkParams) -> AmplitudeField:
    amps = params.initial_spinor().reshape(2, 1)
    return AmplitudeField(amps, 0)


def evolve(params: WalkParams, t: int, max_steps: int = DEFAULT_MAX_STEPS) -> AmplitudeField:
    """Evolve from the origin spinor for t steps.

    Uses two preallocated buffers of the final width and swaps them each
    step, writing each destination window fully so no stale values survive.

    Raises
    ------
    StepLimitError
        When t exceeds ``max_steps`` (memory guard; the state needs O(t)
        storage).
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    if t > max_steps:
        raise StepLimitError(f"requested {t} steps, cap is {max_steps}")
    if t == 0:
        return _initial_field(params)
    width = 2 * t + 1
    cur = np.zeros((2, width), dtype=np.complex128)
    nxt = np.zeros((2, width), dtype=np.complex128)
    cur[:, t] = params.initial_spinor()
    defect = params.defect_factor()
    for tau in range(t):
        src = cur[:, t - tau : t + tau + 1]
        dst = nxt[:, t - tau - 1 : t + tau + 2]
        _advance(src, dst, defect)
        cur, nxt = nxt, cur
    return AmplitudeField(cur, t)


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
        return _initial_field(params)
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
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T!r}")
    width = 2 * T + 1
    cur = np.zeros((2, width), dtype=np.complex128)
    nxt = np.zeros((2, width), dtype=np.complex128)
    cur[:, T] = params.initial_spinor()
    defect = params.defect_factor()
    col = T + x
    acc = 0.0
    if 0 <= col < width:
        acc += abs(cur[0, col]) ** 2 + abs(cur[1, col]) ** 2
    for tau in range(T - 1):
        src = cur[:, T - tau : T + tau + 1]
        dst = nxt[:, T - tau - 1 : T + tau + 2]
        _advance(src, dst, defect)
        cur, nxt = nxt, cur
        if 0 <= col < width:
            acc += abs(cur[0, col]) ** 2 + abs(cur[1, col]) ** 2
    return acc / T
