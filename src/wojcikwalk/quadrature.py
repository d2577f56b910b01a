"""Integration of limit densities with inverse-square-root endpoint blowup.

The continuous part of the walk's limit law lives on (-1/sqrt(2), 1/sqrt(2))
and diverges like (1 - 2x^2)^(-1/2) at both endpoints.  Substituting
x = sin(u)/sqrt(2) cancels that factor against the cosine Jacobian, so the
transformed integrand is smooth on [-pi/2, pi/2] and composite Gauss-Legendre
panels converge rapidly.  The interval is split at u = 0 because the weight
factor of the density is allowed to switch branches across x = 0.
One driver refines any number of intervals together, with one density call
per level over every unconverged interval; ``integrate_ac`` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SUPPORT_RADIUS",
    "QuadratureResult",
    "QuadratureConvergenceError",
    "integrate_ac",
]

SUPPORT_RADIUS = 1.0 / math.sqrt(2.0)

_PANEL_ORDER = 12
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_BUDGET = 200_000  # hard cap on integrand evaluations per integral
_MAX_PANELS = 8192  # panels per integrand call, also in spectral: at most 4096 intervals, fewer as they refine


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate.

    Attributes
    ----------
    value : float
        Best available approximation of the integral.
    est_error : float
        Estimated absolute error (difference of the last two refinement
        levels).  ``math.inf`` when no second level could be afforded.
    evaluations : int
        Number of integrand evaluations spent.
    """

    value: float
    est_error: float
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """Evaluation budget ran out before the error estimate met ``tol``.

    The best value reached so far is carried in ``partial``.  It sums every
    piece refined before the budget ran out, each at its deepest affordable
    level, so with a very small budget it may cover only part of the interval.
    """

    def __init__(self, message: str, partial: QuadratureResult):
        super().__init__(message)
        self.partial = partial


def _panel_sums(density: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Gauss-Legendre sums in u of n equal panels of each [lo[i], hi[i]], ``_MAX_PANELS`` per density call.

    ``(group, n, 12) @ _WEIGHTS`` runs one BLAS product per interval; a flat
    ``(group * n, 12)`` one would block rows of neighbouring intervals together.
    """
    h = (hi - lo) / n
    half = 0.5 * h
    out = np.empty(lo.size)
    step = max(1, _MAX_PANELS // n)
    for s in range(0, lo.size, step):
        group = slice(s, s + step)
        mids = (lo[group, None] + h[group, None] * np.arange(n)) + half[group, None]
        u = (mids[:, :, None] + half[group, None, None] * _NODES).ravel()
        vals = density(SUPPORT_RADIUS * np.sin(u)) * SUPPORT_RADIUS * np.cos(u)
        out[group] = half[group] * (np.reshape(vals, (-1, n, _PANEL_ORDER)) @ _WEIGHTS).sum(axis=1)
    return out


def _refine(
    density: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: np.ndarray, budget: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Panel doubling on every [lo[i], hi[i]] at once: arrays (value, est_error, evaluations, converged).

    The estimate is the difference of the last two levels, which bounds the
    coarser level's error and strongly overestimates the finer one's.  An
    interval stops at its ``tol``, or before its next level passes its ``budget``.
    """
    n = 2
    value = _panel_sums(density, lo, hi, n)
    used, est = np.full(lo.size, n * _PANEL_ORDER), np.full(lo.size, math.inf)
    active = np.arange(lo.size)
    while True:
        n *= 2
        active = active[used[active] + n * _PANEL_ORDER <= budget[active]]
        if not active.size:
            return value, est, used, est <= tol
        nxt = _panel_sums(density, lo[active], hi[active], n)
        used[active] += n * _PANEL_ORDER
        est[active] = np.abs(nxt - value[active])
        value[active] = nxt
        active = active[est[active] > tol[active]]


def _integrate_intervals(
    density: Callable[[np.ndarray], np.ndarray], tol: float, lo: list[float], hi: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``integrate_ac`` of each (lo[i], hi[i]), unvalidated: arrays (value, est_error, evaluations).

    A straddling interval's second half is refined after every first half,
    with the evaluations its first half left.  The first interval that fails
    raises ``integrate_ac``'s error with its partial result.
    """
    u_lo, u_hi = (np.array([math.asin(max(-1.0, min(1.0, x / SUPPORT_RADIUS))) for x in ends]) for ends in (lo, hi))
    split = (u_lo < 0.0) & (0.0 < u_hi)  # split at u = 0 (x = 0), each half with tol / 2
    piece_tol = np.where(split, tol / 2, tol)
    total, total_err = np.zeros((2, u_lo.size))  # each piece adds to sums from 0.0
    total_used = np.zeros(u_lo.size, dtype=np.int64)
    failed = np.zeros(u_lo.size, dtype=bool)
    which, p_lo, p_hi = np.arange(u_lo.size), u_lo, np.where(split, 0.0, u_hi)
    while which.size:
        value, est, used, converged = _refine(density, p_lo, p_hi, piece_tol[which], _BUDGET - total_used[which])
        total[which] += value
        total_err[which] += est
        total_used[which] += used
        failed[which] = ~converged
        which = which[converged & (p_hi < u_hi[which])]  # a converged first half goes on to (0, u_hi)
        p_lo, p_hi = np.zeros(which.size), u_hi[which]
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        partial = QuadratureResult(float(total[i]), float(total_err[i]), int(total_used[i]))
        message = f"no convergence to tol={tol:g} within {_BUDGET} evaluations (best estimate {partial.est_error:g})"
        raise QuadratureConvergenceError(message, partial)
    return total, total_err, total_used


def integrate_ac(
    density: Callable[[np.ndarray], np.ndarray],
    tol: float,
    *,
    lo: float = -SUPPORT_RADIUS,
    hi: float = SUPPORT_RADIUS,
) -> QuadratureResult:
    """Integrate ``density`` over (lo, hi) inside the open support interval.

    Parameters
    ----------
    density : callable
        Real-valued evaluator on (-1/sqrt(2), 1/sqrt(2)).  It is called on
        whole 1-d arrays of quadrature nodes, one array per refinement level,
        and must return an array of the same shape.  Endpoint values are never
        requested; the nodes stay strictly interior.
    tol : float
        Target absolute error estimate, in (0, 1e-2].
    lo, hi : float, optional
        Sub-interval bounds, defaulting to the full support.  Useful for
        per-bin integrals of the same densities.

    Returns
    -------
    QuadratureResult
        With ``est_error <= tol`` on success.

    Raises
    ------
    ValueError
        On an invalid tolerance or interval.
    QuadratureConvergenceError
        When ``_BUDGET`` evaluations, across all refinement levels, run out
        first; carries the partial result.
    """
    if not (0.0 < tol <= 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol!r}")
    if not (-SUPPORT_RADIUS - 1e-15 <= lo < hi <= SUPPORT_RADIUS + 1e-15):
        raise ValueError(
            f"need -1/sqrt(2) <= lo < hi <= 1/sqrt(2), got lo={lo!r}, hi={hi!r}"
        )
    value, est, used = _integrate_intervals(density, tol, [lo], [hi])
    return QuadratureResult(float(value[0]), float(est[0]), int(used[0]))
