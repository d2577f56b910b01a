"""Integration of limit densities with inverse-square-root endpoint blowup.

The continuous part of the walk's limit law lives on (-1/sqrt(2), 1/sqrt(2))
and diverges like (1 - 2x^2)^(-1/2) at both endpoints.  Substituting
x = sin(u)/sqrt(2) cancels that factor against the cosine Jacobian, so the
transformed integrand is smooth on [-pi/2, pi/2] and composite Gauss-Legendre
panels converge rapidly.  The interval is split at u = 0 because the weight
factor of the density is allowed to switch branches across x = 0.
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
_DEFAULT_BUDGET = 200_000


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


def _panel_sum(g: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    """Composite fixed-order Gauss-Legendre over n equal panels of [lo, hi]."""
    h = (hi - lo) / n
    starts = lo + h * np.arange(n)
    mids = starts + 0.5 * h
    pts = (mids[:, None] + (0.5 * h) * _NODES[None, :]).ravel()
    vals = np.fromiter((g(float(p)) for p in pts), dtype=float, count=pts.size)
    return 0.5 * h * float((vals.reshape(n, _PANEL_ORDER) @ _WEIGHTS).sum())


def _refine_piece(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    budget: int,
) -> tuple[float, float, int, bool]:
    """Panel-doubling refinement of one sub-interval.

    Returns (value, est_error, evaluations, converged).  The error estimate
    is the difference between the last two doubling levels, which bounds the
    coarser level's error and strongly overestimates the finer one's.
    """
    n = 2
    value = _panel_sum(g, lo, hi, n)
    used = n * _PANEL_ORDER
    est = math.inf
    while True:
        n *= 2
        cost = n * _PANEL_ORDER
        if used + cost > budget:
            return value, est, used, False
        nxt = _panel_sum(g, lo, hi, n)
        used += cost
        est = abs(nxt - value)
        value = nxt
        if est <= tol:
            return value, est, used, True


def integrate_ac(
    density: Callable[[float], float],
    tol: float,
    *,
    lo: float = -SUPPORT_RADIUS,
    hi: float = SUPPORT_RADIUS,
    max_evaluations: int = _DEFAULT_BUDGET,
) -> QuadratureResult:
    """Integrate ``density`` over (lo, hi) inside the open support interval.

    Parameters
    ----------
    density : callable
        Real-valued evaluator on (-1/sqrt(2), 1/sqrt(2)).  Endpoint values
        are never requested; quadrature nodes stay strictly interior.
    tol : float
        Target absolute error estimate, in (0, 1e-2].
    lo, hi : float, optional
        Sub-interval bounds, defaulting to the full support.  Useful for
        per-bin integrals of the same densities.
    max_evaluations : int, optional
        Hard cap on integrand evaluations across all refinement levels.

    Returns
    -------
    QuadratureResult
        With ``est_error <= tol`` on success.

    Raises
    ------
    ValueError
        On an invalid tolerance or interval.
    QuadratureConvergenceError
        When the budget is exhausted first; carries the partial result.
    """
    if not (0.0 < tol <= 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol!r}")
    if not (-SUPPORT_RADIUS - 1e-15 <= lo < hi <= SUPPORT_RADIUS + 1e-15):
        raise ValueError(
            f"need -1/sqrt(2) <= lo < hi <= 1/sqrt(2), got lo={lo!r}, hi={hi!r}"
        )
    if max_evaluations < 4 * _PANEL_ORDER:
        raise ValueError("max_evaluations too small to form one error estimate")

    def transformed(u: float) -> float:
        x = SUPPORT_RADIUS * math.sin(u)
        return density(x) * SUPPORT_RADIUS * math.cos(u)

    u_lo = math.asin(max(-1.0, min(1.0, lo / SUPPORT_RADIUS)))
    u_hi = math.asin(max(-1.0, min(1.0, hi / SUPPORT_RADIUS)))

    # Split at u = 0 (x = 0) when the interval straddles it.
    pieces = [(u_lo, u_hi)]
    if u_lo < 0.0 < u_hi:
        pieces = [(u_lo, 0.0), (0.0, u_hi)]

    piece_tol = tol / len(pieces)
    total = 0.0
    total_err = 0.0
    total_used = 0
    for p_lo, p_hi in pieces:
        value, est, used, converged = _refine_piece(
            transformed, p_lo, p_hi, piece_tol, max_evaluations - total_used
        )
        total += value
        total_err += est
        total_used += used
        if not converged:
            partial = QuadratureResult(total, total_err, total_used)
            raise QuadratureConvergenceError(
                f"no convergence to tol={tol:g} within {max_evaluations} "
                f"evaluations (best estimate {total_err:g})",
                partial,
            )
    return QuadratureResult(total, total_err, total_used)
