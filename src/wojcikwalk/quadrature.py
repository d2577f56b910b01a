"""Integration of limit densities with inverse-square-root endpoint blowup.

The continuous part of the walk's limit law lives on (-1/sqrt(2), 1/sqrt(2))
and diverges like (1 - 2x^2)^(-1/2) at both endpoints.  Two rules absorb it.
``integrate_ac`` substitutes x = sin(u)/sqrt(2), which cancels that factor
against the cosine Jacobian, and refines Gauss-Legendre panels in u, split at
u = 0 where the weight may switch branches; one driver refines any number of
intervals together, with one density call per level.  ``bin_masses_in_k`` is
a fixed rule in the frequency k of x(k) = cos k / sqrt(1 + cos^2 k), under
which f_K(x) dx = dk / pi: its integrand is the weight alone, analytic also
at the support edge.  Both analytic routes bin through it.
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
    "bin_masses_in_k",
]

SUPPORT_RADIUS = 1.0 / math.sqrt(2.0)

_PANEL_ORDER = 12
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_BUDGET = 200_000  # hard cap on integrand evaluations per integral
_MAX_PANELS = 8192  # panels per integrand call of either rule: at most 4096 intervals, fewer as they refine

# Widest panel of the k rule: 12 cells of a 10^4-point circle.  Against
# 30-digit bin integrals it is within 7e-16, and a grid 100 times finer
# within 1.6e-15: the bin edges and graded breakpoints are exact cuts.
_PANEL = _PANEL_ORDER * (2.0 * math.pi / 10**4)

# Breakpoints 4^-1 ... 4^-23 in u, graded toward u = 0 (k = pi/2): as phi
# nears 0, 1/4 or 3/4 the density's poles near x = 0 close in on the real
# axis, and no panel of the graded run is wider than 3 times its distance to 0.
_GRADED = 4.0 ** -np.arange(1, 24)


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


def abscissa(c: np.ndarray) -> np.ndarray:
    """u = |cos k| / sqrt(1 + cos^2 k), the |x| that frequency k maps to, at cos k = c."""
    return np.abs(c) / np.sqrt(1.0 + c * c)


def bin_masses_in_k(integrand: Callable[[np.ndarray], np.ndarray], bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges of ``bins`` >= 1 equal bins of the support, and each bin's mass, integrated in k.

    On 0 < k < pi/2, u = ``abscissa(cos k)`` falls from 1/sqrt(2) to 0 and
    f_K(x) dx = dk / pi at x = u and x = -u.  ``integrand(cos k)`` returns a
    (2, n) array, the weight at x = u and at x = -u.  The cuts are the
    frequencies k(u) = atan2(sqrt(1 - 2u^2), u) of every |bin edge|, u = 0
    and ``_GRADED``, and a grid of spacing ``_PANEL``; the 12-point panels
    between them (at most 2 500 + 12 (bins + 25) nodes) go ``_MAX_PANELS`` to
    an integrand call, and each panel's two sums to the bins of +u and -u at
    its midpoint.  In the first panel, [0, 2.1e-8], u rounds to ``SUPPORT_RADIUS``.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins!r}")
    edges = np.linspace(-SUPPORT_RADIUS, SUPPORT_RADIUS, bins + 1)
    # u = 0 ends quadrant I at k = pi/2 (no bin edge when bins is odd); the grid's 0 starts it
    u = np.concatenate((np.abs(edges), [0.0], _GRADED))
    k = np.arctan2(np.sqrt(1.0 - 2.0 * u * u), u)
    cuts = np.sort(np.concatenate((k, np.arange(0.0, math.pi / 2.0, _PANEL))))
    cuts = cuts[np.append(np.diff(cuts) > 0.0, True)]
    half = 0.5 * np.diff(cuts)
    centre = cuts[:-1] + half
    sums = np.empty((2, centre.size))  # each panel's +u and -u sums
    for lo in range(0, centre.size, _MAX_PANELS):
        block = slice(lo, lo + _MAX_PANELS)
        nodes = (centre[block, None] + half[block, None] * _NODES).ravel()
        sums[:, block] = integrand(np.cos(nodes)).reshape(2, -1, _PANEL_ORDER) @ _WEIGHTS
    # bins of +u and -u at each midpoint; bincount adds the +u row, then the -u row
    where = np.searchsorted(edges[1:-1], [[1.0], [-1.0]] * abscissa(np.cos(centre)), side="right")
    return edges, np.bincount(where.ravel(), (half * sums).ravel(), bins) / math.pi
