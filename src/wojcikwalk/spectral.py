"""Residue-based reconstruction of the walk's continuous limit density.

This is an independent route to the same density that limit.py evaluates in
closed form.  The generating function of the walk's amplitudes, Fourier
transformed in space, has simple poles on the unit circle; for each spatial
frequency k the two poles sit at

    z_plus(k),  z_minus(k)        (one per propagation direction),

and the residues there, assembled from four nonnegative factors (items 1-4),
give the density of the rescaled position at x_plus(k) = |cos k| /
sqrt(1 + cos^2 k) and x_minus(k) = -x_plus(k).  ``weight_from_residues``
maps x back to its frequencies and sums their residue norms into w(x).
``density_via_k_integration`` integrates the residue norms over k, with dk
as the measure, by ``quadrature.bin_masses_in_k``, the k rule that
``limit.atom_mass`` also takes: it never calls the closed-form weight, which
makes its bin masses a genuine cross-check of the integrals of w(x) f_K(x).

Both routes evaluate one residue formula, ``_residue_norms``, which forms
each pole factor's denominator once for the two residues it feeds.

All evaluations work on the ballistic region |sin theta| < 1/sqrt(2) of the
circle, z = exp(i*theta).  Reconstructing the localized point mass from the
complementary region is out of scope here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import SUPPORT_RADIUS, abscissa, bin_masses_in_k
from .walk import WalkParams, _check_phi, _integer

__all__ = [
    "BinnedDensity",
    "weight_from_residues",
    "density_via_k_integration",
]

_SQRT2 = math.sqrt(2.0)
_AXIS_TOL = 1e-12


@dataclass
class BinnedDensity:
    """Masses of the continuous limit density on ``bins`` equal bins of the support."""

    bin_edges: np.ndarray
    masses: np.ndarray


def _ballistic_pole(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Abscissa u = x_plus and pole factor f_plus at frequencies with cos k = c.

    Both depend on k only through |cos k|.  The pole factor of a residue is
    f_plus where branch * cos k * sin k < 0 and conj(f_plus) elsewhere.
    """
    u = abscissa(c)
    one_minus = 1.0 - u * u
    cos_t = 1.0 / np.sqrt(2.0 * one_minus)  # |cos theta| at the pole
    sin_t = np.sqrt((1.0 - 2.0 * u * u) / (2.0 * one_minus))
    root = u / np.sqrt(one_minus)  # sqrt(2 cos_t^2 - 1), exact at the pole
    m = _SQRT2 * cos_t - root
    return u, cos_t * m + 1j * (sin_t * m)


def _residue_norms(
    u: np.ndarray, f: np.ndarray, phi: float, init: WalkParams
) -> tuple[np.ndarray, np.ndarray]:
    """Products of items 1-4 at pole factor f, for the residues at x = u and x = -u.

    Items 1, 2 and 4 do not depend on the branch, so the denominator
    |1 - sqrt(2) omega f + omega^2 f^2|^2 is formed once for both.
    """
    omega = cmath.exp(2j * math.pi * phi)
    alpha = init.a * cmath.exp(1j * init.phi12)
    beta = init.b

    denom = 1.0 - _SQRT2 * omega * f + (omega * omega) * f * f
    item12 = u * u * (1.0 / np.abs(denom) ** 2)
    item4 = 2.0 / (1.0 + u)
    plus = item12 * (0.5 * np.abs(alpha - beta - _SQRT2 * omega * alpha * f) ** 2) * item4
    minus = item12 * (0.5 * np.abs(alpha + beta - _SQRT2 * omega * beta * f) ** 2) * item4
    return plus, minus


def weight_from_residues(x, params: WalkParams):
    """Pointwise weight at x rebuilt from residues, bypassing the closed form.

    The two frequencies in (0, pi) that feed |x| (one per sign of
    sin(k)cos(k)) contribute one residue norm each; their sum is w(x).
    Any x outside 0 < |x| < 1/sqrt(2) is refused; the result has the shape
    of x (a 0-d array for a scalar x).  Of the spinor only ``a``, ``b`` and
    ``phi12`` are read, as in ``limit.weight_coefficients``.

    Near x = 0 the frequencies approach pi/2, and the x -> k -> cos k round
    trip keeps only the absolute accuracy of k, about 1e-16: against
    ``limit.weight`` the relative error is up to about 4e-16 / |x| (1.2e-5
    at |x| = 1e-11; phi = 0.3, spinor (0.6, 0, 0.8, 1)).  At phi in {0, 1/4,
    3/4} f also nears a zero of the denominator of ``_residue_norms``: that
    costs as much again, even from u = |x| itself (2.3e-7 at 1e-9, phi = 0).
    Where |cos k| = |x| / sqrt(1 - x^2) is below 1e-12, k is pi/2 to
    rounding, on a coordinate axis, and x is refused (the other axis,
    sin k = 0, is never reached: every |x| < 1/sqrt(2) maps to k >= 2.1e-8).
    """
    xs = np.asarray(x, dtype=float)
    u = np.abs(xs)
    outside = ~((0.0 < u) & (u < SUPPORT_RADIUS))
    if outside.any():
        raise ValueError(f"need 0 < |x| < 1/sqrt(2), got x={float(xs[outside][0])!r}")
    cos_mag = (u / np.sqrt(1.0 - u * u)).ravel()  # |cos k|
    on_axis = xs.ravel()[cos_mag < _AXIS_TOL]
    if on_axis.size:
        raise ValueError(f"x={float(on_axis[0])!r} maps to k on a coordinate axis; sign factors are undefined there")
    # math.acos, not np.arccos: they differ in the last bit for ~9 % of arguments
    k_first = np.array([math.acos(c) for c in cos_mag.tolist()])
    n = k_first.size
    k = np.concatenate((k_first, math.pi - k_first))  # quadrants I and II
    u_k, f = _ballistic_pole(np.cos(k))
    # at x = u the pole factors are conj f in quadrant I and f in quadrant
    # II, at x = -u the reverse, so one norm pass serves both signs: the
    # plus norms of x > 0, the minus norms of x < 0
    positive = xs.ravel() > 0.0
    f_x = np.where(np.concatenate((positive, ~positive)), f.conj(), f)
    plus, minus = _residue_norms(u_k, f_x, params.phi, params)
    total = np.where(positive, plus[:n] + plus[n:], minus[:n] + minus[n:])
    return total.reshape(xs.shape)


def density_via_k_integration(phi: float, init: WalkParams, n_k: int, bins: int) -> BinnedDensity:
    """Bin masses of the continuous limit density, integrated in k bin by bin.

    The four quadrants of the circle share |cos k| and conjugate the pole
    factor in pairs, so the whole circle puts (N(f_plus) + N(conj f_plus))
    / pi dk at x = u and at x = -u, one residue norm N per branch: the
    integrand of ``quadrature.bin_masses_in_k``.  One call peaks at 55 MB RSS
    at 2 * 10^5 bins and 113 MB at 10^6.  Against 30-digit bin integrals the
    masses are within 1e-15 (20, 40, 41 and 71 bins; the six reference cases
    and 14 other configurations, phi from 1e-8 to 1 - 1e-7).

    ``phi`` obeys the rule of ``WalkParams.phi``, and an ``init`` that
    carries a ``phi`` must carry the same one.  ``n_k`` and ``bins`` are
    integers, read as ``evolve`` reads t, and ``bins`` is at least 1.
    ``n_k`` is only checked to be an integer: the grid is fixed, so the
    masses are the same bits for every ``n_k``.
    """
    _check_phi(phi)
    if getattr(init, "phi", phi) != phi:
        raise ValueError(f"phi={phi!r} disagrees with init.phi={init.phi!r}")
    _integer(n_k, "n_k")
    bins = _integer(bins, "bins")

    def norms(c: np.ndarray) -> np.ndarray:
        u, f = _ballistic_pole(c)
        return np.add(_residue_norms(u, f, phi, init), _residue_norms(u, f.conj(), phi, init))

    return BinnedDensity(*bin_masses_in_k(norms, bins))
