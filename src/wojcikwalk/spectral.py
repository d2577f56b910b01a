"""Residue-based reconstruction of the walk's continuous limit density.

This is an independent route to the same density that limit.py evaluates in
closed form.  The generating function of the walk's amplitudes, Fourier
transformed in space, has simple poles on the unit circle; for each spatial
frequency k the two poles sit at

    z_plus(k),  z_minus(k)        (one per propagation direction),

and the residues there, assembled from four nonnegative factors (items 1-4),
give the density of the rescaled position at x_plus(k) = |cos k| /
sqrt(1 + cos^2 k) and x_minus(k) = -x_plus(k).  Accumulating the residue
norms over a uniform k grid therefore rebuilds the density without ever
using the closed-form weight, which makes it a genuine cross-check: the
change of variables from k to x emerges numerically from the deposition.
The deposition evaluates only the first quadrant of its k grid and folds
the other three onto it, which changes the bin masses in their last bits
against a loop over all four quadrants; the pointwise weight keeps its bits.

All evaluations work on the ballistic region |sin theta| < 1/sqrt(2) of the
circle, z = exp(i*theta).  Reconstructing the localized point mass from the
complementary region is out of scope here.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .limit import _like
from .quadrature import SUPPORT_RADIUS
from .walk import WalkParams

__all__ = [
    "CoarseKGridWarning",
    "BinnedDensity",
    "weight_from_residues",
    "density_via_k_integration",
]

_SQRT2 = math.sqrt(2.0)
_AXIS_TOL = 1e-12

MIN_K_SAMPLES = 10**4
MIN_BINS = 20

# Bins receiving fewer samples than this produce noise-dominated
# adjacent-bin variation (a sawtooth on top of the smooth mass profile).
_MIN_SAMPLES_PER_BIN = 32


class CoarseKGridWarning(UserWarning):
    """The k grid is too coarse for the requested bin resolution."""


@dataclass
class BinnedDensity:
    """Histogram approximation of the continuous limit density."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def total(self) -> float:
        return float(self.masses.sum())


def _require_interior(k: np.ndarray) -> None:
    on_axis = (np.abs(np.cos(k)) < _AXIS_TOL) | (np.abs(np.sin(k)) < _AXIS_TOL)
    if on_axis.any():
        raise ValueError(
            f"k={float(k[on_axis][0])!r} is on a coordinate axis; sign factors are undefined there"
        )


def _ballistic_pole(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Abscissa u = x_plus and pole factor f_plus at frequencies with cos k = c.

    Both depend on k only through |cos k|.  The pole factor of a residue is
    f_plus where branch * cos k * sin k < 0 and conj(f_plus) elsewhere.
    """
    u = np.abs(c) / np.sqrt(1.0 + c * c)
    one_minus = 1.0 - u * u
    cos_t = 1.0 / np.sqrt(2.0 * one_minus)  # |cos theta| at the pole
    sin_t = np.sqrt((1.0 - 2.0 * u * u) / (2.0 * one_minus))
    root = u / np.sqrt(one_minus)  # sqrt(2 cos_t^2 - 1), exact at the pole
    m = _SQRT2 * cos_t - root
    return u, cos_t * m + 1j * (sin_t * m)


def _residue_norm(
    u: np.ndarray, f: np.ndarray, branch: int, phi: float, init: WalkParams
) -> np.ndarray:
    """Product of items 1-4 for the residue depositing at x = branch * u."""
    omega = cmath.exp(2j * math.pi * phi)
    alpha = init.a * cmath.exp(1j * init.phi12)
    beta = init.b

    denom = 1.0 - _SQRT2 * omega * f + (omega * omega) * f * f
    item1 = u * u
    item2 = 1.0 / np.abs(denom) ** 2
    if branch == 1:
        item3 = 0.5 * np.abs(alpha - beta - _SQRT2 * omega * alpha * f) ** 2
    else:
        item3 = 0.5 * np.abs(alpha + beta - _SQRT2 * omega * beta * f) ** 2
    item4 = 2.0 / (1.0 + u)
    return item1 * item2 * item3 * item4


def weight_from_residues(x, phi: float, init: WalkParams):
    """Pointwise weight at x rebuilt from residues, bypassing the closed form.

    The two frequencies in (0, pi) that feed |x| (one per sign of
    sin(k)cos(k)) contribute one residue norm each; their sum is w(x).
    Defined for 0 < |x| < 1/sqrt(2); x is a float (float out) or an array
    (array of the same shape out).  Of ``init`` only ``a``, ``b`` and
    ``phi12`` are read, as in ``limit.weight_coefficients``.
    """
    xs = np.asarray(x, dtype=float)
    u = np.abs(xs)
    outside = ~((0.0 < u) & (u < SUPPORT_RADIUS))
    if outside.any():
        raise ValueError(f"need 0 < |x| < 1/sqrt(2), got x={float(xs[outside][0])!r}")
    cos_mag = (u / np.sqrt(1.0 - u * u)).ravel()
    # math.acos, not np.arccos: they differ in the last bit for ~9 % of arguments
    k_first = np.array([math.acos(c) for c in cos_mag.tolist()])  # quadrant I
    k_second = math.pi - k_first  # quadrant II
    _require_interior(np.concatenate((k_first, k_second)))
    u_first, f_first = _ballistic_pole(np.cos(k_first))
    u_second, f_second = _ballistic_pole(np.cos(k_second))
    total = np.empty_like(cos_mag)
    positive = xs.ravel() > 0.0
    for branch, sel, f1, f2 in (
        (1, positive, f_first.conj(), f_second),
        (-1, ~positive, f_first, f_second.conj()),
    ):
        total[sel] = _residue_norm(u_first[sel], f1[sel], branch, phi, init) + _residue_norm(
            u_second[sel], f2[sel], branch, phi, init
        )
    return _like(x, total.reshape(xs.shape))


def density_via_k_integration(
    phi: float,
    init: WalkParams,
    n_k: int,
    bins: int,
) -> BinnedDensity:
    """Accumulate residue norms over a uniform k grid into x bins.

    Each grid frequency deposits its plus-branch and minus-branch residue
    norms, weighted by dk/(2*pi), into the bin containing the matching x.
    On a periodic uniform grid this is the trapezoidal rule; the grid is
    offset by half a cell (and n_k rounded up to a multiple of 4) so no
    sample ever hits a coordinate axis where the sign factors degenerate.
    The bin masses approximate the integral of the continuous limit
    density over each bin.

    That grid maps onto itself under k -> pi - k and k -> -k, which keep
    |cos k| and so u, and the residue in quadrants II and IV has pole factor
    f_plus where quadrants I and III have conj(f_plus) (or the other way
    round, by branch).  So only the n_k/4 quadrant-I frequencies are
    evaluated, each depositing 2 * [N(f_plus) + N(conj(f_plus))].  Against
    a loop over all four quadrants the bin masses change in their last bits
    only: the mirrored frequencies' cosines differ in the last bit, and the
    deposits are summed in another order (at most 1.1e-14 at n_k = 10^5 and
    6.4e-14 at n_k = 10^6, over the six reference configurations).
    """
    if n_k < MIN_K_SAMPLES:
        raise ValueError(f"n_k must be at least {MIN_K_SAMPLES}, got {n_k!r}")
    if bins < MIN_BINS:
        raise ValueError(f"bins must be at least {MIN_BINS}, got {bins!r}")
    quarter = math.ceil(n_k / 4)
    dk = 2.0 * math.pi / (4 * quarter)
    edges = np.linspace(-SUPPORT_RADIUS, SUPPORT_RADIUS, bins + 1)
    bin_width = 2.0 * SUPPORT_RADIUS / bins
    masses = np.zeros(bins)
    counts = np.zeros(bins)
    chunk = 250_000
    for start in range(0, quarter, chunk):
        k = (np.arange(start, min(start + chunk, quarter)) + 0.5) * dk
        u, f = _ballistic_pole(np.cos(k))
        f_conj = f.conj()
        for branch in (1, -1):
            norms = _residue_norm(u, f, branch, phi, init) + _residue_norm(u, f_conj, branch, phi, init)
            where = np.clip(((branch * u + SUPPORT_RADIUS) / bin_width).astype(int), 0, bins - 1)
            masses += np.bincount(where, weights=norms * (dk / math.pi), minlength=bins)
            counts += np.bincount(where, minlength=bins)
    _warn_if_undersampled(4 * counts)
    return BinnedDensity(bin_edges=edges, masses=masses)


def _warn_if_undersampled(counts: np.ndarray) -> None:
    # Under ~32 samples the per-bin quantization noise rivals the smooth
    # bin-to-bin mass variation and the histogram turns jagged.
    low = float(counts.min())
    if low < _MIN_SAMPLES_PER_BIN:
        warnings.warn(
            f"k grid too coarse for this bin count (a bin received only "
            f"{int(low)} samples): adjacent-bin variation is noise dominated",
            CoarseKGridWarning,
            stacklevel=3,
        )
