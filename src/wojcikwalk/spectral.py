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

Both routes evaluate one residue formula, ``_residue_norms``, which forms
each pole factor's denominator once for the two residues it feeds.  The k
integration runs in blocks of 16 384 frequencies, whose temporaries stay
near the 2 MB L2 cache, and keeps the masses' bits (see
``density_via_k_integration``): at n_k = 10^6 and 40 bins it takes about
22 ms and 8 MB of temporaries (2-CPU x86-64, numpy 2.4).

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
from .walk import WalkParams, _check_phi

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

# The chunk length fixes the masses' last bits: each branch's deposits are
# summed per chunk, and the chunk sums added into the masses.  The block
# length only bounds the temporaries.
_CHUNK = 250_000
_BLOCK = 16_384


class CoarseKGridWarning(UserWarning):
    """The k grid is too coarse for the requested bin resolution."""


@dataclass
class BinnedDensity:
    """Histogram approximation of the continuous limit density."""

    bin_edges: np.ndarray
    masses: np.ndarray


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
    Defined for 0 < |x| < 1/sqrt(2); x is a float (float out) or an array
    (array of the same shape out).  Of the spinor only ``a``, ``b`` and
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
    positive = xs.ravel() > 0.0
    plus = (
        _residue_norms(u_first, f_first.conj(), params.phi, params)[0]
        + _residue_norms(u_second, f_second, params.phi, params)[0]
    )
    minus = (
        _residue_norms(u_first, f_first, params.phi, params)[1]
        + _residue_norms(u_second, f_second.conj(), params.phi, params)[1]
    )
    total = np.where(positive, plus, minus)
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

    The frequencies are evaluated in blocks of 16 384, and both branches
    share each pole factor's denominator.  Each branch's deposits are still
    summed per chunk of 250 000 frequencies in grid order, and the chunk
    sums added to the masses branch +1 first, so the masses are bit-equal
    to evaluating each chunk whole, four residue norms at a time.  The
    chunk's bin indices and weights (8 MB at n_k >= 10^6) are the largest
    temporaries.  ``phi`` obeys the rule of ``WalkParams.phi``.
    """
    _check_phi(phi)
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
    for start in range(0, quarter, _CHUNK):
        n = min(_CHUNK, quarter - start)
        # row 1 (branch -1) is binned past row 0, so one bincount sums each
        # branch's deposits in grid order, as a bincount per branch would;
        # its x = -u bins from SUPPORT_RADIUS - u, which is -u + SUPPORT_RADIUS exactly
        where = np.empty((2, n), dtype=np.intp)
        weights = np.empty((2, n))
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            k = (np.arange(start + lo, start + hi) + 0.5) * dk
            u, f = _ballistic_pole(np.cos(k))
            plus, minus = _residue_norms(u, f, phi, init)
            plus_conj, minus_conj = _residue_norms(u, f.conj(), phi, init)
            where[0, lo:hi] = np.clip(((u + SUPPORT_RADIUS) / bin_width).astype(int), 0, bins - 1)
            where[1, lo:hi] = np.clip(((SUPPORT_RADIUS - u) / bin_width).astype(int), 0, bins - 1) + bins
            np.multiply(plus + plus_conj, dk / math.pi, out=weights[0, lo:hi])
            np.multiply(minus + minus_conj, dk / math.pi, out=weights[1, lo:hi])
        chunk_masses = np.bincount(where.ravel(), weights=weights.ravel(), minlength=2 * bins)
        masses += chunk_masses[:bins]
        masses += chunk_masses[bins:]
        counts += np.bincount(where.ravel(), minlength=2 * bins).reshape(2, bins).sum(axis=0)
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
