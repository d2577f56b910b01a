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

from .limit import InitialStateAngles
from .quadrature import SUPPORT_RADIUS

__all__ = [
    "CoarseKGridWarning",
    "ResidueFactors",
    "BinnedDensity",
    "x_of_k",
    "residue_factors",
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


@dataclass(frozen=True)
class ResidueFactors:
    """The four factors of one squared residue norm, and the x it feeds."""

    item1: float
    item2: float
    item3: float
    item4: float
    x: float

    def product(self) -> float:
        return self.item1 * self.item2 * self.item3 * self.item4


@dataclass
class BinnedDensity:
    """Histogram approximation of the continuous limit density."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def total(self) -> float:
        return float(self.masses.sum())


def x_of_k(k: float) -> tuple[float, float]:
    """Rescaled velocities fed by frequency k: x_plus in [0, 1/sqrt(2)], x_minus = -x_plus."""
    c = math.cos(k)
    x_plus = abs(c) / math.sqrt(1.0 + c * c)
    return x_plus, -x_plus


def _require_interior(k: float) -> None:
    if abs(math.cos(k)) < _AXIS_TOL or abs(math.sin(k)) < _AXIS_TOL:
        raise ValueError(
            f"k={k!r} is on a coordinate axis; sign factors are undefined there"
        )


def _item_arrays(
    k: np.ndarray, branch: int, phi: float, init: InitialStateAngles
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized items 1-4 and deposition abscissa x for one branch.

    Shared by the scalar accessor and the k-grid accumulation so both
    routes evaluate identical expressions.
    """
    c = np.cos(k)
    s = np.sin(k)
    u = np.abs(c) / np.sqrt(1.0 + c * c)  # x_plus
    x = u if branch == 1 else -u
    one_minus = 1.0 - x * x

    cos_t = (-branch) * np.sign(c) / np.sqrt(2.0 * one_minus)
    sin_t = np.sign(s) * np.sqrt((1.0 - 2.0 * x * x) / (2.0 * one_minus))
    z = cos_t + 1j * sin_t
    root = u / np.sqrt(one_minus)  # sqrt(2 cos_t^2 - 1), exact at the pole
    f = np.sign(cos_t) * z * (_SQRT2 * np.abs(cos_t) - root)

    omega = cmath.exp(2j * math.pi * phi)
    alpha = init.a * cmath.exp(1j * init.phi12)
    beta = init.b

    denom = 1.0 - _SQRT2 * omega * f + (omega * omega) * f * f
    item1 = u * u
    item2 = 1.0 / np.abs(denom) ** 2
    if branch == 1:
        item3 = 0.5 * np.abs(alpha - beta - _SQRT2 * omega * alpha * f) ** 2
        item4 = 2.0 / (1.0 + x)
    else:
        item3 = 0.5 * np.abs(alpha + beta - _SQRT2 * omega * beta * f) ** 2
        item4 = 2.0 / (1.0 - x)
    return item1, item2, item3, item4, x


def residue_factors(
    k: float, branch: int, phi: float, init: InitialStateAngles
) -> ResidueFactors:
    """Items 1-4 of the squared residue norm at the branch's pole for k."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    _require_interior(k)
    arr = np.array([k], dtype=float)
    item1, item2, item3, item4, x = _item_arrays(arr, branch, phi, init)
    return ResidueFactors(
        item1=float(item1[0]),
        item2=float(item2[0]),
        item3=float(item3[0]),
        item4=float(item4[0]),
        x=float(x[0]),
    )


def weight_from_residues(x: float, phi: float, init: InitialStateAngles) -> float:
    """Pointwise weight at x rebuilt from residues, bypassing the closed form.

    The two frequencies in (0, pi) that feed |x| (one per sign of
    sin(k)cos(k)) contribute one residue norm each; their sum is w(x).
    Defined for 0 < |x| < 1/sqrt(2).
    """
    if not (0.0 < abs(x) < SUPPORT_RADIUS):
        raise ValueError(f"need 0 < |x| < 1/sqrt(2), got x={x!r}")
    u = abs(x)
    branch = 1 if x > 0.0 else -1
    cos_mag = u / math.sqrt(1.0 - u * u)
    k_first = math.acos(cos_mag)  # quadrant I
    k_second = math.pi - k_first  # quadrant II
    total = 0.0
    for k in (k_first, k_second):
        factors = residue_factors(k, branch, phi, init)
        total += factors.product()
    return total


def density_via_k_integration(
    phi: float,
    init: InitialStateAngles,
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
    """
    if n_k < MIN_K_SAMPLES:
        raise ValueError(f"n_k must be at least {MIN_K_SAMPLES}, got {n_k!r}")
    if bins < MIN_BINS:
        raise ValueError(f"bins must be at least {MIN_BINS}, got {bins!r}")
    n_k = 4 * math.ceil(n_k / 4)
    dk = 2.0 * math.pi / n_k
    edges = np.linspace(-SUPPORT_RADIUS, SUPPORT_RADIUS, bins + 1)
    bin_width = 2.0 * SUPPORT_RADIUS / bins
    masses = np.zeros(bins)
    counts = np.zeros(bins)
    chunk = 250_000
    for start in range(0, n_k, chunk):
        idx = np.arange(start, min(start + chunk, n_k))
        k = (idx + 0.5) * dk
        for branch in (1, -1):
            item1, item2, item3, item4, x = _item_arrays(k, branch, phi, init)
            deposit = item1 * item2 * item3 * item4 * (dk / (2.0 * math.pi))
            where = np.clip(((x + SUPPORT_RADIUS) / bin_width).astype(int), 0, bins - 1)
            masses += np.bincount(where, weights=deposit, minlength=bins)
            counts += np.bincount(where, minlength=bins)
    _warn_if_undersampled(counts)
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
