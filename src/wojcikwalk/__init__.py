"""Defect-coin quantum walk on the integer line and its limit law.

The package has four layers:

* ``walk``: exact unitary simulation (complex amplitudes on the sites the
  walker can reach), brute-force path-sum cross-check, distributions and
  time averages.
* ``limit``: the analytic limit of the rescaled position, an atom at the
  origin plus a weighted arcsine-type density, in closed form.
* ``spectral``: an independent reconstruction of the same density from
  unit-circle pole residues, used as an oracle against ``limit``.
* ``quadrature``: the two rules that integrate the continuous part,
  adaptive in x and fixed in k.

The ``wojcikwalk`` console script exposes all of it.
"""

from . import limit, quadrature, spectral, walk
from .limit import *
from .quadrature import *
from .spectral import *
from .walk import *

__version__ = "0.1.0"

__all__ = ["__version__", *walk.__all__, *limit.__all__, *spectral.__all__, *quadrature.__all__]
