"""Defect-coin quantum walk on the integer line and its limit law.

The package has four layers:

* ``walk``: exact unitary simulation (dense complex amplitudes), brute-force
  path-sum cross-check, distributions and time averages.
* ``limit``: the analytic limit of the rescaled position, an atom at the
  origin plus a weighted arcsine-type density, in closed form.
* ``spectral``: an independent reconstruction of the same density from
  unit-circle pole residues, used as an oracle against ``limit``.
* ``quadrature``: endpoint-absorbing integration used to normalize the
  continuous part.

The ``wojcikwalk`` console script exposes all of it.
"""

from .limit import (
    DegenerateDenominatorError,
    ExampleFixture,
    InitialStateAngles,
    WeightCoefficients,
    ac_density,
    atom_from_integral,
    atom_mass,
    example_fixture,
    fixture,
    konno_density,
    match_fixture,
    weight,
    weight_coefficients,
    EXAMPLE_CASE_IDS,
)
from .quadrature import (
    SUPPORT_RADIUS,
    QuadratureConvergenceError,
    QuadratureResult,
    integrate_ac,
)
from .spectral import (
    BinnedDensity,
    CoarseKGridWarning,
    ResidueFactors,
    density_via_k_integration,
    residue_factors,
    weight_from_residues,
    x_of_k,
)
from .walk import (
    DEFAULT_MAX_STEPS,
    AmplitudeField,
    Distribution,
    StepLimitError,
    WalkParams,
    cesaro_average,
    distribution,
    evolve,
    path_sum_field,
    rescaled_distribution,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # walk
    "DEFAULT_MAX_STEPS",
    "AmplitudeField",
    "Distribution",
    "StepLimitError",
    "WalkParams",
    "cesaro_average",
    "distribution",
    "evolve",
    "path_sum_field",
    "rescaled_distribution",
    "step",
    # limit
    "DegenerateDenominatorError",
    "ExampleFixture",
    "InitialStateAngles",
    "WeightCoefficients",
    "ac_density",
    "atom_from_integral",
    "atom_mass",
    "example_fixture",
    "fixture",
    "konno_density",
    "match_fixture",
    "weight",
    "weight_coefficients",
    "EXAMPLE_CASE_IDS",
    # spectral
    "BinnedDensity",
    "CoarseKGridWarning",
    "ResidueFactors",
    "density_via_k_integration",
    "residue_factors",
    "weight_from_residues",
    "x_of_k",
    # quadrature
    "SUPPORT_RADIUS",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "integrate_ac",
]
