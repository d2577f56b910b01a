"""The package namespace and the README's library example."""

from __future__ import annotations

import re
from pathlib import Path

import wojcikwalk
from wojcikwalk import limit, quadrature, spectral, walk

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "AmplitudeField",
    "BinnedDensity",
    "Distribution",
    "EXAMPLE_CASE_IDS",
    "ExampleFixture",
    "InitialStateAngles",
    "MAX_STEPS",
    "NORM_TOL",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "SUPPORT_RADIUS",
    "StepLimitError",
    "WalkParams",
    "WeightCoefficients",
    "__version__",
    "ac_density",
    "atom_from_integral",
    "atom_mass",
    "bin_masses_in_k",
    "cesaro_average",
    "density_via_k_integration",
    "distribution",
    "evolve",
    "fixture",
    "integrate_ac",
    "konno_density",
    "match_fixture",
    "path_sum_field",
    "rescaled_distribution",
    "weight",
    "weight_coefficients",
    "weight_from_residues",
]


def test_package_exports_each_layer_name_once():
    names = wojcikwalk.__all__
    assert sorted(names) == PUBLIC_NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(wojcikwalk, name), name
    layers = (walk, limit, spectral, quadrature)
    for name in names:
        if name == "__version__":
            continue
        owners = [m for m in layers if name in m.__all__]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(wojcikwalk, name) is getattr(owners[0], name)


def test_readme_library_surface_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library surface'"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_example"})
