"""The benchmark's workloads: generated inputs, timed operations, output checks.

Every pass draws fresh random configurations (defect phase uniform in
[0, 1), random normalised spinor) from (seed, pass index), so no walk
(phi, init, t) and no density table repeats within a run and memoisation
cannot pass for a kernel gain.  Reference configurations are added where a
value is known independently; they get a fresh global phase (or k-grid size)
every pass for the same reason.

Each operation returns its output and is checked only after the pass, so
checking never enters a timing.  A check returns None when the output is
within tolerance and a message otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wojcikwalk import cli, limit, quadrature, spectral, walk

S = 1.0 / math.sqrt(2.0)

# Tolerances of the acceptance suite.
UNITARITY_TOL = 1e-11
MASS_TOL = 1e-8
CESARO_TOL = 0.02
K_BIN_TOL = 1e-4


@dataclass(frozen=True)
class Config:
    """Defect phase plus initial spinor [a e^(i phi1), b e^(i phi2)]."""

    phi: float
    a: float
    phi1: float
    b: float
    phi2: float

    def argv(self) -> list[str]:
        # repr() round-trips exactly, so the CLI sees the same floats.
        return ["--phi", repr(self.phi), "--init", f"{self.a!r},{self.phi1!r},{self.b!r},{self.phi2!r}"]

    def params(self) -> walk.WalkParams:
        return walk.WalkParams(phi=self.phi, a=self.a, b=self.b, phi1=self.phi1, phi2=self.phi2)

    def with_global_phase(self, theta: float) -> "Config":
        """Same physical state; a different (phi, init) to any cache."""
        return Config(self.phi, self.a, self.phi1 + theta, self.b, self.phi2 + theta)


@dataclass(frozen=True)
class Fixture:
    config: Config
    integral: float  # mass of the continuous part
    atom: float  # C


_RIGHT = (1.0, 0.0, 0.0, 0.0)
_SYM = (S, math.pi / 2.0, S, 0.0)

# The paper's reference configurations and their masses.
FIXTURES = {
    "hadamard_10": Fixture(Config(0.0, *_RIGHT), 1.0, 0.0),
    "hadamard_sym": Fixture(Config(0.0, *_SYM), 1.0, 0.0),
    "halfphase_10": Fixture(Config(0.5, *_RIGHT), 0.2, 0.8),
    "halfphase_sym": Fixture(Config(0.5, *_SYM), 0.2, 0.8),
    "quarterphase_10": Fixture(Config(0.25, *_RIGHT), 0.6, 0.4),
    "quarterphase_sym": Fixture(Config(0.25, *_SYM), 0.2, 0.8),
}

# Time-averaged origin mass from [1, 0]: phase -> limit value.
CESARO_REFERENCE = {0.5: 8.0 / 25.0, 0.25: 4.0 / 25.0}

K_FIXTURES = ("halfphase_10", "quarterphase_10")


def random_config(rng: np.random.Generator, phi: float | None = None) -> Config:
    theta = float(rng.uniform(0.0, math.pi / 2.0))
    phi1, phi2 = (float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 2))
    if phi is None:
        phi = float(rng.uniform(0.0, 1.0))
    return Config(phi, math.cos(theta), phi1, math.sin(theta), phi2)


def pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, warm-up pass included, ``TINY`` the smoke test."""

    long_steps: int
    converge_bins: int
    sweep_steps: int
    sweep_phis: int
    sweep_inits: int
    cesaro_steps: int
    density_bins: int
    k_samples: int
    k_bins: int


FULL = Sizes(
    long_steps=10_000,
    converge_bins=71,
    sweep_steps=2000,
    sweep_phis=4,
    sweep_inits=8,
    cesaro_steps=5000,
    density_bins=100_000,
    k_samples=10**6,
    k_bins=40,
)
TINY = Sizes(
    long_steps=60,
    converge_bins=71,
    sweep_steps=40,
    sweep_phis=2,
    sweep_inits=2,
    cesaro_steps=300,
    density_bins=500,
    k_samples=10**4,
    k_bins=20,
)


@dataclass
class Op:
    """One timed operation; ``metric`` is the end-to-end time it adds to."""

    metric: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# CLI invocation and output checks
# ---------------------------------------------------------------------------


@dataclass
class CliOutput:
    command: str
    code: int | str | None
    text: str

    def rows(self) -> int:
        """Data rows: CSV lines after the header, or verify's check lines."""
        lines = self.text.splitlines()
        if self.command == "verify":
            return len(lines) - 1
        return sum(1 for line in lines if not line.startswith("# ")) - 1


def run_cli(argv: list[str]) -> CliOutput:
    """In-process ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliOutput(argv[0], code, out.getvalue())


def _csv_parts(text: str) -> tuple[dict[str, str], str]:
    """Metadata lines as a dict, and the data rows exactly as checksummed."""
    meta = {}
    lines = text.split("\n")
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    return meta, "\n".join(lines[i + 1 :]).rstrip("\n")


def cli_op(metric: str, argv: list[str], check: Callable[[CliOutput], str | None]) -> Op:
    return Op(metric, " ".join(argv), lambda: run_cli(argv), check)


def check_simulate(out: CliOutput, t: int) -> str | None:
    if out.code != 0:
        return f"exit code {out.code}"
    _, body = _csv_parts(out.text)
    total = math.fsum(float(line.split(",")[1]) for line in body.split("\n"))
    drift = abs(total / t - 1.0)
    if drift > UNITARITY_TOL:
        return f"sum(scaled_prob)/t - 1 = {drift:.3e} (tol {UNITARITY_TOL:g})"
    return None


def check_table(out: CliOutput, rows: int | None = None) -> str | None:
    """density/converge: C + integral = 1, checksum matches the rows."""
    if out.code != 0:
        return f"exit code {out.code}"
    meta, body = _csv_parts(out.text)
    total = float(meta["C"]) + float(meta["integral"])
    if abs(total - 1.0) > MASS_TOL:
        return f"C + integral = {total!r} (tol {MASS_TOL:g})"
    if hashlib.sha256(body.encode("ascii")).hexdigest() != meta["checksum"]:
        return "checksum does not match the rows"
    found = body.count("\n") + 1
    if rows is not None and found != rows:
        return f"{found} rows, expected {rows}"
    return None


_MASSES = re.compile(r"C = ([^,]+), integral = ([^,]+),")


def check_verify(out: CliOutput, fixture: Fixture | None = None) -> str | None:
    if out.code != 0:
        return f"exit code {out.code}"
    lines = out.text.splitlines()
    if lines[-1] != "OK":
        return f"verdict {lines[-1]!r}"
    for line in lines[:-1]:
        if line.split()[0] not in ("PASS", "SKIPPED"):
            return f"check line {line!r}"
    if fixture is None:
        return None
    if not any(line.startswith("PASS    fixture_reduction") for line in lines):
        return "fixture configuration not recognised"
    found = [_MASSES.search(line) for line in lines if "mass_decomposition" in line]
    if not found or found[0] is None:
        return "no mass decomposition reported"
    atom, integral = (float(v) for v in found[0].groups())
    if abs(atom - fixture.atom) > MASS_TOL or abs(integral - fixture.integral) > MASS_TOL:
        return f"C = {atom!r}, integral = {integral!r}; want {fixture.atom}, {fixture.integral}"
    return None


def check_unitarity(total: float) -> str | None:
    drift = abs(total - 1.0)
    return None if drift <= UNITARITY_TOL else f"|sum P - 1| = {drift:.3e} (tol {UNITARITY_TOL:g})"


def check_close(value: float, want: float, tol: float) -> str | None:
    return None if abs(value - want) <= tol else f"{value!r} differs from {want!r} by more than {tol:g}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class WalkLong:
    """t = 10^4: the walk kernel past its cache cliff takes almost all the time."""

    name = "walk_long"
    metrics = ("simulate_s", "converge_s")

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = pass_rng(seed, pass_index)
        t = self.sizes.long_steps
        sim, conv = random_config(rng), random_config(rng)
        bins = str(self.sizes.converge_bins)
        return [
            cli_op("simulate_s", ["simulate", "--steps", str(t), *sim.argv()], lambda out: check_simulate(out, t)),
            cli_op("converge_s", ["converge", "--steps", str(t), "--bins", bins, *conv.argv()], check_table),
        ]


def _sweep_walk(params: walk.WalkParams, t: int) -> float:
    state = walk.evolve(params, t)
    return float(walk.distribution(state).prob.sum())


class WalkSweep:
    """Many short walks sharing phases, and two Cesaro averages."""

    name = "walk_sweep"
    metrics = ("sweep_s", "cesaro_s")

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = pass_rng(seed, pass_index)
        sz = self.sizes
        ops = []
        # Phase-major order: every walk after the first of its phase reuses it.
        for phi in rng.uniform(0.0, 1.0, sz.sweep_phis):
            for _ in range(sz.sweep_inits):
                params = random_config(rng, float(phi)).params()
                ops.append(
                    Op(
                        "sweep_s",
                        f"evolve+distribution t={sz.sweep_steps} {params}",
                        lambda p=params: _sweep_walk(p, sz.sweep_steps),
                        check_unitarity,
                    )
                )
        for phi, want in CESARO_REFERENCE.items():
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            params = Config(phi, *_RIGHT).with_global_phase(theta).params()
            ops.append(
                Op(
                    "cesaro_s",
                    f"cesaro_average T={sz.cesaro_steps} x=0 {params}",
                    lambda p=params: walk.cesaro_average(p, sz.cesaro_steps, 0),
                    lambda value, want=want: check_close(value, want, CESARO_TOL),
                )
            )
        return ops


class Analytic:
    """The closed-form and residue routes, and CSV formatting; almost no walking."""

    name = "analytic"
    metrics = ("density_s", "verify_s", "k_integration_s")

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        self.k_reference = {case: self._bin_reference(case) for case in K_FIXTURES}

    def _bin_reference(self, case: str) -> np.ndarray:
        """Per-bin integrals of the fixture's closed-form density."""
        weight_fn = limit.fixture(case).weight_fn
        edges = np.linspace(-S, S, self.sizes.k_bins + 1)
        return np.array(
            [
                quadrature.integrate_ac(
                    lambda x: weight_fn(x) * limit.konno_density(x, S), 1e-9, lo=float(lo), hi=float(hi)
                ).value
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        rng = pass_rng(seed, pass_index)
        sz = self.sizes
        ops = [
            cli_op(
                "density_s",
                ["density", "--bins", str(sz.density_bins), *random_config(rng).argv()],
                lambda out: check_table(out, sz.density_bins),
            )
            for _ in range(2)
        ]
        verify_cases = [
            (fixture.config.with_global_phase(float(rng.uniform(0.0, 2.0 * math.pi))), fixture)
            for fixture in FIXTURES.values()
        ]
        verify_cases += [(random_config(rng), None) for _ in range(2)]
        for config, fixture in verify_cases:
            ops.append(
                cli_op("verify_s", ["verify", *config.argv()], lambda out, f=fixture: check_verify(out, f))
            )
        # A k grid of its own per pass, so no density table repeats.
        n_k = sz.k_samples + 4 * pass_index
        for case in K_FIXTURES:
            c = FIXTURES[case].config
            init = limit.InitialStateAngles.from_phases(c.a, c.phi1, c.b, c.phi2)
            ops.append(
                Op(
                    "k_integration_s",
                    f"density_via_k_integration {case} n_k={n_k} bins={sz.k_bins}",
                    lambda phi=c.phi, init=init: spectral.density_via_k_integration(phi, init, n_k, sz.k_bins).masses,
                    lambda masses, ref=self.k_reference[case]: check_close(
                        float(np.max(np.abs(masses - ref))), 0.0, K_BIN_TOL
                    ),
                )
            )
        return ops


WORKLOADS = {w.name: w for w in (WalkLong, WalkSweep, Analytic)}


# ---------------------------------------------------------------------------
# Output digests of the fixture configurations
# ---------------------------------------------------------------------------


def digest_commands() -> list[tuple[str, list[str]]]:
    """Every CLI subcommand on every fixture, at sizes that run in milliseconds."""
    commands = []
    for case, fixture in FIXTURES.items():
        args = fixture.config.argv()
        commands += [
            (f"simulate/{case}", ["simulate", "--steps", "200", *args]),
            (f"converge/{case}", ["converge", "--steps", "400", *args]),
            (f"density/{case}", ["density", "--bins", "2000", *args]),
            (f"verify/{case}", ["verify", *args]),
        ]
    return commands


def digest(out: CliOutput) -> str:
    return hashlib.sha256(out.text.encode("utf-8")).hexdigest()
