"""Command-line front end: simulate, density, verify, converge.

Every subcommand shares one flag set (defect phase, initial spinor, steps,
bins, tolerance, output format and path) and emits either CSV (UTF-8, LF,
17-significant-digit floats, bit-stable across runs) or a JSON object with
``config``, ``metadata`` and ``rows`` keys.  Validation failures exit with
status 2; a failed verification exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import limit, spectral, walk
from .quadrature import SUPPORT_RADIUS, QuadratureConvergenceError, integrate_ac

__all__ = ["MAX_BINS", "RunConfig", "main", "entry", "cmd_simulate", "cmd_density", "cmd_verify", "cmd_converge"]

ATOM_WINDOW = 0.05
MAX_BINS = 10**6  # density holds about 0.4 KB per bin: 10^6 bins take ~0.4 GB

_NORMALIZE_WARN = 1e-9
_NORMALIZE_REJECT = 1e-6
_LONG_WALK = 10**5  # past this many steps, simulate and converge state the walk's cost first


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation.

    ``params`` (defect phase and initial spinor) is the one configuration
    every route reads: the walk, ``limit.weight_coefficients`` and
    ``spectral.weight_from_residues`` all take it as is.
    """

    command: str
    params: walk.WalkParams
    steps: int
    output_format: str
    output_path: str | None
    bins: int
    tolerance: float

    def echo(self) -> dict:
        p = self.params
        return {
            "command": self.command,
            "phi": p.phi,
            "init": {"a": p.a, "phi1": p.phi1, "b": p.b, "phi2": p.phi2},
            "steps": self.steps,
            "bins": self.bins,
            "tolerance": self.tolerance,
            "format": self.output_format,
            "out": self.output_path,
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wojcikwalk",
        description=(
            "Defect-coin quantum walk: exact simulation and analytic limit "
            "densities (atom + continuous part), with built-in cross checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, steps, bins) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--phi", type=float, default=0.5, help="defect phase in [0,1), units of full turns")
        p.add_argument(
            "--init",
            default="1,0,0,0",
            metavar="a,phi1,b,phi2",
            help="initial spinor [a*e^(i*phi1), b*e^(i*phi2)], default 1,0,0,0",
        )
        p.add_argument("--steps", type=int, default=steps, help="number of walk steps t")
        p.add_argument("--bins", type=int, default=bins, help="grid/bin count")
        p.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _build_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """The validated configuration; a broken rule exits 2 through ``parser.error``.

    The spinor and phase rules are ``WalkParams``'s own.  --init is
    renormalized when a^2 + b^2 is off by more than ``NORM_TOL``, with a
    warning past 1e-9, and refused past 1e-6.
    """
    parts = args.init.split(",")
    if len(parts) != 4:
        parser.error(f"--init needs four comma-separated numbers a,phi1,b,phi2, got {args.init!r}")
    try:
        a, phi1, b, phi2 = (float(p) for p in parts)
    except ValueError:
        parser.error(f"--init components must be numeric, got {args.init!r}")
    deviation = abs(a * a + b * b - 1.0)
    if deviation > _NORMALIZE_REJECT:
        parser.error(
            f"--init is not normalized: a^2 + b^2 deviates from 1 by {deviation:g} "
            f"(rejection threshold {_NORMALIZE_REJECT:g})"
        )
    if deviation > walk.NORM_TOL:
        norm = math.sqrt(a * a + b * b)
        a, b = a / norm, b / norm
    try:
        params = walk.WalkParams(phi=args.phi, a=a, b=b, phi1=phi1, phi2=phi2)
    except ValueError as exc:
        parser.error(f"--phi/--init: {exc}")
    if deviation > _NORMALIZE_WARN:
        warnings.warn(f"--init off normalization by {deviation:g}; renormalizing", stacklevel=2)
    if args.steps < 0:
        parser.error(f"--steps must be nonnegative, got {args.steps}")
    if args.command in ("simulate", "converge") and args.steps < 1:
        parser.error(f"{args.command} needs --steps >= 1 (rescaling by 1/t)")
    if args.steps > walk.MAX_STEPS:
        parser.error(f"--steps {args.steps} exceeds the step cap {walk.MAX_STEPS}")
    if args.bins < 2:
        parser.error(f"--bins must be at least 2, got {args.bins}")
    if args.bins > MAX_BINS:
        parser.error(f"--bins {args.bins} exceeds the bin cap {MAX_BINS}")
    if not (0.0 < args.tol <= 1e-2):
        parser.error(f"--tol must lie in (0, 1e-2], got {args.tol}")
    return RunConfig(
        command=args.command,
        params=params,
        steps=args.steps,
        output_format=args.output_format,
        output_path=args.out,
        bins=args.bins,
        tolerance=args.tol,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


_FLOAT = "%.17g"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _emit_json(config: RunConfig, metadata: dict, rows: list) -> None:
    payload = {"config": config.echo(), "metadata": metadata, "rows": rows}
    _emit(json.dumps(payload, indent=2) + "\n", config.output_path)


def _emit_table(
    config: RunConfig,
    header: str,
    table: np.ndarray,
    meta_pairs: list[tuple[str, float]],
    csv_meta: bool = True,
) -> None:
    """Rows with their metadata and checksum: '# key=value' lines in CSV, keys in JSON.

    ``table`` holds one row per line.  The CSV body is formatted by one
    ``%`` over the flat row values, and the checksum is the SHA-256 of that
    body.  ``csv_meta=False`` leaves the metadata and checksum out of the
    CSV output.
    """
    columns = header.split(",")
    row_format = ",".join([_FLOAT] * len(columns))
    body = "\n".join([row_format] * len(table)) % tuple(table.ravel().tolist())
    checksum = hashlib.sha256(body.encode("ascii")).hexdigest()
    if config.output_format == "csv":
        lines = []
        if csv_meta:
            lines = [f"# {k}={_FLOAT % v}" for k, v in meta_pairs] + [f"# checksum={checksum}"]
        lines += [header, body] if len(table) else [header]
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        metadata = {**dict(meta_pairs), "checksum": checksum, "rows": len(table), "columns": columns}
        _emit_json(config, metadata, table.tolist())


def _measure(params: walk.WalkParams, tol: float) -> tuple[limit.WeightCoefficients, float, float]:
    """Coefficients, continuous integral and atom at tolerance ``tol``, shared by commands."""
    coeffs = limit.weight_coefficients(params)
    result = integrate_ac(lambda x: limit.ac_density(x, coeffs), tol)
    return coeffs, result.value, limit.atom_from_integral(result, tol)


def _evolve(config: RunConfig) -> walk.AmplitudeField:
    """The configured walk; past ``_LONG_WALK`` steps one stderr line names its cost first.

    A walk of t steps updates at most (t + 1)(t + 2) / 2 populated columns,
    so a valid --steps near the cap runs for many minutes before any output.
    """
    t = config.steps
    if t > _LONG_WALK:
        print(
            f"{config.command}: --steps {t} runs a walk of up to "
            f"(t + 1)(t + 2)/2 = {(t + 1) * (t + 2) // 2} column-steps",
            file=sys.stderr,
        )
    return walk.evolve(config.params, t)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(config: RunConfig) -> int:
    """Rescaled empirical distribution next to the analytic density."""
    t = config.steps
    state = _evolve(config)
    dist = walk.distribution(state)
    coeffs, integral, atom = _measure(config.params, config.tolerance)
    pairs = walk.rescaled_distribution(dist)[::2]  # sites of the populated parity class
    table = np.column_stack((pairs, limit.ac_density(pairs[:, 0], coeffs)))
    meta_pairs = [("C", atom), ("integral", integral)]
    _emit_table(config, "x_over_t,scaled_prob,density", table, meta_pairs, csv_meta=False)
    return 0


def cmd_density(config: RunConfig) -> int:
    """Analytic weight, base density and their product on a uniform grid."""
    coeffs, integral, atom = _measure(config.params, config.tolerance)
    width = 2.0 * SUPPORT_RADIUS / config.bins
    x = -SUPPORT_RADIUS + (np.arange(config.bins) + 0.5) * width
    w, f_k = limit.weight(x, coeffs), limit.konno_density(x, SUPPORT_RADIUS)
    columns = (x, w, f_k, w * f_k)  # every midpoint is inside the support
    meta_pairs = [
        ("C", atom),
        ("integral", integral),
        ("total", atom + integral),
    ]
    _emit_table(config, "x,w,f_K,density", np.column_stack(columns), meta_pairs)
    return 0


def _verify_checks(config: RunConfig) -> list[dict]:
    params = config.params
    tol = max(config.tolerance, 1e-10)
    coeffs, integral, atom = _measure(params, tol)
    checks: list[dict] = []

    # (i) closed-form reduction, when this configuration is a reference case
    case_id = limit.match_fixture(params)
    if case_id is None:
        checks.append(
            {
                "name": "fixture_reduction",
                "status": "skipped",
                "detail": "configuration matches no reference case",
            }
        )
    else:
        closed = limit.fixture(case_id).weight_fn
        grid = np.linspace(-SUPPORT_RADIUS + 1e-3, SUPPORT_RADIUS - 1e-3, 1000)
        # closed() stays on Python floats: numpy's x**3 can differ in the last bit.
        w = limit.weight(grid, coeffs)
        worst = max(abs(wx - closed(x)) for wx, x in zip(w.tolist(), grid.tolist()))
        ok = worst <= 1e-12
        checks.append(
            {
                "name": "fixture_reduction",
                "status": "pass" if ok else "fail",
                "detail": f"case {case_id}: max |w - closed form| = {worst:.3e} (tol 1e-12)",
            }
        )

    # (ii) atom plus continuous integral is a probability decomposition
    atom_raw = 1.0 - integral
    budget = max(1e-8, config.tolerance)
    problems = []
    if abs(atom + integral - 1.0) > budget:
        problems.append(f"C + integral = {atom + integral!r}")
    if not (-budget <= atom_raw <= 1.0 + budget):
        problems.append(f"raw atom {atom_raw!r} outside [0, 1]")
    if case_id is not None:
        ref = limit.fixture(case_id)
        if abs(atom - ref.atom) > budget:
            problems.append(f"atom {atom!r} != reference {ref.atom!r}")
        if abs(integral - ref.ac_integral) > budget:
            problems.append(f"integral {integral!r} != reference {ref.ac_integral!r}")
    checks.append(
        {
            "name": "mass_decomposition",
            "status": "pass" if not problems else "fail",
            "detail": "; ".join(problems) if problems else (
                f"C = {atom:.12g}, integral = {integral:.12g}, sum = {atom + integral:.12g}"
            ),
        }
    )

    # (iii) residue route agrees with the closed-form weight pointwise
    grid = np.linspace(-SUPPORT_RADIUS + 1e-3, SUPPORT_RADIUS - 1e-3, 201)
    grid = grid[np.abs(grid) > 1e-3]
    residues = spectral.weight_from_residues(grid, params)
    worst = float(np.max(np.abs(residues - limit.weight(grid, coeffs))))
    ok = worst <= 1e-9
    checks.append(
        {
            "name": "spectral_oracle",
            "status": "pass" if ok else "fail",
            "detail": f"max |w_residues - w| = {worst:.3e} (tol 1e-9)",
        }
    )

    # (iv) fast evolution equals the exhaustive path sum at small t
    t_small = max(2, min(config.steps, 12))
    fast = walk.evolve(params, t_small)
    brute = walk.path_sum_field(params, t_small)
    diff = float(np.max(np.abs(fast.amplitudes - brute.amplitudes)))
    ok = diff <= 1e-12
    checks.append(
        {
            "name": "path_sum",
            "status": "pass" if ok else "fail",
            "detail": f"t = {t_small}: max amplitude difference = {diff:.3e} (tol 1e-12)",
        }
    )
    return checks


def cmd_verify(config: RunConfig) -> int:
    """Internal consistency checks; nonzero exit if any check fails."""
    checks = _verify_checks(config)
    failed = [c for c in checks if c["status"] == "fail"]
    if config.output_format == "json":
        metadata = {"passed": not failed, "checks": len(checks), "failed": len(failed)}
        _emit_json(config, metadata, checks)
    else:
        lines = [
            f"{check['status'].upper():7s} {check['name']}: {check['detail']}"
            for check in checks
        ]
        verdict = "OK" if not failed else f"{len(failed)} CHECK(S) FAILED"
        lines.append(verdict)
        _emit("\n".join(lines) + "\n", config.output_path)
    return 0 if not failed else 1


def cmd_converge(config: RunConfig) -> int:
    """Binned rescaled empirical mass against the analytic bin integrals.

    Bins intersecting the atom window |x/t| <= 0.05 are excluded from the
    deviation score, since the localized mass collapses toward 0 in the
    rescaled space and never matches the continuous density.
    """
    t = config.steps
    state = _evolve(config)
    dist = walk.distribution(state)
    coeffs, integral, atom = _measure(config.params, config.tolerance)

    bins = config.bins
    edges = np.linspace(-SUPPORT_RADIUS, SUPPORT_RADIUS, bins + 1)
    width = 2.0 * SUPPORT_RADIUS / bins

    ratios = dist.support / t
    inside = (ratios > -SUPPORT_RADIUS) & (ratios < SUPPORT_RADIUS)
    which = np.clip(((ratios[inside] + SUPPORT_RADIUS) / width).astype(int), 0, bins - 1)
    empirical = np.bincount(which, weights=dist.prob[inside], minlength=bins)

    kept = (edges[:-1] > ATOM_WINDOW) | (edges[1:] < -ATOM_WINDOW)  # clear of the atom window
    lo, hi, mass = edges[:-1][kept], edges[1:][kept], empirical[kept]
    expected = np.array(
        [
            integrate_ac(lambda x: limit.ac_density(x, coeffs), min(config.tolerance, 1e-9), lo=a, hi=b).value
            for a, b in zip(lo.tolist(), hi.tolist())
        ]
    )
    dev = np.abs(mass - expected)
    # left to right, as the rows run: np.sum pairs, and builtin sum compensates on Python >= 3.12
    total_dev = float(np.add.accumulate(dev)[-1]) if dev.size else 0.0
    rows = np.column_stack((lo, hi, 0.5 * (lo + hi), mass, expected, dev, mass / width, expected / width))
    header = "bin_lo,bin_hi,bin_mid,empirical_mass,expected_mass,abs_dev,empirical_density,expected_density"
    meta_pairs = [
        ("steps", float(t)),
        ("bins", float(bins)),
        ("kept_bins", float(len(rows))),
        ("atom_window", ATOM_WINDOW),
        ("total_abs_deviation", total_dev),
        ("C", atom),
        ("integral", integral),
    ]
    _emit_table(config, header, rows, meta_pairs)
    print(
        f"converge: t={t} total_abs_deviation={total_dev:.6g} "
        f"over {len(rows)} bins (atom window |x/t| <= {ATOM_WINDOW} excluded)",
        file=sys.stderr,
    )
    return 0


# subcommand -> (runner, help text, default --steps, default --bins)
_COMMANDS = {
    "simulate": (cmd_simulate, "evolve the walk and emit the rescaled distribution (x/t, t*P, density)", 100, 40),
    "density": (cmd_density, "tabulate the analytic continuous density on a grid", 0, 200),
    "verify": (cmd_verify, "run internal consistency checks and report pass/fail", 8, 40),
    "converge": (cmd_converge, "compare binned empirical mass against the analytic density", 10000, 71),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _build_config(args, parser)
    try:
        return _COMMANDS[config.command][0](config)
    except (limit.DegenerateDenominatorError, walk.StepLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
