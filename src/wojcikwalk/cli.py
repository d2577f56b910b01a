"""Command-line front end: simulate, density, verify, converge.

Every subcommand shares one flag set (defect phase, initial spinor, steps,
bins, tolerance, output format and path) and emits either CSV (UTF-8, LF,
17-significant-digit floats, bit-stable across runs) or a JSON object with
``config``, ``metadata`` and ``rows`` keys.  Validation failures exit with
status 2; a failed verification exits with status 1.

Table bodies are the text ``"%.17g"`` gives, byte for byte.  Blocks of rows
are formatted on numpy arrays, their digits from an error-free float product,
with CPython's ``%`` only for values outside that route's domain.  A CSV
body is packed into one buffer sized by the table's shape, hashed into the
SHA-256 checksum and written block by block, never decoded whole.  A JSON
table's rows are dumped and written block by block too.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import limit, spectral, walk
from .quadrature import SUPPORT_RADIUS, QuadratureConvergenceError, _integrate_intervals, integrate_ac

__all__ = ["MAX_BINS", "RunConfig", "main", "entry", "cmd_simulate", "cmd_density", "cmd_verify", "cmd_converge"]

ATOM_WINDOW = 0.05
MAX_BINS = 10**6  # density --bins 10^6 peaks at 178 MB ru_maxrss in CSV, 136 MB in JSON (x86-64, Python 3.11)

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs more than parsing with it."""
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

# Exact "%.17g" of whole blocks of floats.  A finite |x| with decimal exponent
# E in [-6, 16] has s = 16 - E in [0, 22], and its 17 significant digits are
# D = |x| * 10^s rounded half-even.  10^s is exact in binary64 for s <= 22,
# and Dekker's product (|x| split with 2^27 + 1, 10^s split in the tables)
# gives the rounding error of p = fl(|x| * 10^s) exactly: with |x| in
# [1e-6, 1e17), no partial product comes near underflow or overflow, and p
# stays below 10^18 < 2^63 even where the estimated E is one low.  Where
# 10^16 <= p, p > 2^53 is an even integer, so D = p + rint(error) is the
# half-even rounding, ties included.
_SPLIT = 2.0**27 + 1.0
_POW10 = np.array([float(10**s) for s in range(23)])  # each exact
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_PARTS = np.stack((_POW10, _POW10_HI, _POW10 - _POW10_HI))  # 10^s, its high and low halves
# "0000" … "9999" as one uint32 each, and their trailing zeros (4 for "0000");
# built with numpy, as a Python loop over the groups costs milliseconds at import
_GROUPS = np.arange(10**4, dtype=np.uint16)
_DIGITS4 = _GROUPS[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
_DIGITS4 = (48 + _DIGITS4).astype(np.uint8).view(np.uint32).ravel()
_TZ4 = sum((_GROUPS % 10**k == 0).astype(np.uint8) for k in range(1, 5))
# digits before the decimal point for E = -6 … 16; 17 (none) for "0.000ddd" at -4 <= E < 0
_N_INT = np.array([17 if -4 <= e < 0 else max(e + 1, 1) for e in range(-6, 17)])
_BLOCK_ROWS = 1024
_CELL = 32  # bytes of text grid per value
_MAX_TEXT = 25  # the longest "%.17g" text, "-1.7976931348623157e+308", and its separator


def _layouts() -> tuple[np.ndarray, ...]:
    """Byte masks and templates of the text cell, per E = -6 … 16 and per length.

    A cell holds the sign and any "0.000" prefix right-aligned in bytes 0-6,
    then the digits from byte 7 with the decimal point after the first
    ``_N_INT`` of them, then the exponent suffix and the separator.  Bytes
    left 0 are dropped when the grid is compressed.
    """
    low, high = np.zeros((2, 23, _CELL), np.uint8)
    pre = np.zeros((23, 2, _CELL), np.uint8)  # [E, negative]
    for e, n_int in zip(range(-6, 17), _N_INT.tolist()):
        low[e + 6, 7 : 7 + n_int] = 0xFF  # digits before the point
        high[e + 6, 8 + n_int :] = 0xFF  # digits after it, one byte on
        for neg in (0, 1):
            prefix = b"-" * neg + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
            pre[e + 6, neg, 7 - len(prefix) : 7] = list(prefix)
            pre[e + 6, neg, 7 + n_int] = ord(".")
    keep = np.tril(np.full((_CELL, _CELL), 0xFF, np.uint8))[6:25]  # [n]: bytes 0 … 6 + n
    return low, high, pre.reshape(46, _CELL), keep


_LOW, _HIGH, _PRE, _KEEP = _layouts()


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significand D and decimal exponent E of each float, and where both are exact.

    D is 0 for ±0.  Where the third array is False, D and E are placeholders:
    for subnormals, inf, nan, E outside [-6, 16], and values whose estimated
    E is off by one (near a power of ten).
    """
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-6) & (a < 1e17)  # nan compares False
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).clip(-6, 16).astype(np.int64)  # E, or one off; 0 where not fast
    s = 16 - e
    ten, ten_hi, ten_lo = _POW10_PARTS.take(s, axis=1)
    p = a * ten
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = a_hi * ten_hi - p  # the exact a * ten - p, term by term
    err += a_hi * ten_lo
    err += a_lo * ten_hi
    err += a_lo * ten_lo
    p = p.astype(np.int64)
    d = p + np.rint(err).astype(np.int64)
    # 10^16 <= D < 10^17 exactly when E was right and rounding did not carry
    ok = (fast & (p + np.floor(err).astype(np.int64) >= 10**16) & (d < 10**17)) | zero
    d = np.where(ok, d, 10**16)
    d[zero] = 0
    return d, e, ok


def _format_values(v: np.ndarray, seps: np.ndarray) -> bytes:
    """``"%.17g" % x`` followed by its separator byte, for each x of the float64 array ``v``.

    ``_decimal`` gives the digits; CPython's ``%`` formats the values it
    leaves out (1e-6 prints as 9.9999999999999995e-07).
    """
    n = v.size
    d, e, ok = _decimal(v)
    # D's five digit groups, 1 + 4 * 4 digits: one int64 division, then uint32 ones
    high = d // 10**8
    low = (d - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // np.uint32(10**8)
    high -= lead * np.uint32(10**8)
    g1, g3 = high // np.uint32(10**4), low // np.uint32(10**4)
    groups = (lead, g1, high - g1 * np.uint32(10**4), g3, low - g3 * np.uint32(10**4))
    tz = _TZ4.take(groups[4]).astype(np.int64)  # trailing zeros of D
    pending = np.flatnonzero(groups[4] == 0)  # values whose zeros run on into the next group
    for group in groups[3:0:-1]:
        group = group.take(pending)
        tz[pending] += _TZ4.take(group)
        pending = pending[group == 0]
    n_int = _N_INT.take(e + 6)
    n_dig = np.maximum(17 - tz, np.where(e >= 0, e + 1, 1))  # fixed notation keeps integer zeros
    n_chars = n_dig + (n_dig > n_int)  # digits and decimal point

    cells = np.zeros((n, _CELL // 4), np.uint32)  # D's 17 digits in bytes 7 … 23
    for col, group in enumerate(groups, start=1):
        cells[:, col] = _DIGITS4.take(group)
    digits = cells.view(np.uint8)
    shifted = np.zeros_like(digits)  # the same digits in bytes 8 … 24
    shifted.reshape(-1)[1:] = digits.reshape(-1)[:-1]
    grid = digits & _LOW.take(e + 6, axis=0)
    grid |= shifted & _HIGH.take(e + 6, axis=0)
    grid |= _PRE.take(2 * (e + 6) + np.signbit(v), axis=0)
    grid &= _KEEP.take(n_chars, axis=0)

    flat = grid.reshape(-1)
    end = np.arange(0, n * _CELL, _CELL) + 7 + n_chars
    exp_form = np.flatnonzero(ok & (e < -4))
    if exp_form.size:
        at = end[exp_form]
        for i, char in enumerate(b"e-0"):
            flat[at + i] = char
        flat[at + 3] = ord("0") - e[exp_form]
        end[exp_form] += 4
    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = [_FLOAT % x for x in v[slow].tolist()]
        grid[slow] = np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        end[slow] = slow * _CELL + np.array([len(t) for t in texts])
    flat[end] = seps
    return flat[flat != 0].tobytes()


def _body_blocks(table: np.ndarray) -> Iterator[bytes]:
    """The rows of ``table`` as CSV text, in blocks of ``_BLOCK_ROWS`` rows.

    Joined, the blocks equal ``"\\n".join([",".join(["%.17g"] * cols)] * rows) % values``
    byte for byte, so the last row has no newline.
    """
    rows, cols = table.shape
    seps = np.full((_BLOCK_ROWS, cols), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    for start in range(0, rows, _BLOCK_ROWS):
        block = np.ascontiguousarray(table[start : start + _BLOCK_ROWS], dtype=np.float64)
        text = _format_values(block.reshape(-1), seps[: len(block)].reshape(-1))
        yield text if start + _BLOCK_ROWS < rows else text[:-1]


def _packed_body(table: np.ndarray) -> tuple[memoryview, list[int]]:
    """``_body_blocks(table)`` copied end to end into one buffer, and the offset where each block ends.

    The buffer's size follows from the table's shape alone, and each block's
    formatting temporaries reuse the last one's memory.  The ~100 blocks of a
    10^5-row table kept as separate bytes objects among freed temporaries
    made the peak memory of a process that runs many commands vary from run
    to run.
    """
    buffer = memoryview(np.empty(table.size * _MAX_TEXT, np.uint8))
    ends = [0]
    for block in _body_blocks(table):
        buffer[ends[-1] : ends[-1] + len(block)] = block
        ends.append(ends[-1] + len(block))
    return buffer[: ends[-1]], ends


def _emit(chunks: Iterable[str], path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(chunks)


def _json_rows(table: np.ndarray) -> Iterator[str]:
    """The rows of a non-empty 2-D ``table`` as ``json.dumps(payload, indent=2)`` nests them.

    With ``indent`` set CPython's json runs its Python encoder, about twice
    the cost per float of the C one.  The text of a number holds no ',' or
    ']', so each block of ``_BLOCK_ROWS`` rows is dumped without indent and
    indented by replacing those separators: the same bytes, from the first
    value to the last, with no temporary larger than one block's.
    """
    row_break = "\n    ],\n    [\n      "
    for start in range(0, len(table), _BLOCK_ROWS):
        # [[a,b],[c,d]] -> the rows as the indented dump nests them, two levels deep
        compact = json.dumps(table[start : start + _BLOCK_ROWS].tolist(), separators=(",", ":"))
        body = compact[2:-2].replace(",", ",\n      ").replace("],\n      [", row_break)
        yield body if start == 0 else row_break + body


def _emit_json(config: RunConfig, metadata: dict, rows: list | np.ndarray) -> None:
    """Write ``json.dumps(payload, indent=2)``, streaming a non-empty table's rows.

    A list (``verify``'s checks) or an empty table is dumped whole; the rows
    of any other table come block by block from ``_json_rows``, between the
    head and tail of the same dump, and are written as they are made.
    """
    payload = {"config": config.echo(), "metadata": metadata, "rows": rows}
    if not isinstance(rows, np.ndarray) or rows.size == 0:
        _emit([json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"], config.output_path)
        return
    head = json.dumps({**payload, "rows": None}, indent=2)[: -len("null\n}")] + "[\n    [\n      "
    _emit(itertools.chain([head], _json_rows(rows), ["\n    ]\n  ]\n}\n"]), config.output_path)


def _emit_table(config: RunConfig, header: str, table: np.ndarray, meta_pairs: list[tuple[str, float]]) -> None:
    """Rows with their metadata and checksum: '# key=value' lines in CSV, keys in JSON.

    ``table`` holds one row per line.  The CSV body is the ``"%.17g"`` text
    of ``_body_blocks``, and the checksum is the SHA-256 of that body.  JSON
    hashes the blocks as they are made and keeps none; CSV packs them into
    one buffer (``_packed_body``) to write after its checksum line, decoded
    block by block.  A CSV table without metadata pairs prints no checksum
    either: its header line comes first.
    """
    if config.output_format != "csv":
        digest = hashlib.sha256()
        for block in _body_blocks(table):
            digest.update(block)
        columns = header.split(",")
        metadata = {**dict(meta_pairs), "checksum": digest.hexdigest(), "rows": len(table), "columns": columns}
        _emit_json(config, metadata, table)
        return
    body, ends = _packed_body(table)
    lines = [f"# {k}={_FLOAT % v}" for k, v in meta_pairs]
    if lines:
        lines.append(f"# checksum={hashlib.sha256(body).hexdigest()}")
    head = "\n".join(lines + [header]) + "\n"
    pieces = (str(body[start:end], "ascii") for start, end in itertools.pairwise(ends))
    _emit(itertools.chain([head], pieces, ["\n"] if len(ends) > 1 else []), config.output_path)


def _measure(params: walk.WalkParams, tol: float) -> tuple[limit.WeightCoefficients, float, float]:
    """Coefficients, continuous integral and atom at tolerance ``tol``, shared by commands."""
    coeffs = limit.weight_coefficients(params)
    result = integrate_ac(lambda x: limit.ac_density(x, coeffs), tol)
    return coeffs, result.value, limit.atom_from_integral(result.value, tol)


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
    pairs = walk.rescaled_distribution(walk.distribution(_evolve(config)))  # the t + 1 sites of t's parity
    if config.output_format == "json":  # only JSON prints C and the integral, so only JSON computes them
        coeffs, integral, atom = _measure(config.params, config.tolerance)
        meta_pairs = [("C", atom), ("integral", integral)]
    else:
        coeffs, meta_pairs = limit.weight_coefficients(config.params), []
    table = np.column_stack((pairs, limit.ac_density(pairs[:, 0], coeffs)))
    _emit_table(config, "x_over_t,scaled_prob,density", table, meta_pairs)
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


_STATUS = {True: "pass", False: "fail", None: "skipped"}


def _verify_checks(config: RunConfig) -> list[dict]:
    """``verify``'s records, one per check: its name, "pass", "fail" or "skipped", and a detail line."""
    params = config.params
    tol = max(config.tolerance, 1e-10)
    coeffs, integral, atom = _measure(params, tol)
    checks: list[tuple[str, bool | None, str]] = []  # (name, passed or None if skipped, detail)

    # (i) closed-form reduction, when this configuration is a reference case
    case_id = limit.match_fixture(params)
    if case_id is None:
        checks.append(("fixture_reduction", None, "configuration matches no reference case"))
    else:
        closed = limit.fixture(case_id).weight_fn
        grid = np.linspace(-SUPPORT_RADIUS + 1e-3, SUPPORT_RADIUS - 1e-3, 1000)
        worst = float(np.max(np.abs(limit.weight(grid, coeffs) - closed(grid))))
        detail = f"case {case_id}: max |w - closed form| = {worst:.3e} (tol 1e-12)"
        checks.append(("fixture_reduction", worst <= 1e-12, detail))

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
    detail = "; ".join(problems) or f"C = {atom:.12g}, integral = {integral:.12g}, sum = {atom + integral:.12g}"
    checks.append(("mass_decomposition", not problems, detail))

    # (iii) residue route agrees with the closed-form weight pointwise
    grid = np.linspace(-SUPPORT_RADIUS + 1e-3, SUPPORT_RADIUS - 1e-3, 201)
    grid = grid[np.abs(grid) > 1e-3]
    residues = spectral.weight_from_residues(grid, params)
    worst = float(np.max(np.abs(residues - limit.weight(grid, coeffs))))
    checks.append(("spectral_oracle", worst <= 1e-9, f"max |w_residues - w| = {worst:.3e} (tol 1e-9)"))

    # (iv) fast evolution equals the exhaustive path sum at small t
    t_small = max(2, min(config.steps, 12))
    fast = walk.evolve(params, t_small)
    brute = walk.path_sum_field(params, t_small)
    diff = float(np.max(np.abs(fast.amplitudes - brute.amplitudes)))
    detail = f"t = {t_small}: max amplitude difference = {diff:.3e} (tol 1e-12)"
    checks.append(("path_sum", diff <= 1e-12, detail))
    return [{"name": name, "status": _STATUS[passed], "detail": detail} for name, passed, detail in checks]


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
        _emit(["\n".join(lines) + "\n"], config.output_path)
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
    tol = min(config.tolerance, 1e-9)
    expected = _integrate_intervals(lambda x: limit.ac_density(x, coeffs), tol, lo.tolist(), hi.tolist())[0]
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
