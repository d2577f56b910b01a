"""Benchmark runner: set-up timing, output digests, timed passes, traced passes.

One client, closed loop: the operations of a pass run one after another,
each starting when the previous one returned.  Each operation is timed, and a
pass's time (``wall_s``) is the sum of its operations' times; a run reports
medians over its passes.  Outputs are checked after the pass; an exception,
an unexpected exit code or an output outside its tolerance counts as a failed
operation.

Without tracing, every operation also runs on the frozen reference (see
``reference.py``) right before or after the program, on the same inputs, and
``wall_ratio`` compares the two.  With tracing, untraced and traced passes of
the program alone alternate: the untraced ones give the times in seconds, the
traced ones the per-layer metrics, and the difference of their median wall
times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads
from reference import Reference
from workloads import FULL, Sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_ratio": "ratio", "peak_rss_mb": "MB"}
OP_METRICS = tuple(name for w in workloads.WORKLOADS.values() for name in w.metrics)

# Units of the per-layer metrics reported by a traced run.
PER_LAYER_UNITS = {
    "wall_s": "s",
    "walk.evolve.calls": "count",
    "walk.evolve.busy_s": "s",
    "walk.site_steps": "count",
    "walk.ns_per_site_step": "ns",
    "walk.distribution.busy_s": "s",
    "walk.cesaro_average.busy_s": "s",
    "walk.path_sum_field.busy_s": "s",
    "walk.busy_s": "s",
    "walk.share_of_wall": "%",
    "walk.max_drift_margin": "ratio",
    "limit.weight_coefficients.calls": "count",
    "limit.weight_coefficients.busy_s": "s",
    "limit.scalar_evals": "count",
    "limit.self_s": "s",
    "quadrature.integrate_ac.calls": "count",
    "quadrature.evaluations": "count",
    "quadrature.self_s": "s",
    "quadrature.err_margin": "ratio",
    "spectral.k_samples": "count",
    "spectral.density_via_k_integration.busy_s": "s",
    "spectral.ns_per_k_sample": "ns",
    "spectral.weight_from_residues.calls": "count",
    "spectral.weight_from_residues.busy_s": "s",
    "spectral.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.rows_out": "count",
    "cli.output_digest_mismatches": "count",
    "trace.overhead_s": "s",
    **{name: "s" for name in OP_METRICS},
}


@dataclass
class PassResult:
    wall_s: float
    metric_s: dict[str, float]
    op_samples: list[tuple[str, float]]
    attempted: int
    failures: list[str]
    reference_samples: list[float]  # per operation, in op_samples' order; empty when unpaired
    layers: dict[str, float] | None = None
    trace: dict | None = None


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    env: dict
    setup_samples: list[float]
    peak_rss_mb: float = 0.0
    digest_mismatches: list[str] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _cpu_caches() -> dict[str, str]:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    return caches


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "blas_threads": {var: val for var, val in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")},
    }


# A fresh interpreter imports every layer of the package (the quadrature
# nodes are built at import) and builds and runs the CLI parser; no
# subcommand runs, so set-up holds no computation of the timed passes.
_SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
from wojcikwalk import cli, limit, quadrature, spectral, walk
cli._build_parser().parse_args(["verify", "--phi", "0.3", "--init", "1,0,0,0"])
"""


def time_setup() -> float:
    code = _SETUP_CODE.format(src=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited with {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def check_digests(report: Report) -> None:
    """Run every digest command; a mismatch is reported, not failed."""
    recorded = json.loads(DIGESTS.read_text())
    for name, argv in workloads.digest_commands():
        report.attempted += 1
        out = workloads.run_cli(argv)
        if out.code != 0:
            report.failures.append(f"digest {name}: exit code {out.code}")
        elif workloads.digest(out) != recorded.get(name):
            report.digest_mismatches.append(name)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(
    ops: list[workloads.Op],
    tracer: tracing.Tracer | None = None,
    reference: Reference | None = None,
    pass_index: int = 0,
) -> PassResult:
    metric_s = dict.fromkeys(OP_METRICS, 0.0)
    samples = []
    outputs = []
    reference_samples = []
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        for op_id, op in enumerate(ops):
            if tracer:
                tracer.op_id = op_id
            # Alternate which side runs first, so neither always finds the
            # machine in the state the other left it in.
            reference_first = (pass_index + op_id) % 2 == 1
            if reference and reference_first:
                reference_samples.append(reference.time_op(pass_index, op_id))
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op.{op.metric}", "bench") if tracer else contextlib.nullcontext():
                    out = op.run()
                error = None
            except Exception as exc:  # a failed operation, reported below
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if reference and not reference_first:
                reference_samples.append(reference.time_op(pass_index, op_id))
            metric_s[op.metric] += elapsed
            samples.append((op.metric, elapsed))
            outputs.append((op, out, error))
    wall = sum(elapsed for _, elapsed in samples)
    failures = []
    for op, out, error in outputs:
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # malformed output
                error = f"unreadable output ({type(exc).__name__}: {exc})"
        if error is not None:
            failures.append(f"{op.label}: {error}")
    result = PassResult(wall, metric_s, samples, len(ops), failures, reference_samples)
    if tracer:
        for _, out, _ in outputs:
            if isinstance(out, workloads.CliOutput):
                tracer.counters["cli.bytes_out"] += len(out.text.encode("utf-8"))
                tracer.counters["cli.rows_out"] += out.rows()
        result.layers = tracing.pass_metrics(tracer, wall)
        result.trace = tracer.to_json()
    return result


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
    min_passes: int = MIN_PASSES,
) -> Report:
    # Set-up is timed once before the passes and once after each of them, so
    # that its samples spread over the run.
    report = Report(workload, seed, trace, environment(seed), [time_setup()])
    check_digests(report)
    bench = workloads.WORKLOADS[workload](sizes)
    # The end-to-end run pairs every operation with the frozen reference;
    # the traced run measures the program alone.
    with contextlib.nullcontext() if trace else Reference(workload, seed, sizes) as reference:
        # One untimed pass first: it fills caches and lets the allocator
        # settle on the largest buffers, which otherwise slows the first
        # timed pass.
        warm_up = run_pass(bench.ops(seed, 0), reference=reference)
        report.attempted += warm_up.attempted
        report.failures += warm_up.failures
        start = time.perf_counter()
        index = 1
        while True:
            traced = trace and index % 2 == 0
            enough = len(report.passes) >= min_passes and (not trace or len(report.traced) >= min_passes)
            if enough and time.perf_counter() - start >= seconds:
                break
            result = run_pass(bench.ops(seed, index), tracing.Tracer() if traced else None, reference, index)
            (report.traced if traced else report.passes).append(result)
            report.attempted += result.attempted
            report.failures += result.failures
            report.setup_samples.append(time_setup())
            index += 1
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return report


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[str, float | None]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return "none", None
    ordered = sorted(samples)
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def _timing_line(name: str, samples: list[float], what: str) -> str:
    label, value = tail(samples)
    tail_text = f"{label}={value:.6g} s" if value is not None else "no percentile has 10 samples beyond it"
    return f"{name:<18} {statistics.median(samples):.6g} s   median of {len(samples)} {what}; {tail_text}"


def ratios_by_kind(passes: list[PassResult]) -> dict[str, tuple[list[float], float]]:
    """Per kind of operation: each one's time over the reference's, and the reference's total time."""
    ratios, reference_s = defaultdict(list), defaultdict(float)
    for p in passes:
        for (metric, elapsed), reference in zip(p.op_samples, p.reference_samples):
            ratios[metric].append(elapsed / reference)
            reference_s[metric] += reference
    return {metric: (ratios[metric], reference_s[metric]) for metric in ratios}


def wall_ratio(passes: list[PassResult]) -> float:
    """The median ratio of each kind of operation, weighted by its share of the reference's time.

    A ratio pairs two runs of one input made seconds apart, so the machine's
    drift between minutes cancels out of it; the median per kind drops the
    pairs that straddled a sudden change of speed.
    """
    kinds = ratios_by_kind(passes)
    total = sum(reference_s for _, reference_s in kinds.values())
    return sum(statistics.median(ratios) * reference_s / total for ratios, reference_s in kinds.values())


def end_to_end(report: Report) -> dict[str, float]:
    return {
        "setup_s": statistics.median(report.setup_samples),
        "wall_ratio": wall_ratio(report.passes),
        "peak_rss_mb": report.peak_rss_mb,
    }


def per_layer(report: Report) -> dict[str, float]:
    layers = {}
    for name in report.traced[0].layers:
        values = [p.layers[name] for p in report.traced]
        layers[name] = max(values) if name in tracing.MAX_OVER_PASSES else statistics.median(values)
    layers["wall_s"] = statistics.median(p.wall_s for p in report.passes)
    for name in OP_METRICS:
        layers[name] = statistics.median(p.metric_s[name] for p in report.passes)
    layers["cli.output_digest_mismatches"] = len(report.digest_mismatches)
    layers["trace.overhead_s"] = statistics.median(p.wall_s for p in report.traced) - statistics.median(
        p.wall_s for p in report.passes
    )
    return layers


def human_lines(report: Report) -> list[str]:
    op_metrics = workloads.WORKLOADS[report.workload].metrics
    lines = [
        f"# workload={report.workload} seed={report.seed} trace={int(report.trace)}",
        "# env " + json.dumps(report.env, sort_keys=True),
        _timing_line("setup_s", report.setup_samples, "fresh interpreters"),
        _timing_line("wall_s", [p.wall_s for p in report.passes], "passes"),
    ]
    for name in op_metrics:
        lines.append(_timing_line(name, [p.metric_s[name] for p in report.passes], "passes"))
    if not report.trace:
        lines.append(f"{'wall_ratio':<18} {wall_ratio(report.passes):.6g} ratio to the frozen reference")
        for name, (ratios, reference_s) in ratios_by_kind(report.passes).items():
            label, value = tail(ratios)
            tail_text = f"{label}={value:.6g}" if value is not None else "no percentile has 10 samples beyond it"
            lines.append(
                f"  ratio {name:<12} {statistics.median(ratios):.6g}   median of {len(ratios)} operations; "
                f"{tail_text}; reference time {reference_s:.6g} s"
            )
    lines.append(f"{'peak_rss_mb':<18} {report.peak_rss_mb:.6g} MB")
    for name in op_metrics:
        samples = [s for p in report.passes for metric, s in p.op_samples if metric == name]
        lines.append(_timing_line(f"  per op {name}", samples, "operations"))
    lines.append(
        f"cli.output_digest_mismatches {len(report.digest_mismatches)} of "
        f"{len(workloads.digest_commands())} {' '.join(report.digest_mismatches)}".rstrip()
    )
    if report.traced:
        for name, value in per_layer(report).items():
            lines.append(f"{name:<42} {value:.6g} {PER_LAYER_UNITS[name]}")
    lines.append(f"failed {len(report.failures)} of {report.attempted} operations")
    return lines


def result_line(report: Report) -> dict:
    if report.trace:
        values = per_layer(report)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(report)
        units = END_TO_END_UNITS
    return {
        "correct": not report.failures,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def write_result(report: Report, line: dict) -> Path:
    """Everything measured, with the environment and (traced) spans, as JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{report.workload}-seed{report.seed}-trace{int(report.trace)}.json"
    payload = {
        "result": line,
        "env": report.env,
        "setup_s": report.setup_samples,
        "digest_mismatches": report.digest_mismatches,
        "failures": report.failures,
        "passes": [
            {"wall_s": p.wall_s, "reference": p.reference_samples, "metric_s": p.metric_s, "ops": p.op_samples}
            for p in report.passes
        ],
        "traced_passes": [
            {"wall_s": p.wall_s, "layers": p.layers, "trace": p.trace} for p in report.traced
        ],
    }
    path.write_text(json.dumps(payload) + "\n")
    return path
