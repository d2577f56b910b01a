"""In-memory tracing of the wojcikwalk layers, installed from outside.

The traced run replaces the public functions of each layer module with
wrappers for the duration of a pass and puts the originals back afterwards;
the package itself is never edited.  Coarse calls (one walk, one quadrature,
one CLI invocation) get a span each.  The scalar functions of ``limit`` and
``spectral`` run up to about 10^6 times per pass, so they only bump counters
and add their elapsed time to the innermost open span, where it is charged
to their own layer instead of the span's.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from wojcikwalk import cli, limit, quadrature, spectral, walk

# Unitarity drift budget of an evolved state; the margin metric is drift / this.
DRIFT_TOL = 1e-11

@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    op_id: int | None
    start: float = 0.0
    end: float = 0.0
    scalar: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._in_scalar = False

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span under the innermost open one."""
        record = Span(name, layer, self._stack[-1] if self._stack else None, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap_span(self, name: str, layer: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_scalar(self, name: str, layer: str, fn):
        # Only the outermost scalar call is timed and counted: ac_density
        # calls weight and konno_density, which must not be charged twice.
        def wrapper(*args, **kwargs):
            if self._in_scalar:
                return fn(*args, **kwargs)
            self._in_scalar = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_scalar = False
                self.counters[f"{name}.calls"] += 1
                self.counters[f"{name}.busy_s"] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]].scalar[layer] += elapsed

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op_id": s.op_id,
                    "scalar_s": dict(s.scalar),
                }
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


# ---------------------------------------------------------------------------
# Hooks that turn call arguments and results into counters
# ---------------------------------------------------------------------------


def _after_evolve(tracer: Tracer, args, kwargs, state) -> None:
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counters["walk.site_steps"] += t * t
    drift = abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)
    tracer.maxima["walk.max_drift_margin"] = max(
        tracer.maxima["walk.max_drift_margin"], drift / DRIFT_TOL
    )


def _after_integrate(tracer: Tracer, args, kwargs, result) -> None:
    tol = args[1] if len(args) > 1 else kwargs["tol"]
    tracer.counters["quadrature.evaluations"] += result.evaluations
    tracer.maxima["quadrature.err_margin"] = max(
        tracer.maxima["quadrature.err_margin"], result.est_error / tol
    )


def _after_k_integration(tracer: Tracer, args, kwargs, result) -> None:
    n_k = args[2] if len(args) > 2 else kwargs["n_k"]
    tracer.counters["spectral.k_samples"] += 2 * 4 * math.ceil(n_k / 4)


def _patch_table(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, replacement) for every traced public function."""
    integrate = tracer.wrap_span(
        "quadrature.integrate_ac", "quadrature", quadrature.integrate_ac, _after_integrate
    )
    table = [
        (walk, "evolve", tracer.wrap_span("walk.evolve", "walk", walk.evolve, _after_evolve)),
        (walk, "distribution", tracer.wrap_span("walk.distribution", "walk", walk.distribution)),
        (walk, "cesaro_average", tracer.wrap_span("walk.cesaro_average", "walk", walk.cesaro_average)),
        (walk, "path_sum_field", tracer.wrap_span("walk.path_sum_field", "walk", walk.path_sum_field)),
        (
            limit,
            "weight_coefficients",
            tracer.wrap_span("limit.weight_coefficients", "limit", limit.weight_coefficients),
        ),
        (limit, "atom_mass", tracer.wrap_span("limit.atom_mass", "limit", limit.atom_mass)),
        (
            spectral,
            "density_via_k_integration",
            tracer.wrap_span(
                "spectral.density_via_k_integration",
                "spectral",
                spectral.density_via_k_integration,
                _after_k_integration,
            ),
        ),
        (
            spectral,
            "weight_from_residues",
            tracer.wrap_scalar("spectral.weight_from_residues", "spectral", spectral.weight_from_residues),
        ),
        (cli, "main", tracer.wrap_span("cli.main", "cli", cli.main)),
        # cli and limit import integrate_ac by name: wrap every binding.
        (quadrature, "integrate_ac", integrate),
        (cli, "integrate_ac", integrate),
        (limit, "integrate_ac", integrate),
    ]
    for name in ("weight", "ac_density", "konno_density"):
        table.append((limit, name, tracer.wrap_scalar("limit.scalar", "limit", getattr(limit, name))))
    return table


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the layer functions through ``tracer`` until the block exits."""
    table = _patch_table(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in table]
    for module, attr, replacement in table:
        setattr(module, attr, replacement)
    try:
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time: span time not covered by child spans or by
    scalar calls, plus the scalar time charged to the layer."""
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time: defaultdict[str, float] = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        self_time[s.layer] += s.duration - child_time[i] - sum(s.scalar.values())
        for layer, spent in s.scalar.items():
            self_time[layer] += spent
    return dict(self_time)


def pass_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    busy: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for s in tracer.spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
    own = layer_self_times(tracer)
    c = tracer.counters
    site_steps = c["walk.site_steps"]
    k_samples = c["spectral.k_samples"]
    k_busy = busy["spectral.density_via_k_integration"]
    return {
        "walk.evolve.calls": calls["walk.evolve"],
        "walk.evolve.busy_s": busy["walk.evolve"],
        "walk.site_steps": int(site_steps),
        "walk.ns_per_site_step": 1e9 * busy["walk.evolve"] / site_steps if site_steps else 0.0,
        "walk.distribution.busy_s": busy["walk.distribution"],
        "walk.cesaro_average.busy_s": busy["walk.cesaro_average"],
        "walk.path_sum_field.busy_s": busy["walk.path_sum_field"],
        "walk.busy_s": own.get("walk", 0.0),
        "walk.share_of_wall": 100.0 * own.get("walk", 0.0) / wall_s,
        "walk.max_drift_margin": tracer.maxima["walk.max_drift_margin"],
        "limit.weight_coefficients.calls": calls["limit.weight_coefficients"],
        "limit.weight_coefficients.busy_s": busy["limit.weight_coefficients"],
        "limit.scalar_evals": int(c["limit.scalar.calls"]),
        "limit.self_s": own.get("limit", 0.0),
        "quadrature.integrate_ac.calls": calls["quadrature.integrate_ac"],
        "quadrature.evaluations": int(c["quadrature.evaluations"]),
        "quadrature.self_s": own.get("quadrature", 0.0),
        "quadrature.err_margin": tracer.maxima["quadrature.err_margin"],
        "spectral.k_samples": int(k_samples),
        "spectral.density_via_k_integration.busy_s": k_busy,
        "spectral.ns_per_k_sample": 1e9 * k_busy / k_samples if k_samples else 0.0,
        "spectral.weight_from_residues.calls": int(c["spectral.weight_from_residues.calls"]),
        "spectral.weight_from_residues.busy_s": c["spectral.weight_from_residues.busy_s"],
        "spectral.busy_s": own.get("spectral", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.bytes_out": int(c["cli.bytes_out"]),
        "cli.rows_out": int(c["cli.rows_out"]),
    }


# Metrics that summarise a run by their maximum over passes, not the median.
MAX_OVER_PASSES = ("walk.max_drift_margin", "quadrature.err_margin")
