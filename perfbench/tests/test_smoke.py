"""Smoke test of the benchmark at tiny sizes.

Every metric named in BENCHMARK.json is emitted with its unit, and a
deliberately corrupted output counts as a failed operation.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from wojcikwalk import cli, limit, quadrature, walk  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace):
    return bench.run(
        name, seed=1, seconds=0, trace=trace, sizes=workloads.TINY, min_passes=1
    )


def units(line):
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name):
    layer_functions = (walk.evolve, limit.ac_density, quadrature.integrate_ac, cli.integrate_ac, cli.main)
    traced_report = tiny_run(name, trace=True)
    assert (walk.evolve, limit.ac_density, quadrature.integrate_ac, cli.integrate_ac, cli.main) == layer_functions
    untraced_report = tiny_run(name, trace=False)
    assert all(len(p.reference_samples) == len(p.op_samples) for p in untraced_report.passes)
    traced = bench.result_line(traced_report)
    untraced = bench.result_line(untraced_report)
    for line in (traced, untraced):
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
        json.dumps(line)
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert traced["metrics"]["cli.output_digest_mismatches"]["value"] == 0
    for report in (traced_report, untraced_report):
        assert all(bench.human_lines(report))


def shifted_probability(text):
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[1] = ",".join(fields)
    return "\n".join(lines)


def header_only(text):
    return text[: text.index("\n") + 1]


@pytest.mark.parametrize("corrupt", [shifted_probability, header_only])
def test_corrupted_output_counts_as_failed(monkeypatch, corrupt):
    real = workloads.run_cli

    def corrupted(argv):
        out = real(argv)
        if argv[0] == "simulate":
            out.text = corrupt(out.text)
        return out

    monkeypatch.setattr(workloads, "run_cli", corrupted)
    report = tiny_run("walk_long", trace=False)
    line = bench.result_line(report)
    assert not line["correct"]
    # one simulate per pass, and the untimed warm-up pass is checked too
    assert line["failed"] == 1 + len(report.passes)
    assert all(failure.startswith("simulate") for failure in report.failures)
