#!/usr/bin/env python3
"""Benchmark of the wojcikwalk package, run from the root of a checkout:

    python3 perfbench/run.py --workload walk_long --seed 1 --seconds 28 --trace 0

Workloads: walk_long, walk_sweep, analytic (see perfbench/README.md).  With
``--trace 0`` every operation also runs on a frozen copy of the package in a
child process, and the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run of the program alone.
The lines before it repeat every metric by name and unit, with the
environment.  Everything measured, spans included, is also written to
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="wojcikwalk benchmark")
    parser.add_argument("--workload", required=True, choices=("walk_long", "walk_sweep", "analytic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "wojcikwalk" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # All hot operations are element-wise and the reference box has 2 cores:
    # cap BLAS threads before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = bench.result_line(report)
    for text in bench.human_lines(report):
        print(text)
    for failure in report.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# written to {bench.write_result(report, line)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
