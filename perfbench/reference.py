"""The frozen reference: the package as it was when the benchmark was defined.

``frozen/wojcikwalk`` is a copy of ``src/wojcikwalk`` at the commit that
added the benchmark, and is never updated (updating it redefines the
benchmark).  It runs in a child process of its own, so it shares no module,
cache or allocator state with the program measured, and the peak memory of
the benchmark process is the program's alone.

The host this benchmark was written on ran the same code up to 40 % faster or
slower from one minute to the next.  Running every operation on the program
and on the reference back to back, with the same inputs, and dividing the two
times cancels most of that drift: both see the same machine at the same
moment.  The child is driven one operation at a time over a pipe, so only one
of the two ever runs.

Run as a script, this file is the child: it reads ``<pass index> <op index>``
lines on stdin, runs that operation of the workload, and writes its elapsed
seconds on stdout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "frozen"


class Reference:
    """A child process that times operations on the frozen package."""

    def __init__(self, workload: str, seed: int, sizes) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__)), workload, str(seed), json.dumps(dataclasses.asdict(sizes))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def time_op(self, pass_index: int, op_index: int) -> float:
        self._proc.stdin.write(f"{pass_index} {op_index}\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"reference process exited with {self._proc.wait()}")
        return float(reply)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(workload: str, seed: int, sizes_json: str) -> None:
    # The protocol owns the real stdout; the CLI's output is captured anyway.
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    sys.path[:0] = [str(FROZEN), str(HERE)]
    import workloads

    bench = workloads.WORKLOADS[workload](workloads.Sizes(**json.loads(sizes_json)))
    current, ops = None, []
    for line in sys.stdin:
        pass_index, op_index = (int(v) for v in line.split())
        if pass_index != current:
            current, ops = pass_index, bench.ops(seed, pass_index)
        start = time.perf_counter()
        try:
            ops[op_index].run()
        except Exception:  # the program's own run of this op reports failures
            pass
        reply.write(f"{time.perf_counter() - start!r}\n")
        reply.flush()


if __name__ == "__main__":
    _serve(*sys.argv[1:])
