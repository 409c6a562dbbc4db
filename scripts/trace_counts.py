#!/usr/bin/env python3
"""Print the exact counts of one traced benchmark pass, without its timings.

Runs ``perfbench/run.py --workload all --trace 1 --seconds 0`` and prints one
line per metric, ``workload metric value``: every span's ``.calls``, the
counters and the ratios.  Self times (``self_s``) and the tracer's own
``trace.*`` metrics are left out, because they vary from run to run.  The
counts do not: a change that moves one must update the recorded file and say
why.  CI compares the output with ``tests/trace_counts.txt``::

    python scripts/trace_counts.py | diff tests/trace_counts.txt -

Exits 1 when the traced pass fails or reports ``"correct": false``.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", "all", "--trace", "1", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the traced pass exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        print("error: the traced pass is not correct", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        workload, metric_name = name.split(".", 1)
        if metric["unit"] in ("count", "ratio") and not metric_name.startswith("trace."):
            print(f"{workload} {metric_name} {metric['value']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
