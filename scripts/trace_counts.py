#!/usr/bin/env python3
"""Print the exact counts of the traced benchmark passes, without their timings.

Runs ``perfbench/run.py --workload all --trace 1 --seconds 0``, then the
held-out agreement cases (``--workload agreement --cases-seed 2``, labelled
``agreement_seed2``), and prints one line per metric, ``workload metric
value``: every span's ``.calls``, the counters and the ratios.  Self times (``self_s``) and the tracer's own
``trace.*`` metrics are left out, because they vary from run to run.  The
counts do not: a change that moves one must update the recorded file and say
why.  CI compares the output with ``tests/trace_counts.txt``::

    python scripts/trace_counts.py | diff tests/trace_counts.txt -

Exits 1 when a traced pass fails or reports ``"correct": false``.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (label, arguments) of each traced pass.  A pass of one workload names its
# metrics without the workload, so it prints them under its label
PASSES = (
    (None, ["--workload", "all"]),
    ("agreement_seed2", ["--workload", "agreement", "--cases-seed", "2"]),
)


def main():
    for label, args in PASSES:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args,
               "--trace", "1", "--seconds", "0"]
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
            workload, metric_name = name.split(".", 1) if label is None else (label, name)
            if metric["unit"] in ("count", "ratio") and not metric_name.startswith("trace."):
                print(f"{workload} {metric_name} {metric['value']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
