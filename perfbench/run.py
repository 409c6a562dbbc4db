#!/usr/bin/env python3
"""The aggraded benchmark: end-to-end metrics per workload, or per-layer spans.

    python3 perfbench/run.py [--workload {sessions,deep_resolution,agreement,all}]
                             [--seed N] [--seconds T] [--trace {0,1}] [--cases-seed N]

Run from the root of a checkout.  Each workload runs in fresh Python
processes, one after another (``worker.py``).  With ``--trace 0`` it prints
``wall_s``, ``item_p90_s``, ``setup_s``, ``peak_rss_mb`` and ``fail_ratio``;
with ``--trace 1`` it prints the per-layer calls, self times and counts of a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md says
why each workload exists and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
ROOT = HERE.parent
WORKLOADS = ("sessions", "deep_resolution", "agreement")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170          # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def _worker(mode, args, workload, deadline):
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seconds", str(args.seconds)]
    if args.cases_seed is not None:
        cmd += ["--cases-seed", str(args.cases_seed)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} process of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, check=False)
    except subprocess.TimeoutExpired as exc:     # subprocess.run has killed and reaped it
        raise WorkerError(f"{mode} process of {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} process of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _item_p90(item_s):
    """p90 over the items of each item's median time across the passes: a
    burst of load on the shared machine moves one sample, not the median."""
    medians = [statistics.median(times) for times in item_s.values()]
    if len(medians) == 1:
        return medians[0]
    return statistics.quantiles(medians, n=10, method="inclusive")[-1]


def end_to_end(args, workload, deadline):
    """Untraced measurement, then the set-up probes; returns (attempted,
    failed, metrics, lines)."""
    run = _worker("measure", args, workload, deadline)
    setups = [_worker("setup", args, workload, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    attempted, failed = run["attempted"], len(run["failures"])
    passes, items = run["pass_s"], run["item_s"]
    metrics = {
        "wall_s": (statistics.median(passes), "s", f"median of {len(passes)} passes"),
        "item_p90_s": (_item_p90(items), "s",
                       f"p90 over {len(items)} items of their medians over {len(passes)} passes"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "ru_maxrss of the measuring process"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} items"),
    }
    lines = [f"{workload:16s} {name:12s} {value:12.6g} {unit:6s} ({note})"
             for name, (value, unit, note) in metrics.items()]
    lines += [f"{workload:16s} FAILED {why}" for why in run["failures"]]
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
              if name != "fail_ratio"}    # fail_ratio travels as "failed" / "attempted"
    return attempted, failed, result, lines


def _fmt(value):
    return f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(args, workload, deadline):
    """Traced run; returns (attempted, failed, metrics, lines)."""
    run = _worker("trace", args, workload, deadline)
    attempted, failed = run["attempted"], len(run["failures"])
    lines = [f"{workload:16s} {kind} passes " + ", ".join(f"{t:.4f}" for t in run[f"{kind}_pass_s"])
             + " s" for kind in ("untraced", "traced")]
    lines += [f"{workload:16s} {name:48s} {_fmt(value)} {_unit(name)}"
              for name, value in run["metrics"].items()]
    lines += [f"{workload:16s} FAILED {why}" for why in run["failures"]]
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in run["metrics"].items()}
    return attempted, failed, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the benchmark interface; the inputs are fixed "
                             "(NOTES.md says why)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases-seed", type=int, default=None,
                        help="agreement cases seed (default: randomized.DEFAULT_SEED); "
                             "the held-out seed confirms a claim")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aggraded" / "__init__.py").is_file():
        print(f"error: no aggraded sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            a, f, m, lines = measure(args, name, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
