"""One benchmark process: set up a workload, run its passes, print one JSON line.

    python3 perfbench/worker.py {setup,measure,trace} --workload W --seconds T
                                [--cases-seed N]

``setup`` only imports aggraded and builds the inputs, and reports how long
that took.  ``measure`` runs untraced passes until ``T`` seconds have gone
by (at least one).  ``trace`` runs an untraced and a traced pass in turn
until ``T`` seconds have gone by, and checks that both give the same
outcomes.  ``run.py`` starts these processes one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time

import workloads


def run_pass(items, golden):
    """Run every item once; returns (pass seconds, [(name, s, outcome, failure)])."""
    clock = time.perf_counter
    rows = []
    gc.collect()        # no garbage of the previous pass is collected inside this one
    t0 = clock()
    for item in items:
        rows.append((item.name, *workloads.run_item(item, golden.get(item.name), clock)))
    return clock() - t0, rows


def _failures(rows):
    return [f"{name}: {why}" for name, _, _, why in rows if why is not None]


def setup(args):
    """Import the package and build the inputs; returns (items, cases seed, seconds)."""
    t0 = time.perf_counter()
    workloads.import_package()
    cases_seed = args.cases_seed if args.cases_seed is not None else workloads.default_cases_seed()
    items = workloads.build_items(args.workload, cases_seed)
    return items, cases_seed, time.perf_counter() - t0


def measure(workload, golden, cases_seed, deadline):
    walls, item_s, failures, attempted = [], {}, [], 0
    while True:
        items = workloads.build_items(workload, cases_seed)
        wall, rows = run_pass(items, golden)
        if not walls:
            # the peak of one pass, as a user's process sees it; later passes
            # raise ru_maxrss a little further through heap fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        for name, seconds, _, _ in rows:
            item_s.setdefault(name, []).append(seconds)
        attempted += len(rows)
        failures += _failures(rows)
        if time.perf_counter() >= deadline:
            break
    return {"pass_s": walls, "item_s": item_s, "attempted": attempted,
            "failures": failures, "peak_rss_mb": peak_rss_mb}


def trace(workload, golden, cases_seed, deadline):
    """Untraced and traced passes in turn, so that their difference (the
    tracing overhead) is taken between medians of neighbouring passes."""
    import spans
    reference = {}
    untraced, traced, unattributed, per_pass, failures, attempted = [], [], [], [], [], 0
    while True:
        wall, rows = run_pass(workloads.build_items(workload, cases_seed), golden)
        untraced.append(wall)
        for name, _, outcome, _ in rows:
            reference.setdefault(name, outcome)
        attempted += len(rows)
        failures += _failures(rows)
        items = workloads.build_items(workload, cases_seed)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            wall, rows = run_pass(items, golden)
        traced.append(wall)
        unattributed.append(wall - tracer.spanned_ns() / 1e9)
        per_pass.append(tracer.metrics())
        attempted += len(rows)
        failures += _failures(rows)
        failures += [f"{name}: traced outcome differs from untraced"
                     for name, _, outcome, _ in rows if outcome != reference[name]]
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for key, first in per_pass[0].items():
        values = [m[key] for m in per_pass]
        if key.endswith("self_s"):
            metrics[key] = statistics.median(values)
        else:
            if any(v != first for v in values):
                failures.append(f"trace count {key} differs between passes: {values}")
            metrics[key] = first
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    return {"metrics": metrics, "untraced_pass_s": untraced, "traced_pass_s": traced,
            "attempted": attempted, "failures": failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cases-seed", type=int, default=None)
    args = parser.parse_args(argv)
    items, cases_seed, setup_s = setup(args)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    golden = workloads.load_goldens().get(args.workload, {})
    missing = [item.name for item in items if item.name not in golden]
    if missing:
        raise SystemExit(f"no goldens recorded for {args.workload} items {missing[:3]}; "
                         "they exist for the default and the held-out cases seed only")
    deadline = time.perf_counter() + args.seconds
    run = measure if args.mode == "measure" else trace
    print(json.dumps(run(args.workload, golden, cases_seed, deadline)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
