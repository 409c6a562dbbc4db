#!/usr/bin/env python3
"""Record the outcome of every benchmark item into goldens.json.

    python3 perfbench/record_goldens.py

Run it only at a commit whose reports are known to be right: the benchmark
counts every later difference from these outcomes as a failed item.
Agreement goldens are recorded for the default cases seed and for the
held-out one.
"""

from __future__ import annotations

import json

import workloads


def record():
    workloads.import_package()
    seeds = (workloads.default_cases_seed(), workloads.HELD_OUT_CASES_SEED)
    goldens = {}
    for workload in workloads.WORKLOADS:
        # only the agreement inputs depend on the cases seed
        items = [item for seed in (seeds if workload == "agreement" else seeds[:1])
                 for item in workloads.build_items(workload, seed)]
        goldens[workload] = {item.name: item.outcome(item.call()) for item in items}
    return goldens


def main():
    goldens = record()
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDENS}")


if __name__ == "__main__":
    main()
