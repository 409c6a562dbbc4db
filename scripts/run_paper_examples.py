#!/usr/bin/env python3
"""Reproduce the worked examples end to end and print the reports.

Runs every bundled session (``sessions/*.session`` in sorted order: the
3+3 fibre product, the graded-flavor session, the numerical semigroup ring
and the three squares over a regular ring) through the same path the CLI
uses, then prints the human-readable summaries.  A session's exit status 2
(some result inconclusive at its cutoff) counts as success.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from aggraded.session import execute, parse_session, summarize  # noqa: E402

SESSIONS = pathlib.Path(__file__).resolve().parent.parent / "sessions"


def main():
    overall = 0
    for path in sorted(SESSIONS.glob("*.session")):
        name = path.name
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        t0 = time.monotonic()
        report, status = execute(parse_session(path.read_text()))
        dt = time.monotonic() - t0
        print(summarize(report))
        print(f"--- exit status {status}, {dt:.1f}s")
        overall = max(overall, status if status != 2 else 0)
    return overall


if __name__ == "__main__":
    sys.exit(main())
