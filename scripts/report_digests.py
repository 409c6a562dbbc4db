#!/usr/bin/env python3
"""Print the sha256 of each bundled session's ``--out`` report and summary at fixed cutoffs.

One line per run, ``session@cutoff exit report-sha256 summary-sha256``,
the last the digest of what the CLI prints on stdout: semigroup, squares and
graded at max_homdeg 0-8, fibre at 0-5 and semigroup at 10 and 12 (where
columns reach ranks in the thousands; about 15 s).  Each run goes
through ``aggraded.cli.main`` with ``--out`` in a temporary directory, so the
digests are of the exact report and summary bytes.  A change that keeps every
report and summary byte-identical prints the same lines; CI compares them with
``tests/report_digests.txt``::

    python scripts/report_digests.py | diff tests/report_digests.txt -
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aggraded.cli import main as cli_main  # noqa: E402

RUNS = ([(name, c) for name in ("semigroup", "squares", "graded") for c in range(9)]
        + [("fibre", c) for c in range(6)] + [("semigroup", 10), ("semigroup", 12)])


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        for name, cutoff in RUNS:
            argv = ["run", str(ROOT / "sessions" / f"{name}.session"),
                    "--out", str(out), "--max-homdeg", str(cutoff)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = cli_main(argv)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            summary = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            out.unlink()
            print(f"{name}@{cutoff} {status} {digest} {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
