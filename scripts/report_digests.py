#!/usr/bin/env python3
"""Print the sha256 of each bundled session's ``--out`` report at fixed cutoffs.

One line per run, ``session@cutoff exit sha256``: semigroup, squares and
graded at max_homdeg 0-8, fibre at 0-5 and semigroup at 10 and 12 (where
columns reach ranks in the thousands; about 15 s).  Each run goes
through ``aggraded.cli.main`` with ``--out`` in a temporary directory, so the
digest is of the exact report bytes.  A change that keeps every report
byte-identical prints the same lines; CI compares them with
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
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = cli_main(argv)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            out.unlink()
            print(f"{name}@{cutoff} {status} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
