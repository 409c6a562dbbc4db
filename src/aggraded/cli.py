"""Command-line entry point: ``aggraded run SESSION [options]``."""

from __future__ import annotations

import argparse
import os
import sys

from .session import SessionError, execute, parse_session, render_report, summarize


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aggraded",
        description="Associated graded modules, tangent cones and purity verdicts, exactly.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run a session file")
    run.add_argument("session", help="path to the session file")
    run.add_argument("--out", help="write the machine-readable JSON report here")
    run.add_argument("--char", type=int, default=None, help="override the characteristic")
    run.add_argument("--truncation", type=int, default=None, help="override the oracle truncation")
    run.add_argument("--max-homdeg", type=int, default=None, help="override the homological cutoff")
    run.add_argument("--verbose", action="store_true", help="echo the parsed session")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse exits 2, the status of "inconclusive"
        return 1 if exc.code else 0
    try:
        with open(args.session, encoding="utf-8") as fh:
            ses = parse_session(fh.read())
        # an --out that cannot be written fails here, before any computation
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except UnicodeDecodeError as exc:
        print(f"error: {args.session} is not UTF-8 text ({exc.reason} at offset {exc.start})",
              file=sys.stderr)
        return 1
    except (OSError, SessionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"# parsed session: {ses.describe()}")
    report, status = execute(
        ses, char_override=args.char, truncation=args.truncation, max_homdeg=args.max_homdeg
    )
    # the report is written first: it stands even if the summary fails
    if out is not None:
        with out:
            out.write(render_report(report))
            out.write("\n")
    if report["results"]:
        try:
            print(summarize(report), flush=True)
        except BrokenPipeError:
            # the reader closed early; keep the interpreter's exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: standard output closed before the summary", file=sys.stderr)
            return 1
    if "error" in report.get("provenance", {}):
        print(f"error: {report['provenance']['error']}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
