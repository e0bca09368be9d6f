#!/usr/bin/env python3
"""Run every registered verification suite and print a one-line summary per
suite, plus an overall verdict.  Exit code follows the worst status seen.

Usage:
    python scripts/run_all_checks.py [--params u=2,s=3] [--json OUT.json]
"""

import argparse
import json
import sys
import time

from qwh.cli import _SUITES, CLIError, _parse_params, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", default=None, help="rational bindings, e.g. u=2,s=3")
    ap.add_argument("--json", default=None, help="write the full reports here")
    args = ap.parse_args()

    try:
        bindings = _parse_params(args.params)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    worst = 0
    for name in _SUITES:
        start = time.monotonic()
        rep = run_suite(name, bindings, False)
        elapsed = time.monotonic() - start
        reports.append(rep)
        n_fail = len(rep.failures)
        print(
            f"{name:<16} {rep.status:<5} "
            f"({len(rep.items)} items, {n_fail} failing, {elapsed:.2f}s)"
        )
        if rep.status == "FAIL":
            worst = max(worst, 1)
        elif rep.status == "ERROR":
            worst = 2

    print("overall:", "PASS" if worst == 0 else ("FAIL" if worst == 1 else "ERROR"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
