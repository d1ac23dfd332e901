"""Command-line verification driver.

    weilspin verify --preset sixfold-q2 [--seed 7] [--out report.json]
    weilspin verify --input datum.json [--check secant]

Exit codes: 0 all checks pass, 1 at least one check fails or an internal
error (one line `error: internal: <Type>: <message>`, also for a ValueError
raised while building the structure or the transforms), 2 an unreadable or
invalid datum, an unknown preset, a --check filter that no applicable
check name contains, or a MemoryError outside the checks (one line
`error: resource: MemoryError: <message>`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .secantpipe import PRESETS, InputError, run_all
from .weilcm import WeilDatum


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weilspin")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the verification suite")
    src = verify.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="named instance")
    src.add_argument("--input", help="path to a datum JSON file")
    verify.add_argument("--out", help="write the report JSON here instead of stdout")
    verify.add_argument("--check", help="only run checks whose name contains this string")
    verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "verify":
        return 2
    if args.preset:
        target = args.preset
    else:
        try:
            with open(args.input) as fh:
                data = json.load(fh)
            target = WeilDatum.from_json(data)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read input: {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError) as exc:
            print(f"error: invalid datum: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_all(target, seed=args.seed, check_filter=args.check)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: resource: MemoryError: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload = report.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for check in report.checks:
        status = "pass" if check.status else "FAIL"
        print(f"[{status}] {check.name}", file=sys.stderr)
    print(f"summary: {report.passed} pass, {report.failed} fail", file=sys.stderr)
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    raise SystemExit(main())
