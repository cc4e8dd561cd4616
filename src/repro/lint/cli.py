"""Command line for the linter: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 when clean, 1 when findings remain after suppression and
baseline, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import DEFAULT_BASELINE, FAMILY_PREFIXES
from .diagnostics import Baseline, render_json, render_sarif, render_text
from .engine import run_lint
from .registry import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism, layering and protocol-contract "
                    "linter for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="only run these rule ids / id prefixes (repeatable, "
             "comma-separated ok; e.g. --select D101 --select L)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULE",
        help="skip these rule ids / id prefixes (repeatable)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="FILE",
        help=f"baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report findings even when the baseline covers them",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--only-family", action="append", default=None, metavar="FAMILY",
        help="only run these rule families (repeatable, comma-separated "
             f"ok; one of {', '.join(sorted(FAMILY_PREFIXES))})",
    )
    return parser


def _split_rules(values: Optional[List[str]]) -> Optional[List[str]]:
    if values is None:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for entry in all_rules():
            print(f"{entry.id}  {entry.name:28s} [{entry.severity}] "
                  f"{entry.summary}")
        return 0

    try:
        select = _split_rules(args.select)
        ignore = _split_rules(args.ignore)
        families = _split_rules(args.only_family)
        if families is not None:
            prefixes = []
            for family in families:
                prefix = FAMILY_PREFIXES.get(family.upper())
                if prefix is None:
                    print(f"unknown rule family: {family} (expected one "
                          f"of {', '.join(sorted(FAMILY_PREFIXES))})",
                          file=sys.stderr)
                    return 2
                prefixes.append(prefix)
            # A family is a select-prefix; explicit --select narrows
            # further within the chosen families.
            select = [
                s for s in select
                if any(s.startswith(p) or p.startswith(s) for p in prefixes)
            ] if select else prefixes
        if args.write_baseline:
            findings = run_lint(args.paths, select, ignore, baseline=None)
            Baseline.from_diagnostics(findings).save(args.baseline)
            print(f"wrote {len(findings)} finding(s) to {args.baseline}")
            return 0
        baseline = None if args.no_baseline else args.baseline
        findings = run_lint(args.paths, select, ignore, baseline=baseline)
    except KeyError as exc:
        print(str(exc).strip("'\""), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    elif findings:
        print(render_text(findings))
    else:
        baseline_note = ""
        if baseline and os.path.exists(baseline):
            covered = len(Baseline.load(baseline))
            if covered:
                baseline_note = f" ({covered} baselined)"
        print(f"repro.lint: clean{baseline_note}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
