"""``python -m repro lint`` — run the domain lints over the repo.

Exit status 0 when clean, 1 when any finding survives suppression
filtering, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Set

from .core import rule_ids
from .runner import lint_paths, render_findings


def _default_paths() -> List[str]:
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Domain-aware static checks: cost-accounting completeness, "
            "determinism, hot-path hygiene, WAL/epoch/fault-site protocol."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help=(
            "comma-separated rule ids to run; known ids: "
            + ", ".join(rule_ids())
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    select: Optional[Set[str]] = None
    if options.select is not None:
        select = {
            part.strip()
            for part in options.select.split(",")
            if part.strip()
        }
        known = set(rule_ids())
        unknown = select - known
        if unknown:
            parser.error(
                "unknown rule id(s): " + ", ".join(sorted(unknown))
                + "; known: " + ", ".join(sorted(known))
            )
        if not select:
            # An effectively-empty --select ("" or ",") used to run
            # zero rules and exit 0 — a green lint that checked nothing.
            parser.error(
                "--select matched no rules; known: "
                + ", ".join(sorted(known))
            )
    paths = list(options.paths) or _default_paths()
    for path in paths:
        if not os.path.exists(path):
            parser.error(f"no such file or directory: {path}")
    findings = lint_paths(paths, select=select)
    output = render_findings(findings, fmt=options.format)
    if output:
        print(output)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
