"""Command line for reprolint: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (or warnings only), 1 error-severity findings,
2 unreadable/unparsable input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.engine import (
    PROJECT_RULES,
    RULES,
    LintConfig,
    exit_code,
    format_findings,
    run_paths,
)

# importing the package populates both rule registries
import repro.analysis as _analysis  # noqa: F401


def _parse_ids(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project-specific AST lint for the Quota/Seed codebase "
            "(per-file rules R1-R6, project concurrency rules R7-R11; "
            "see docs/DEVELOPMENT.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-scope",
        action="store_true",
        help="apply scoped rules (R2, R6, R11) to every linted file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint per-file rules in N worker processes "
        "(the project-wide pass stays in-process)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (both families) and exit",
    )
    return parser


def list_rules() -> str:
    lines = []
    for heading, registry in (
        ("per-file rules", RULES),
        ("project rules", PROJECT_RULES),
    ):
        lines.append(f"# {heading}")
        for rule_id, cls in registry.items():
            lines.append(f"{rule_id}  {cls.name} [{cls.severity}]")
            lines.append(f"    {cls.rationale}")
            if cls.example:
                lines.append(f"    e.g. {cls.example}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    select = _parse_ids(args.select)
    known = RULES.keys() | PROJECT_RULES.keys()
    unknown = (select or frozenset()) - known
    if unknown:
        print(f"unknown rule ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    config = LintConfig(
        select=select,
        ignore=_parse_ids(args.ignore) or frozenset(),
        restrict_scopes=not args.no_scope,
    )
    findings, errors = run_paths(args.paths, config, jobs=args.jobs)
    output = format_findings(findings, args.format)
    if output:
        print(output)
    for error in errors:
        print(error, file=sys.stderr)
    status = exit_code(findings, errors)
    if args.format == "text":
        noun = "finding" if len(findings) == 1 else "findings"
        extras = f", {len(errors)} unparsable file(s)" if errors else ""
        print(
            f"reprolint: {len(findings)} {noun}{extras}",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
