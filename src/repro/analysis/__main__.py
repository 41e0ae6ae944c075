"""CLI of the repro-lint checker.

Usage::

    PYTHONPATH=src python -m repro.analysis src tests benchmarks examples
    PYTHONPATH=src python -m repro.analysis --format json src
    PYTHONPATH=src python -m repro.analysis --list-rules

Exit codes: 0 clean, 1 findings, 2 usage error — the CI ``static-analysis``
job gates on a clean run over the whole tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import run_paths
from repro.analysis.reporters import render_json, render_rule_list, render_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static checker for the library's determinism, I/O-hardening "
        "and concurrency contracts.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to check")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings with their reasons (text format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--root",
        default=".",
        help="directory paths are reported relative to (default: cwd)",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        import repro.analysis.rules  # noqa: F401  (registers the rule set)

        print(render_rule_list())
        return 0
    if not options.paths:
        parser.error("no paths given (try: src tests benchmarks)")

    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    result = run_paths(options.paths, root=Path(options.root))
    if options.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=options.verbose))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
