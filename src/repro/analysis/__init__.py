"""repro-lint: static enforcement of the library's invariant contracts.

The codebase makes three promises its test suites pin behaviourally:
determinism (byte-identical rows and artifacts regardless of executor or
process interleaving), crash-safe I/O (every persistent byte written via
fsync-before-rename), and taxonomy-classified failure handling (every error
either retried as transient or counted as a permanent skip).  Tests catch
regressions in the code paths they exercise; this package catches the
*constructs* that create such regressions anywhere in the tree, at lint
time:

    PYTHONPATH=src python -m repro.analysis src tests benchmarks examples

Rules are small `ast` visitors registered in :data:`~repro.analysis.core.RULES`
(see :mod:`repro.analysis.rules`); intentional exceptions are annotated in
place with ``# repro-lint: disable=<RULE-ID> -- <reason>`` and audited by the
framework itself (malformed or stale suppressions are findings too).  The
rule catalogue with rationale lives in ``docs/lint-rules.md``.
"""

from repro.analysis.core import (
    RULES,
    AnalysisResult,
    FileContext,
    Finding,
    Rule,
    Suppression,
    run_paths,
)
from repro.analysis.reporters import render_json, render_rule_list, render_text

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "RULES",
    "Rule",
    "Suppression",
    "render_json",
    "render_rule_list",
    "render_text",
    "run_paths",
]
