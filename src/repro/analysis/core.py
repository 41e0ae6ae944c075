"""Framework of the ``repro-lint`` static checker.

The moving parts:

* :class:`Rule` — one named invariant check over a parsed file, registered
  via the :func:`rule` decorator into :data:`RULES`.  A rule declares the
  *scopes* it applies to (``src`` / ``tests`` / ``benchmarks``; empty means
  all), a one-line title and the rationale that ties it to the codebase
  contract it guards (rendered into ``docs/lint-rules.md``).
* :class:`FileContext` — everything a rule may inspect: the AST, the raw
  text, the file's scope, and the module-level string constants (so a rule
  can resolve ``os.environ.get(FAULT_PLAN_ENV)`` to its literal value).
* suppressions — ``# repro-lint: disable=RULE001 -- reason`` comments.  A
  suppression **must** carry at least one rule id and a reason; comments are
  extracted with :mod:`tokenize`, so the directive inside a string literal
  (e.g. a fixture snippet in the checker's own tests) is never mistaken for
  a live suppression.  A malformed directive is itself a finding
  (``SUP001``), as is a suppression that matched nothing (``SUP002``) —
  stale suppressions rot into false documentation, so they fail CI too.
* :func:`run_paths` — walk the given files/directories, run every
  applicable rule, resolve suppressions, and return an :class:`AnalysisResult`
  whose :attr:`~AnalysisResult.active` findings decide the exit code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "RULES",
    "Rule",
    "Suppression",
    "dotted_name",
    "iter_python_files",
    "rule",
    "run_paths",
    "scope_of",
]

#: Scopes a file can belong to; rules declare the subset they apply to.
SCOPES = ("src", "tests", "benchmarks")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)


@dataclass(frozen=True)
class Rule:
    """A registered invariant check (see the :func:`rule` decorator)."""

    rule_id: str
    title: str
    rationale: str
    scopes: frozenset[str]
    check: Callable[["FileContext"], Iterator[tuple[int, int, str]]] | None

    @property
    def family(self) -> str:
        return re.match(r"[A-Z]+", self.rule_id).group(0)

    def applies_to(self, scope: str) -> bool:
        return not self.scopes or scope in self.scopes


#: The rule registry, keyed by rule id, populated by importing
#: :mod:`repro.analysis.rules`.
RULES: dict[str, Rule] = {}

_RULE_ID_RE = re.compile(r"^[A-Z]{2,5}\d{3}$")


def rule(
    rule_id: str,
    title: str,
    rationale: str,
    scopes: Iterable[str] = (),
):
    """Register ``fn`` as the check of rule ``rule_id``.

    ``fn`` receives a :class:`FileContext` and yields
    ``(line, column, message)`` triples.  ``scopes`` restricts the rule to a
    subset of :data:`SCOPES`; empty applies everywhere.
    """
    if not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id {rule_id!r} must look like DET001")
    unknown = set(scopes) - set(SCOPES)
    if unknown:
        raise ValueError(f"rule {rule_id}: unknown scopes {sorted(unknown)}")

    def decorate(fn):
        if rule_id in RULES:
            raise ValueError(f"rule {rule_id} registered twice")
        RULES[rule_id] = Rule(
            rule_id=rule_id,
            title=title,
            rationale=rationale,
            scopes=frozenset(scopes),
            check=fn,
        )
        return fn

    return decorate


def register_meta_rule(rule_id: str, title: str, rationale: str) -> None:
    """Register a framework-implemented rule (no per-file check function)."""
    RULES[rule_id] = Rule(
        rule_id=rule_id, title=title, rationale=rationale, scopes=frozenset(), check=None
    )


# ------------------------------------------------------------- file context


@dataclass
class FileContext:
    """Everything the rules may inspect about one parsed file."""

    path: Path
    display_path: str
    scope: str
    text: str
    tree: ast.Module
    #: Module-level ``NAME = "literal"`` string constants, for resolving
    #: indirect knob names like ``os.environ.get(FAULT_PLAN_ENV)``.
    constants: dict[str, str] = field(default_factory=dict)

    def is_module(self, *suffixes: str) -> bool:
        """Whether this file's path ends with any of ``suffixes`` (posix)."""
        return any(self.display_path.endswith(suffix) for suffix in suffixes)

    def resolve_string(self, node: ast.expr) -> str | None:
        """The literal string ``node`` denotes, if statically resolvable."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        return None


def _module_constants(tree: ast.Module) -> dict[str, str]:
    constants: dict[str, str] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            value = statement.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                constants[target.id] = value.value
    return constants


def dotted_name(node: ast.expr) -> str | None:
    """``node`` as a dotted name string (``os.environ.get``), if it is one."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def scope_of(path: Path, root: Path) -> str:
    """The rule scope of ``path``: which top-level tree it belongs to."""
    try:
        parts = path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        parts = path.parts
    for part in parts:
        if part == "src":
            return "src"
        if part == "tests":
            return "tests"
        if part == "benchmarks":
            return "benchmarks"
    return "src"  # unknown trees get the strictest treatment


# ------------------------------------------------------------- suppressions


@dataclass
class Suppression:
    """One parsed ``# repro-lint: disable=... -- reason`` directive."""

    line: int  # the line whose findings it suppresses
    comment_line: int  # where the comment itself lives
    rule_ids: tuple[str, ...]
    reason: str
    used: bool = False


_MARKER_RE = re.compile(r"repro-lint\s*:")
_DIRECTIVE_RE = re.compile(
    r"repro-lint\s*:\s*disable=(?P<ids>[A-Z0-9, \t]+?)\s*--\s*(?P<reason>\S.*)$"
)

#: Rules implemented by the framework itself; not suppressable, or a bad
#: suppression could silence the report about itself.
META_RULES = ("SUP001", "SUP002")


def _comment_tokens(text: str) -> Iterator[tuple[int, str, bool]]:
    """``(line, comment_text, own_line)`` for every comment in ``text``.

    Uses :mod:`tokenize` so comments are distinguished from string contents —
    a directive spelled inside a fixture string is not a live suppression.
    ``own_line`` is True when the comment is the only thing on its line.
    """
    lines = text.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line_number, column = token.start
        before = lines[line_number - 1][:column] if line_number <= len(lines) else ""
        yield line_number, token.string, not before.strip()


def parse_suppressions(text: str) -> tuple[list[Suppression], list[tuple[int, str]]]:
    """All suppressions in ``text`` plus the malformed directives.

    A directive on a code line suppresses that line; a directive on a
    comment-only line suppresses the next line (for statements too long to
    share a line with their justification).
    """
    suppressions: list[Suppression] = []
    malformed: list[tuple[int, str]] = []
    for line_number, comment, own_line in _comment_tokens(text):
        if not _MARKER_RE.search(comment):
            continue
        match = _DIRECTIVE_RE.search(comment)
        if not match:
            malformed.append(
                (
                    line_number,
                    "malformed repro-lint directive: expected "
                    "'# repro-lint: disable=<RULE-ID>[,<RULE-ID>...] -- <reason>'",
                )
            )
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        bogus = [rid for rid in rule_ids if rid not in RULES or rid in META_RULES]
        if not rule_ids or bogus:
            malformed.append(
                (
                    line_number,
                    f"suppression names unknown or unsuppressable rule ids {bogus or rule_ids}",
                )
            )
            continue
        suppressions.append(
            Suppression(
                line=line_number + 1 if own_line else line_number,
                comment_line=line_number,
                rule_ids=rule_ids,
                reason=match.group("reason").strip(),
            )
        )
    return suppressions, malformed


# ------------------------------------------------------------------ driving


@dataclass
class AnalysisResult:
    """Everything one run produced, before rendering."""

    root: Path
    paths: list[str]
    files_scanned: int
    active: list[Finding]
    suppressed: list[tuple[Finding, Suppression]]

    @property
    def clean(self) -> bool:
        return not self.active


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files are taken as given), sorted."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = path.rglob("*.py")
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(sorted(collected))


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_file(path: Path, root: Path) -> tuple[list[Finding], list[tuple[Finding, Suppression]]]:
    """Run every applicable rule over ``path``; resolve its suppressions."""
    display = _display_path(path, root)
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        finding = Finding(
            rule_id="SUP001",
            path=display,
            line=error.lineno or 1,
            column=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], []
    context = FileContext(
        path=path,
        display_path=display,
        scope=scope_of(path, root),
        text=text,
        tree=tree,
        constants=_module_constants(tree),
    )

    raw: list[Finding] = []
    for registered in RULES.values():
        if registered.check is None or not registered.applies_to(context.scope):
            continue
        for line, column, message in registered.check(context):
            raw.append(
                Finding(
                    rule_id=registered.rule_id,
                    path=display,
                    line=line,
                    column=column,
                    message=message,
                )
            )

    suppressions, malformed = parse_suppressions(text)
    by_line: dict[int, list[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)

    active: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    for finding in raw:
        match = next(
            (
                suppression
                for suppression in by_line.get(finding.line, ())
                if finding.rule_id in suppression.rule_ids
            ),
            None,
        )
        if match is not None:
            match.used = True
            suppressed.append((finding, match))
        else:
            active.append(finding)

    for line, message in malformed:
        active.append(Finding("SUP001", display, line, 0, message))
    for suppression in suppressions:
        if not suppression.used:
            active.append(
                Finding(
                    "SUP002",
                    display,
                    suppression.comment_line,
                    0,
                    f"suppression of {', '.join(suppression.rule_ids)} matched no finding; "
                    "remove it (stale suppressions read as false documentation)",
                )
            )
    return active, suppressed


def run_paths(paths: Sequence[str | Path], root: Path | None = None) -> AnalysisResult:
    """Run the checker over ``paths`` and return the collected result."""
    import repro.analysis.rules  # noqa: F401  (registers the rule set)

    root = Path.cwd() if root is None else root
    resolved = [Path(p) for p in paths]
    active: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    files = 0
    for path in iter_python_files(resolved):
        files += 1
        file_active, file_suppressed = check_file(path, root)
        active.extend(file_active)
        suppressed.extend(file_suppressed)
    active.sort(key=Finding.sort_key)
    suppressed.sort(key=lambda pair: pair[0].sort_key())
    return AnalysisResult(
        root=root,
        paths=[str(p) for p in paths],
        files_scanned=files,
        active=active,
        suppressed=suppressed,
    )


register_meta_rule(
    "SUP001",
    "Malformed suppression",
    "A `# repro-lint:` directive that does not parse, names an unknown rule id, or "
    "omits the mandatory `-- reason` is an error: a suppression without a stated "
    "rationale is indistinguishable from a silenced bug. (Also reported when a "
    "scanned file fails to parse.)",
)
register_meta_rule(
    "SUP002",
    "Unused suppression",
    "A suppression that matches no finding is stale: the code it excused has "
    "changed, and leaving it invites the next real finding on that line to be "
    "silently swallowed.",
)
