"""CONC — lock-discipline rules.

``ModelCache``, ``CheckpointStore`` and the prediction engine may be shared
across a caller's threads, and the serve layer runs explanation requests on
a thread pool.  Each of these objects keeps one lock and serialises its
callers on it (the frontier scheduler keeps one condition instead); no
per-key in-flight protocol sits on top.  Their invariants hold because every
mutation of shared state happens under the object's lock.
These rules check the discipline class-locally: state mutated under
``with self.<lock>:`` anywhere in a class must be mutated under it
everywhere (CONC001), and a non-reentrant ``threading.Lock`` must not be
re-acquired in the same function (CONC002).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, rule

#: Methods whose unguarded writes are construction, not shared-state mutation.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def _lock_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is ``self.X`` and ``X`` names a lock."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and "lock" in node.attr.lower()
    ):
        return node.attr
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``X`` when ``node`` is ``self.X`` or ``self.X[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutation_at(node: ast.AST) -> Iterator[tuple[str, int, int]]:
    """``(attr, line, col)`` when ``node`` itself is a ``self.<attr>`` mutation."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        for target in targets:
            elements = target.elts if isinstance(target, ast.Tuple) else [target]
            for element in elements:
                attr = _self_attr(element)
                if attr is not None:
                    yield attr, element.lineno, element.col_offset
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATORS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                yield attr, node.lineno, node.col_offset


def _walk_method(node: ast.AST, locked: bool) -> Iterator[tuple[str, int, int, bool]]:
    """``(attr, line, col, under_lock)`` for every self-attr mutation below ``node``."""
    if isinstance(node, ast.With):
        acquires = any(_lock_attr(item.context_expr) is not None for item in node.items)
        for item in node.items:
            yield from _walk_method(item, locked)
        for statement in node.body:
            yield from _walk_method(statement, locked or acquires)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # A nested callable runs later, possibly on another thread and
        # outside the lock; treat its body as unguarded.
        locked = False
    for found in _mutation_at(node):
        yield (*found, locked)
    for child in ast.iter_child_nodes(node):
        yield from _walk_method(child, locked)


@rule(
    "CONC001",
    "Lock-guarded attribute mutated without the lock",
    "If any method of a class mutates `self.X` inside `with self.<lock>:`, "
    "that attribute is declared shared state — every other mutation of it "
    "(outside `__init__`-like construction) must hold the same lock, or two "
    "threads can interleave a check-then-update and corrupt the "
    "cache/checkpoint invariants that exactly-once accounting depends on.",
)
def check_unguarded_mutation(context: FileContext) -> Iterator[tuple[int, int, str]]:
    for class_node in ast.walk(context.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        methods = [
            node
            for node in class_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        guarded: set[str] = set()
        unguarded: list[tuple[str, int, int, str]] = []
        for method in methods:
            for statement in method.body:
                for attr, line, column, locked in _walk_method(statement, False):
                    if locked:
                        guarded.add(attr)
                    elif method.name not in _CONSTRUCTORS:
                        unguarded.append((attr, line, column, method.name))
        for attr, line, column, method_name in unguarded:
            if attr in guarded:
                yield (
                    line,
                    column,
                    f"self.{attr} is mutated under the lock elsewhere in "
                    f"{class_node.name} but {method_name}() mutates it without "
                    "holding it; take the lock (or rename if it is not shared "
                    "state)",
                )


@rule(
    "CONC002",
    "Re-acquiring a non-reentrant lock",
    "`threading.Lock` is not reentrant: a nested `with self.<lock>:` inside a "
    "block that already holds the same lock deadlocks the thread on itself, "
    "which hangs every thread waiting on that lock (a serve worker pool, a "
    "caller's threads) rather than failing loudly.",
)
def check_nested_lock(context: FileContext) -> Iterator[tuple[int, int, str]]:
    def visit(node: ast.AST, held: frozenset[str]) -> Iterator[tuple[int, int, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            held = frozenset()  # nested callables run on their own stack state
        if isinstance(node, ast.With):
            acquired = {
                name
                for item in node.items
                if (name := _lock_attr(item.context_expr)) is not None
            }
            for name in acquired & held:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"with self.{name}: is nested inside a block already "
                    f"holding self.{name}; threading.Lock self-deadlocks",
                )
            held = held | acquired
        for child in ast.iter_child_nodes(node):
            yield from visit(child, held)

    yield from visit(context.tree, frozenset())
