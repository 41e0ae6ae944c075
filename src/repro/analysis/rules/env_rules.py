"""ENV — environment-knob discipline.

Every ``REPRO_*`` variable is declared once in :mod:`repro.env` (name, type,
default, docstring) and read through its typed accessors; the README table is
generated from that registry.  These rules make the discipline mechanical:
``ENV001`` catches reads that bypass the registry, ``ENV002`` catches
accessor calls naming a knob the registry does not declare.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, dotted_name, rule

#: The accessor functions of :mod:`repro.env`.
_ACCESSORS = frozenset(
    {"knob", "knobs", "is_set", "read_str", "read_int", "read_bool", "set_raw", "unset"}
)

#: Dotted spellings of a read of ``os.environ``.
_ENV_READ_CALLS = frozenset({"os.environ.get", "os.getenv", "environ.get", "getenv"})


def _knob_argument(context: FileContext, node: ast.expr) -> str | None:
    """The knob name ``node`` denotes, when it is statically a ``REPRO_*`` name.

    Resolves string literals and module-level constants; an unresolvable
    ``Name`` ending in ``_ENV`` is treated as a knob by convention (that is
    how modules alias their knob names, e.g. ``FAULT_PLAN_ENV``).
    """
    resolved = context.resolve_string(node)
    if resolved is not None:
        return resolved if resolved.startswith("REPRO_") else None
    if isinstance(node, ast.Name) and node.id.endswith("_ENV"):
        return node.id
    return None


def _registered_knobs() -> frozenset[str]:
    from repro import env

    return frozenset(declared.name for declared in env.knobs())


_MESSAGE_ENV001 = (
    "read of {name} bypasses the repro.env registry; declare the knob there "
    "and use env.read_str/read_int/read_bool"
)


@rule(
    "ENV001",
    "Direct `REPRO_*` environment read",
    "A `REPRO_*` variable read straight from `os.environ` has no declared "
    "type, no declared default, and never appears in the generated README "
    "table — the knob exists only for whoever greps for it. All reads go "
    "through the typed accessors of `repro.env` (which is itself the sole "
    "exemption). Writes are not flagged: tests scope them via "
    "`monkeypatch.setenv`, and `env.set_raw` is the sanctioned runtime path.",
)
def check_direct_env_read(context: FileContext) -> Iterator[tuple[int, int, str]]:
    if context.is_module("src/repro/env.py"):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee in _ENV_READ_CALLS and node.args:
                name = _knob_argument(context, node.args[0])
                if name is not None:
                    yield node.lineno, node.col_offset, _MESSAGE_ENV001.format(name=name)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if dotted_name(node.value) in ("os.environ", "environ"):
                name = _knob_argument(context, node.slice)
                if name is not None:
                    yield node.lineno, node.col_offset, _MESSAGE_ENV001.format(name=name)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], (ast.In, ast.NotIn)) and dotted_name(
                node.comparators[0]
            ) in ("os.environ", "environ"):
                name = _knob_argument(context, node.left)
                if name is not None:
                    yield node.lineno, node.col_offset, _MESSAGE_ENV001.format(name=name)


@rule(
    "ENV002",
    "Accessor call with an unregistered knob",
    "`repro.env` raises `KeyError` for unregistered names at runtime; this "
    "rule moves the failure to lint time, where it names the file and line "
    "instead of whichever run first exercises the code path. Only statically "
    "resolvable knob names are checked.",
)
def check_unregistered_knob(context: FileContext) -> Iterator[tuple[int, int, str]]:
    registered = _registered_knobs()
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        parts = callee.split(".")
        if parts[-1] not in _ACCESSORS:
            continue
        if len(parts) > 1 and parts[-2] != "env":
            continue  # some other object's .get/.knob etc.
        if len(parts) == 1:
            continue  # bare name: cannot tell it is repro.env's accessor
        name = context.resolve_string(node.args[0])
        if name is not None and name not in registered:
            yield (
                node.lineno,
                node.col_offset,
                f"env.{parts[-1]}({name!r}) names a knob that repro.env does "
                "not register; declare it there (name, type, default, "
                "description) first",
            )
