"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the library (or its test/benchmark harnesses)
reads is declared here once — name, type, default and a docstring — and read
through the typed accessors below.  Nothing else in the tree touches
``os.environ`` for a ``REPRO_*`` name: the ``ENV001`` rule of
:mod:`repro.analysis` flags any direct read, and ``ENV002`` flags accessor
calls naming an unregistered knob, so a knob cannot exist without appearing
in this registry (and therefore in the README table, which is generated from
it — see :func:`markdown_table` and the drift test in
``tests/test_analysis.py``).

Why a registry instead of scattered ``os.environ.get`` calls:

* one place documents every knob, its type and its default;
* parse failures degrade to the declared default the same way everywhere;
* the README's environment-variable table is *generated* from these
  declarations, so the docs cannot drift from the code;
* the static checker can mechanically prove no knob bypasses it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "EnvKnob",
    "is_set",
    "knob",
    "knobs",
    "markdown_table",
    "read_bool",
    "read_int",
    "read_str",
    "set_raw",
    "unset",
]

#: Raw string spellings read as ``True`` by :func:`read_bool`.
_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob.

    ``kind`` is the parse discipline (``str`` / ``int`` / ``bool``);
    ``default`` is returned when the variable is unset, blank or
    unparseable — a malformed knob never aborts a run, it degrades loudly
    in the docs' terms ("blank or malformed values fall back to the
    default").
    """

    name: str
    kind: str
    default: object
    description: str


_REGISTRY: dict[str, EnvKnob] = {}


def _register(name: str, kind: str, default: object, description: str) -> EnvKnob:
    if name in _REGISTRY:
        raise ValueError(f"environment knob {name!r} registered twice")
    declared = EnvKnob(name=name, kind=kind, default=default, description=description)
    _REGISTRY[name] = declared
    return declared


# ------------------------------------------------------------- declarations
# Keep alphabetical: the README table is generated in this order.

_register(
    "REPRO_BENCH_FAST",
    "bool",
    False,
    "Run the benchmark suites in their shrunken CI-sized configuration "
    "instead of the full workload.",
)
_register(
    "REPRO_CHAOS_SEED",
    "int",
    0,
    "Base seed of the chaos suite (`tests/test_chaos.py`); shifts every "
    "fault-injection workload so CI can sweep a seed matrix.",
)
_register(
    "REPRO_CHECKPOINT",
    "bool",
    False,
    "Persist completed benchmark work units to a JSONL checkpoint so an "
    "interrupted benchmark run resumes instead of restarting.",
)
_register(
    "REPRO_EXECUTOR",
    "str",
    "serial",
    "Sweep executor used by the benchmark harness: `serial` or `processes`. "
    "Rows are identical regardless of executor.",
)
_register(
    "REPRO_FAULT_PLAN",
    "str",
    "",
    "JSON-serialised `FaultPlan` transported to process-pool workers; "
    "installed via `repro.faults.install_plan`, never set by hand.",
)
_register(
    "REPRO_FULL",
    "bool",
    False,
    "Run the full paper-scale harness configuration (12 datasets, "
    "tau = 100) instead of the quick default.",
)


# --------------------------------------------------------------- accessors


def knob(name: str) -> EnvKnob:
    """The declaration of ``name``; ``KeyError`` for unregistered knobs."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"environment knob {name!r} is not registered in repro.env; "
            f"declare it there (name, type, default, description) first"
        ) from None


def knobs() -> Iterator[EnvKnob]:
    """All declared knobs, in registration (alphabetical) order."""
    return iter(_REGISTRY.values())


def is_set(name: str) -> bool:
    """Whether the (registered) knob ``name`` is present in the environment."""
    knob(name)
    return name in os.environ


def read_str(name: str) -> str:
    """The raw string value of ``name``, or its declared default when unset."""
    declared = knob(name)
    raw = os.environ.get(name)
    if raw is None:
        return str(declared.default)
    return raw


def read_int(name: str) -> int:
    """``name`` as an int; blank or malformed values fall back to the default."""
    declared = knob(name)
    raw = (os.environ.get(name) or "").strip()
    if not raw:
        return int(declared.default)  # type: ignore[call-overload]
    try:
        return int(raw)
    except ValueError:
        return int(declared.default)  # type: ignore[call-overload]


def read_bool(name: str) -> bool:
    """``name`` as a bool (``1``/``true``/``yes``/``on``, case-insensitive)."""
    declared = knob(name)
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return bool(declared.default)
    return raw.strip().lower() in _TRUE_VALUES


def set_raw(name: str, value: str) -> None:
    """Set the registered knob ``name`` in this process's environment.

    The one sanctioned write path (used by the fault layer to transport a
    plan to pool workers); tests use ``monkeypatch.setenv`` instead so the
    mutation is scoped.
    """
    knob(name)
    os.environ[name] = value


def unset(name: str) -> None:
    """Remove the registered knob ``name`` from the environment (if present)."""
    knob(name)
    os.environ.pop(name, None)


# ------------------------------------------------------------------- docs


def markdown_table() -> str:
    """The README environment-variable table, generated from the registry.

    ``tests/test_analysis.py`` asserts the README block between the
    ``<!-- env-table:start -->`` / ``<!-- env-table:end -->`` markers equals
    this output, so the documentation cannot drift from the declarations.
    """
    lines = [
        "| Variable | Type | Default | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for declared in knobs():
        if declared.kind == "bool":
            default = "`1`" if declared.default else "`0`"
        elif declared.kind == "str":
            default = f"`{declared.default}`" if declared.default else "*(unset)*"
        else:
            default = f"`{declared.default}`"
        lines.append(
            f"| `{declared.name}` | {declared.kind} | {default} | {declared.description} |"
        )
    return "\n".join(lines) + "\n"
