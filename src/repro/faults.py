"""Deterministic fault injection for the robustness (chaos) suite.

The differential fuzz suite proves mutation *correctness*; this module is its
counterpart for *failure*: a :class:`FaultPlan` describes, as pure data, which
faults fire where — "on the 3rd hit of scope ``unit.body``, raise an
``OSError``", "on the 1st hit of ``checkpoint.append``, tear the write and
``SIGKILL`` the process" — and the hardened subsystems call
:func:`fault_step` at their injection points.  With no plan installed the
hook is a single module-level ``None`` check, so production code pays nothing.

Scopes instrumented across the library (:data:`FAULT_SCOPES`; a rule naming
any other scope is rejected, since nothing would ever hit it):

========================  ====================================================
``unit.body``             sweep-runner work-unit execution (``execute_unit``)
``checkpoint.append``     one checkpoint-store JSONL append
``artifact.write``        one atomic text or npz write (``save_model``)
``engine.batch``          one model ``predict_proba`` invocation
``serve.request``         one explanation-service request execution
========================  ====================================================

Fault kinds:

``error``
    Raise :class:`InjectedFault` (transient, an ``OSError`` with a settable
    errno; the default ``EIO`` exercises retry).
``kill``
    Die on the spot: ``SIGKILL`` to self (``exit_code=-1``, the default) or
    ``os._exit(exit_code)``.  Under the ``processes`` executor this breaks
    the pool exactly like a real worker crash.
``delay``
    Sleep ``delay`` seconds — long enough to trip a per-unit deadline.
``torn``
    Returned to the caller as a :class:`FaultAction` instead of being
    performed here: the checkpoint store writes half a line and kills the
    process.

Plans install process-wide via :func:`install_plan`, which also exports the
plan to the ``REPRO_FAULT_PLAN`` environment variable so process-pool workers
inherit it; a worker that never saw ``install_plan`` lazily parses the env
var on its first :func:`fault_step`.  Rules are deterministic — per-scope hit
counters, not randomness — and a rule with ``once_key`` set coordinates
across processes through a marker file in the plan's ``state_dir``: the first
process to reach the rule creates the marker *before* firing (a kill cannot
un-create it), every later process skips, which is how a chaos test arranges
"exactly one worker crash, then success".
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro import env
from repro.exceptions import ReproError, TransientError

#: Environment variable carrying a JSON-serialised plan to worker processes
#: (declared in :mod:`repro.env`).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The fault kinds a rule may request.
FAULT_KINDS = ("error", "kill", "delay", "torn")

#: The scopes that call :func:`fault_step`, in the docstring table's order.
FAULT_SCOPES = ("unit.body", "checkpoint.append", "artifact.write", "engine.batch", "serve.request")


class FaultPlanError(ReproError):
    """Raised for malformed fault plans (bad kind or scope, unparseable JSON)."""


class InjectedFault(TransientError, OSError):
    """The error an ``error`` rule raises: transient, with a real errno."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: fire ``kind`` on hits [``step``, ``step+times``).

    ``step`` is 1-based over the per-process hit counter of ``scope``;
    ``times <= 0`` means "every hit from ``step`` on".  ``once_key`` (with
    the plan's ``state_dir``) limits the rule to a single firing across all
    processes sharing the plan.
    """

    scope: str
    kind: str = "error"
    step: int = 1
    times: int = 1
    errno_code: int = errno.EIO
    delay: float = 0.0
    exit_code: int = -1
    once_key: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}")
        if self.scope not in FAULT_SCOPES:
            raise FaultPlanError(f"unknown fault scope {self.scope!r}; available: {FAULT_SCOPES}")

    def matches(self, hit: int) -> bool:
        """Whether the rule fires on the ``hit``-th hit of its scope."""
        if hit < self.step:
            return False
        return self.times <= 0 or hit < self.step + self.times

    def as_dict(self) -> dict[str, object]:
        return {
            "scope": self.scope,
            "kind": self.kind,
            "step": self.step,
            "times": self.times,
            "errno_code": self.errno_code,
            "delay": self.delay,
            "exit_code": self.exit_code,
            "once_key": self.once_key,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultRule":
        try:
            return cls(
                scope=str(payload["scope"]),
                kind=str(payload.get("kind", "error")),
                step=int(payload.get("step", 1)),
                times=int(payload.get("times", 1)),
                errno_code=int(payload.get("errno_code", errno.EIO)),
                delay=float(payload.get("delay", 0.0)),
                exit_code=int(payload.get("exit_code", -1)),
                once_key=str(payload.get("once_key", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault rule {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultAction:
    """A caller-handled fault (kind ``torn``)."""

    kind: str
    rule: FaultRule


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s plus cross-process state."""

    rules: tuple[FaultRule, ...] = ()
    state_dir: str = ""

    def to_json(self) -> str:
        payload = {"rules": [rule.as_dict() for rule in self.rules], "state_dir": self.state_dir}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"unparseable fault plan: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("rules"), list):
            raise FaultPlanError(f"fault plan must be an object with a rule list: {text!r}")
        rules = tuple(FaultRule.from_dict(rule) for rule in payload["rules"])
        return cls(rules=rules, state_dir=str(payload.get("state_dir", "")))

    # -------------------------------------------------------------- firing

    def _claim_once(self, rule: FaultRule) -> bool:
        """Atomically claim a ``once_key`` rule; False when already fired."""
        if not rule.once_key:
            return True
        if not self.state_dir:
            return True  # no shared state: degrade to per-process once
        marker = Path(self.state_dir) / f"fired-{rule.once_key}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            with open(marker, "x", encoding="utf-8"):  # repro-lint: disable=IOH001 -- O_EXCL creation IS the atomic cross-process claim; the marker carries no data, so the fsync-before-rename contract does not apply
                pass
        except FileExistsError:
            return False
        except OSError:
            return True  # unreadable state dir: fire rather than silently skip
        return True

    def hit(self, scope: str, counters: dict[str, int]) -> FaultAction | None:
        """Record one hit of ``scope`` and perform/return the matching fault."""
        count = counters.get(scope, 0) + 1
        counters[scope] = count
        for rule in self.rules:
            if rule.scope != scope or not rule.matches(count):
                continue
            if not self._claim_once(rule):
                continue
            if rule.kind == "error":
                raise InjectedFault(
                    rule.errno_code,
                    f"injected fault at {scope} (hit {count})",
                )
            if rule.kind == "kill":
                kill_process(rule.exit_code)
            if rule.kind == "delay":
                time.sleep(rule.delay)
                return None
            return FaultAction(kind=rule.kind, rule=rule)
        return None


def kill_process(exit_code: int = -1) -> None:
    """Die immediately: ``SIGKILL`` to self (``-1``) or ``os._exit(code)``.

    No cleanup handlers, no atexit, no flushing — the point is to leave
    exactly the wreckage a real crash would.
    """
    if exit_code < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(exit_code)


# ------------------------------------------------------------- process state

_ACTIVE_PLAN: FaultPlan | None = None
_COUNTERS: dict[str, int] = {}
#: Cache of the last env-var parse: (raw text, parsed plan).
_ENV_CACHE: tuple[str | None, FaultPlan | None] = (None, None)


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide and export it for worker processes.

    Resets the per-process hit counters.  ``None`` clears both the module
    state and the ``REPRO_FAULT_PLAN`` environment variable.
    """
    global _ACTIVE_PLAN, _ENV_CACHE
    _ACTIVE_PLAN = plan
    _COUNTERS.clear()
    _ENV_CACHE = (None, None)
    if plan is None:
        env.unset(FAULT_PLAN_ENV)
    else:
        env.set_raw(FAULT_PLAN_ENV, plan.to_json())


def clear_plan() -> None:
    """Remove any installed plan (alias for ``install_plan(None)``)."""
    install_plan(None)


def active_plan() -> FaultPlan | None:
    """The installed plan, or the one carried by ``REPRO_FAULT_PLAN``.

    Worker processes never call :func:`install_plan`; they inherit the env
    var and parse it here, lazily, caching per raw value.  An unparseable
    env plan raises :class:`FaultPlanError` — a chaos run with a broken plan
    must not silently run fault-free.
    """
    global _ENV_CACHE
    if _ACTIVE_PLAN is not None:
        return _ACTIVE_PLAN
    raw = env.read_str(FAULT_PLAN_ENV) or None
    if raw is None:
        return None
    cached_raw, cached_plan = _ENV_CACHE
    if raw != cached_raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


def fault_step(scope: str) -> FaultAction | None:
    """The injection hook: one hit of ``scope`` against the active plan.

    Returns ``None`` (the overwhelmingly common case, and always when no
    plan is installed), raises :class:`InjectedFault`, kills the process,
    sleeps, or returns a :class:`FaultAction` the caller must enact
    (``torn``).
    """
    if _ACTIVE_PLAN is None and not env.is_set(FAULT_PLAN_ENV):
        return None
    plan = active_plan()
    if plan is None:
        return None
    return plan.hit(scope, _COUNTERS)


def scope_hits(scope: str) -> int:
    """How many times ``scope`` has been hit in this process (test support)."""
    return _COUNTERS.get(scope, 0)
