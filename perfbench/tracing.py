"""Spans around the public calls of each layer, installed from outside the library.

The benchmark times layers without touching ``src``: :class:`Tracer` swaps
each traced function or method for a wrapper that records one span per call
(name, start, end, parent span, thread, request id) and restores the
originals on exit.  Timed runs never install it, so they carry no overhead.

Module-level functions are patched where the caller looks them up (the
explainer imports ``find_open_triangles``, ``explore_lattices`` and
``perturbed_pair`` by name, the triangle search imports
``top_k_neighbours``), methods on their defining class.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

import repro.certa.explainer as explainer_module
import repro.certa.triangles as triangles_module
from repro.certa.explainer import CertaExplainer
from repro.data.indexing import SourceTokenIndex
from repro.models.base import ERModel
from repro.models.engine import PredictionEngine
from repro.serve.scheduler import FrontierScheduler

# Span fields, kept as a list per span so a wrapper costs two list stores.
NAME, START, END, PARENT, THREAD, REQUEST, CHILDREN = range(7)

#: (owner, attribute, span name) of every traced call.
TRACED_CALLS: tuple[tuple[Any, str, str], ...] = (
    (CertaExplainer, "explain_full", "explain"),
    (explainer_module, "find_open_triangles", "triangles"),
    (triangles_module, "top_k_neighbours", "index.top_k"),
    (SourceTokenIndex, "ensure_fresh", "index.fresh"),
    (explainer_module, "explore_lattices", "lattice"),
    (explainer_module, "perturbed_pair", "perturb"),
    (PredictionEngine, "predict_proba", "engine"),
    (ERModel, "predict_proba", "model"),
    (ERModel, "featurize", "featurize"),
    (FrontierScheduler, "predict_proba", "serve.frontier_wait"),
)


class Tracer:
    """Records spans while installed (use as a context manager).

    ``request_ids`` maps ``id(pair)`` of a submitted pair object to its
    request id; an ``explain`` span whose pair is registered there tags
    itself and every span nested under it with that id.  ``on_result``
    callbacks receive the return value of a traced call by span name.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_ids: dict[int, str] = {}
        self.on_result: dict[str, Callable[[Any], None]] = {}
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in TRACED_CALLS:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def _wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        spans = self.spans
        is_explain = name == "explain"

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request = parent[REQUEST] if parent is not None else ""
            if is_explain:
                request = tracer.request_ids.get(id(args[1]), request)
            span = [name, 0.0, 0.0, parent, threading.get_ident(), request, 0.0]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILDREN] += span[END] - span[START]
                spans.append(span)
            callback = tracer.on_result.get(name)
            if callback is not None:
                callback(result)
            return result

        return traced

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, total duration ``s`` and ``self_s``.

    A span's self time is its duration minus the time its direct children
    (same thread, strictly nested) cover.
    """
    summary: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span[NAME], {"count": 0, "s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["count"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - span[CHILDREN]
    return summary


def self_time_by_thread(spans: list[list]) -> dict[int, float]:
    """Summed self time of every span, per thread (each must fit in wall)."""
    totals: dict[int, float] = {}
    for span in spans:
        totals[span[THREAD]] = totals.get(span[THREAD], 0.0) + (
            span[END] - span[START] - span[CHILDREN]
        )
    return totals
