"""Spans around calls into each layer's public functions, from outside ``src/``.

A :class:`Tracer` keeps spans in memory (name, start, end, parent span,
trial key or request id, thread) and :meth:`Tracer.write` dumps them as
JSON lines when the run ends.  :func:`install` wraps the public entry
points of every layer in place -- module attributes and class attributes,
so calls made from inside the package are traced too -- and returns the
tracer.  Nothing here is imported by the untraced pass.

Layer names are the package's modules; a span named ``"graphs.make_family"``
belongs to layer ``graphs``.  :func:`layer_metrics` turns the spans into
the ``<layer>.<metric>`` figures the benchmark reports:

* ``busy_s`` sums the spans that have no ancestor in the same layer, so a
  nested call (``RunPlan.replace`` constructing a ``RunPlan``) counts once;
* ``self_s`` is a span's duration minus the time its child spans cover,
  summed over the layer.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "key", "start", "end", "thread", "meta")

    def __init__(self, id_, parent, name, key, start, thread):
        self.id = id_
        self.parent = parent
        self.name = name
        self.key = key
        self.start = start
        self.end = start
        self.thread = thread
        self.meta: Optional[Dict[str, Any]] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
        }
        if self.meta:
            out["meta"] = self.meta
        return out


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_key(self) -> Optional[str]:
        """The trial key or request id of the innermost open span."""
        for span in reversed(self._stack()):
            if span.key is not None:
                return span.key
        return None

    def span(self, name: str, key: Optional[str] = None) -> "_OpenSpan":
        return _OpenSpan(self, name, key)

    def wrap(
        self,
        name: str,
        fn: Callable,
        meta: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``meta(result)`` annotates it."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if meta is not None:
                    span.meta = meta(result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: Any, attr: str, name: str, meta=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (a classmethod stays
        a classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, meta))
        else:
            wrapped = self.wrap(name, raw, meta)
        setattr(owner, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_key", "_span")

    def __init__(self, tracer: Tracer, name: str, key: Optional[str]):
        self._tracer = tracer
        self._name = name
        self._key = key

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        key = self._key
        if key is None and parent is not None:
            key = tracer.current_key()
        span = Span(
            next(tracer._ids),
            parent.id if parent is not None else None,
            self._name,
            key,
            time.perf_counter(),
            threading.get_ident(),
        )
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, *exc: Any) -> bool:
        span = self._span
        span.end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(span)
        return False


def _edge_meta(graph: Any) -> Dict[str, Any]:
    return {"directed_edges": int(getattr(graph, "m", 0))}


def _finished_meta(result: Any) -> Dict[str, Any]:
    return {"all_finished": bool(result.all_finished)}


def install() -> Tracer:
    """Trace every layer's public calls in this process; returns the tracer."""
    import repro.analysis.complexity as complexity
    import repro.graphs.arrays as graph_arrays
    import repro.plan as plan_module
    import repro.service.executor as executor
    import repro.sim.batch as batch
    import repro.sweeps.runner as runner
    from repro.plan import RunPlan
    from repro.sim.array_result import ArrayRunResult
    from repro.sim.fast_engine import VectorizedEngine
    from repro.sim.fast_phased import PhasedVectorizedEngine
    from repro.sweeps.frontier import TrialFrontier

    tracer = Tracer()
    tracer.patch(RunPlan, "__init__", "plan.init")
    tracer.patch(RunPlan, "from_json", "plan.from_json")
    tracer.patch(RunPlan, "replace", "plan.replace")
    tracer.patch(RunPlan, "build_graph", "graphs.build_graph", _edge_meta)
    # plan.py binds make_family by name at import; patch both bindings.
    tracer.patch(graph_arrays, "make_family", "graphs.make_family", _edge_meta)
    tracer.patch(plan_module, "make_family", "graphs.make_family", _edge_meta)
    tracer.patch(batch, "make_vectorized_engine", "engine.construct")
    tracer.patch(VectorizedEngine, "run", "engine.run", _finished_meta)
    tracer.patch(PhasedVectorizedEngine, "run", "engine.run", _finished_meta)
    tracer.patch(ArrayRunResult, "is_valid_mis", "result.is_valid_mis")
    tracer.patch(ArrayRunResult, "summary", "result.summary")
    tracer.patch(batch, "run_trials", "batch.run_trials")
    tracer.patch(batch, "run_planned_trial", "batch.run_planned_trial")
    tracer.patch(complexity, "trial_from_result", "analysis.trial_from_result")
    tracer.patch(TrialFrontier, "claim", "sweeps.claim")
    tracer.patch(TrialFrontier, "done", "sweeps.done")
    tracer.patch(runner, "execute_trial", "sweeps.execute_trial")
    tracer.patch(executor, "solve_payload", "service.exec")
    return tracer


def _layer_roots(spans: List[Span]) -> Dict[str, List[Span]]:
    """Per layer, the spans with no ancestor in the same layer."""
    by_id = {span.id: span for span in spans}
    roots: Dict[str, List[Span]] = {}
    for span in spans:
        layer = span.layer
        parent = by_id.get(span.parent)
        while parent is not None and parent.layer != layer:
            parent = by_id.get(parent.parent)
        if parent is None:
            roots.setdefault(layer, []).append(span)
    return roots


def _self_s(spans: List[Span], layer: str) -> float:
    child_s: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.duration
    return sum(
        span.duration - child_s.get(span.id, 0.0)
        for span in spans
        if span.layer == layer
    )


def _sum(spans: List[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def _count(spans: List[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer figures derivable from spans alone.

    Layers that did not run report zero; figures that need counters from
    outside the spans (sweep reports, service health) are added by the
    workload that has them.
    """
    roots = _layer_roots(spans)

    def busy(layer: str) -> float:
        return sum(span.duration for span in roots.get(layer, ()))

    graph_busy = busy("graphs")
    edges = sum(
        (span.meta or {}).get("directed_edges", 0)
        for span in roots.get("graphs", ())
    )
    return {
        "plan.calls": len(roots.get("plan", ())),
        "plan.busy_s": busy("plan"),
        "graphs.builds": len(roots.get("graphs", ())),
        "graphs.busy_s": graph_busy,
        "graphs.edges_per_s": edges / graph_busy if graph_busy else 0.0,
        "engine.constructs": _count(spans, "engine.construct"),
        "engine.construct_s": _sum(spans, "engine.construct"),
        "engine.runs": _count(spans, "engine.run"),
        "engine.run_s": _sum(spans, "engine.run"),
        "result.audit_s": busy("result"),
        "batch.calls": len(roots.get("batch", ())),
        "batch.busy_s": busy("batch"),
        "batch.self_s": _self_s(spans, "batch"),
        "analysis.flatten_s": busy("analysis"),
        "sweeps.claims": _count(spans, "sweeps.claim"),
        "sweeps.claim_s": _sum(spans, "sweeps.claim"),
        "sweeps.done_s": _sum(spans, "sweeps.done"),
        "sweeps.execute_s": _sum(spans, "sweeps.execute_trial"),
    }
