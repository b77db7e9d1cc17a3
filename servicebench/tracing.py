"""The traced run: span wrappers around layer boundaries, and the summary.

:func:`install` wraps public entry points of each layer *at runtime* — the
program under test is not modified — so every call records a
:class:`Span` (name, start, end, parent span, request id, thread) into an
in-memory list.  Work handed from a client thread to the service's worker
pool keeps its request id and parent through the admission controller's
``submit`` thunk.  :func:`layer_metrics` turns the spans, plus counter
deltas read from the service's stats objects, into the per-layer metrics;
a layer's self time is its duration minus the same-thread child spans.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

from .harness import percentile

#: Request id of spans recorded outside a client operation.
SETUP = "setup"
RESTART = "restart"


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], request: str) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.attrs: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: list = []

    # -- request scoping -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request(self) -> str:
        return getattr(self._local, "request", None) or SETUP

    def phase(self, request: str) -> None:
        """Attribute this thread's following spans to *request*."""
        self._local.request = request
        self._local.stack = []

    def start_request(self, request: str, kind: str) -> None:
        """Open the root span of one client operation."""
        self._local.request = request
        root = Span("op." + kind, None, request)
        self._local.stack = [root]
        root.start = time.perf_counter()

    def end_request(self, answers: Optional[int]) -> None:
        root = self._local.stack.pop()
        root.end = time.perf_counter()
        root.attrs = answers
        self.spans.append(root)
        self._local.request = None

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        under: Optional[str] = None,
    ) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *before(args)* runs ahead of the call; *after(args, result, state)*
        computes the span's ``attrs``.  With *under*, only calls made
        directly inside a span of that name are recorded.  Missing
        attributes are skipped, so the tracer keeps working when a layer
        is refactored away.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if under is not None and (not stack or stack[-1].name != under):
                return original(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, tracer._request())
            state = before(args) if before is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                span.attrs = after(args, result, state)
            return result

        self._patches.append((owner, attr, original, attr in owner.__dict__))
        setattr(owner, attr, traced)

    def wrap_handoff(self, owner: type, attr: str) -> None:
        """Carry the caller's request and span into the ``execute`` thunk
        that ``owner.attr(self, tenant_id, query, band, execute, ...)`` may
        run on a worker thread."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def handoff(controller, tenant_id, query, band, execute, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request = tracer._request()

            def traced_execute():
                local = tracer._local
                saved = (getattr(local, "stack", None), getattr(local, "request", None))
                local.stack = [parent] if parent is not None else []
                local.request = request
                try:
                    return execute()
                finally:
                    local.stack, local.request = saved

            return original(controller, tenant_id, query, band, traced_execute, *args, **kwargs)

        self._patches.append((owner, attr, original, attr in owner.__dict__))
        setattr(owner, attr, handoff)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


def _view_counters(args) -> Dict[str, int]:
    views = args[0].views
    return {
        "decisions": sum(v.stats.decisions for v in views),
        "refreshes": sum(v.stats.refreshes for v in views),
    }


def _view_delta(args, delivered, before) -> Dict[str, float]:
    views = args[0].views
    after = _view_counters(args)
    refreshed = after["refreshes"] > before["refreshes"]
    tracked = sum(len(v.tracked_candidates) for v in views)
    dirty = sum(v.stats.last_dirty for v in views) if refreshed else 0
    return {
        "delivered": bool(delivered),
        "decided": after["decisions"] - before["decisions"],
        "dirty_ratio": dirty / tracked if tracked else 0.0,
    }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are computed from."""
    from repro.durability.durable import DurableStore
    from repro.engine.cache import PlanCache
    from repro.engine.plan import QueryPlan
    from repro.engine.session import CertaintySession
    from repro.engine.shards import ShardedCertaintySession
    from repro.incremental.manager import ViewManager
    from repro.service.admission import AdmissionController
    from repro.service.service import CertaintyService
    from repro.service.tenant import Tenant
    from repro.store.index import ColumnarFactIndex

    wrap = tracer.wrap
    wrap(CertaintyService, "submit", "service.submit")
    tracer.wrap_handoff(AdmissionController, "submit")
    wrap(Tenant, "execute", "tenant.execute")
    wrap(Tenant, "apply", "tenant.apply")
    wrap(Tenant, "view_answers", "tenant.view_answers")
    wrap(
        PlanCache,
        "get_or_compile",
        "plan.get_or_compile",
        before=lambda args: len(args) > 1 and args[1] in args[0],
        after=lambda args, result, cached: not cached,
    )
    wrap(CertaintySession, "candidate_answers", "session.candidate_answers",
         after=lambda args, result, state: len(result))
    wrap(CertaintySession, "decide_candidates", "session.decide_candidates")
    wrap(CertaintySession, "solve", "session.solve")
    wrap(QueryPlan, "execute", "plan.execute", after=lambda args, result, state: args[0].method)
    # The columnar index has no batch hook: the database replays a batch
    # through the per-fact observer methods.  Solvers also index scratch
    # databases; only the tenant's write path is recorded.
    wrap(ColumnarFactIndex, "fact_added", "index.apply", under="tenant.apply")
    wrap(ColumnarFactIndex, "fact_discarded", "index.apply", under="tenant.apply")
    # ``flush()`` and the read path's bounded-staleness flush share ``_flush``.
    wrap(ViewManager, "_flush", "views.flush", before=_view_counters, after=_view_delta)
    wrap(DurableStore, "batch_applied", "durable.commit")
    wrap(DurableStore, "checkpoint", "durable.checkpoint")
    wrap(DurableStore, "__init__", "durable.open")
    wrap(ShardedCertaintySession, "certain_answers", "shards.certain_answers")
    wrap(ShardedCertaintySession, "_start_shard", "shards.start_shard")


# -- counters read from the stats objects ----------------------------------------


def _stat(obj, *path) -> float:
    """``obj`` followed along *path* (attributes or dict keys) as a number,
    or 0 when the layer no longer exposes it."""
    try:
        for step in path:
            obj = obj[step] if isinstance(obj, dict) else getattr(obj, step)
        return float(obj)
    except (AttributeError, KeyError, TypeError):
        return 0.0


SHARD_COUNTERS = (
    "shard_decides",
    "parent_decides",
    "cross_shard_fallbacks",
    "delta_bytes_shipped",
    "worker_restarts",
)


def counters(service) -> Dict[str, float]:
    """Counters and gauges summed over the service's tenants."""
    out: Dict[str, float] = defaultdict(float)
    totals = service.stats()["totals"]
    for key in ("inline_served", "queued", "rejected", "shed"):
        out["admission." + key] = _stat(totals, key)
    for name in service.tenants:
        tenant = service.tenant(name)
        for key in ("hits", "misses", "compiles"):
            out["plan." + key] += _stat(tenant, "session", "plan_cache", "stats", key)
        for view in getattr(tenant.views, "views", ()):
            out["views.full_refreshes"] += _stat(view, "stats", "full_refreshes")
        if tenant.sharded is not None:
            for key in SHARD_COUNTERS:
                out["shards." + key] += _stat(tenant.sharded, "stats", key)
        if tenant.durable is not None:
            out["durable.log_bytes"] += _stat(tenant.durable, "stats", "log_bytes_appended")
        memory = tenant.session.store.memory_stats()
        intern = tenant.intern_table.memory_stats()
        for key in ("column_bytes", "row_index_bytes", "block_index_bytes"):
            out["store.bytes"] += _stat(memory, key)
        out["store.bytes"] += _stat(intern, "total_bytes")
        out["store.intern_constants"] += _stat(intern, "constants")
        out["store.facts"] += len(tenant.db)
    return out


# -- the per-layer summary --------------------------------------------------------


def _mean_ms(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) * 1000 if values else 0.0


def _pct_ms(values: List[float], q: int) -> float:
    return percentile(values, q) * 1000 if values else 0.0


DECIDE_METHODS = {
    "fo-rewriting": "fo",
    "theorem3-terminal-cycles": "theorem3",
    "theorem4-cycle-query": "theorem4",
    "brute-force": "brute_force",
}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Seconds of same-thread child spans, keyed by ``id(parent)``."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        if parent is not None and parent.thread == span.thread:
            covered[id(parent)] += span.seconds
    return covered


def span_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self milliseconds per span name."""
    covered = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_ms"] += span.seconds * 1000
        row["self_ms"] += (span.seconds - covered.get(id(span), 0.0)) * 1000
    return dict(table)


def layer_metrics(
    tracer: Tracer,
    before: Dict[str, float],
    after: Dict[str, float],
    run: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric, keyed by its name (0 where a layer is idle).

    *before*/*after* are :func:`counters` around the traced replay; *run*
    carries the run-level figures: ``writes``, ``mutations``,
    ``error_rate``, ``restart_s``, disk bytes, and the tracing overhead.
    """
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
    spans = tracer.spans
    served = [s for s in spans if ":" in s.request]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in served:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[id(span.parent)].append(span)
    covered = self_times(served)

    queue_waits, lock_waits = [], []
    for span in by_name["tenant.execute"]:
        parent = span.parent
        if parent is not None and parent.name == "service.submit" and parent.thread != span.thread:
            queue_waits.append(span.start - parent.start)
        inner = [c.start for c in children[id(span)] if c.thread == span.thread]
        if inner:
            lock_waits.append(min(inner) - span.start)

    compiles = [s for s in by_name["plan.get_or_compile"] if s.attrs]
    candidate_spans = by_name["session.candidate_answers"]
    memo_hits = sum(
        1 for s in candidate_spans if not any(c.name == "plan.get_or_compile" for c in children[id(s)])
    )
    scans = {s.request: s for s in by_name["op.scan"]}
    scan_candidates = sum(s.attrs for s in candidate_spans if s.request in scans)
    scan_answers = sum(s.attrs or 0 for s in scans.values())

    # Decide time per solver: the outermost decide span of each call chain,
    # labelled by the plan method that ran beneath it (the batched FO path
    # runs no per-candidate plan).
    decide_names = ("plan.execute", "session.decide_candidates")
    tops: Dict[int, Span] = {}
    labels: Dict[int, str] = {}
    for name in decide_names:
        for span in by_name[name]:
            top, node = span, span.parent
            while node is not None:
                if node.name in decide_names:
                    top = node
                node = node.parent
            tops[id(top)] = top
            if span.name == "plan.execute":
                labels.setdefault(id(top), span.attrs)
    decide: Dict[str, List[float]] = defaultdict(list)
    for key, top in tops.items():
        method = DECIDE_METHODS.get(labels.get(key, "fo-rewriting"), "fo")
        decide[method].append(top.seconds)

    applies = by_name["tenant.apply"]

    def per_apply(name: str) -> float:
        if not applies:
            return 0.0
        return _mean_ms(sum(c.seconds for c in children[id(s)] if c.name == name) for s in applies)

    flushes = [s for s in by_name["views.flush"] if s.attrs and s.attrs["delivered"]]
    shard_total = delta.get("shards.shard_decides", 0.0) + delta.get("shards.parent_decides", 0.0)
    plan_lookups = delta.get("plan.hits", 0.0) + delta.get("plan.misses", 0.0)
    admitted = delta.get("admission.inline_served", 0.0) + delta.get("admission.queued", 0.0)
    facts = after.get("store.facts", 0.0)
    writes = run.get("writes", 0)

    metrics = {
        "service.queue_wait_p50_ms": _pct_ms(queue_waits, 50),
        "service.queue_wait_p90_ms": _pct_ms(queue_waits, 90),
        "service.lock_wait_p50_ms": _pct_ms(lock_waits, 50),
        "service.lock_wait_p90_ms": _pct_ms(lock_waits, 90),
        "service.inline_ratio": delta.get("admission.inline_served", 0.0) / admitted if admitted else 0.0,
        "service.rejected": delta.get("admission.rejected", 0.0),
        "service.shed": delta.get("admission.shed", 0.0),
        "service.error_rate": run.get("error_rate", 0.0),
        "engine.plan.hit_ratio": delta.get("plan.hits", 0.0) / plan_lookups if plan_lookups else 0.0,
        "engine.plan.compiles": delta.get("plan.compiles", 0.0),
        "engine.plan.compile_ms": _mean_ms(s.seconds for s in compiles),
        "engine.candidates_ms": _mean_ms(s.seconds for s in candidate_spans),
        "engine.candidates.memo_hit_ratio": memo_hits / len(candidate_spans) if candidate_spans else 0.0,
        "engine.candidates_per_answer": scan_candidates / scan_answers if scan_answers else 0.0,
        "engine.decide.fo_ms": _mean_ms(decide["fo"]),
        "engine.decide.theorem3_ms": _mean_ms(decide["theorem3"]),
        "engine.decide.theorem4_ms": _mean_ms(decide["theorem4"]),
        "engine.decide.brute_force_ms": _mean_ms(decide["brute_force"]),
        "store.index_apply_ms": per_apply("index.apply"),
        "store.bytes_per_fact": after.get("store.bytes", 0.0) / facts if facts else 0.0,
        "store.intern_constants": after.get("store.intern_constants", 0.0),
        "model.apply_self_ms": _mean_ms(s.seconds - covered.get(id(s), 0.0) for s in applies),
        "incremental.flush_ms": _mean_ms(s.seconds for s in flushes),
        "incremental.redecided_per_flush": (
            statistics.fmean(s.attrs["decided"] for s in flushes) if flushes else 0.0
        ),
        "incremental.dirty_ratio": (
            statistics.fmean(s.attrs["dirty_ratio"] for s in flushes) if flushes else 0.0
        ),
        "incremental.full_refreshes": delta.get("views.full_refreshes", 0.0),
        "durability.commit_ms": per_apply("durable.commit"),
        "durability.wal_bytes_per_op": (
            delta.get("durable.log_bytes", 0.0) / run["mutations"] if run.get("mutations") else 0.0
        ),
        "durability.checkpoint_ms": _mean_ms(s.seconds for s in by_name["durable.checkpoint"]),
        "durability.recover_ms": _mean_ms(
            s.seconds for s in spans if s.name == "durable.open" and s.request == RESTART
        ),
        "durability.restart_s": run.get("restart_s", 0.0),
        "durability.segment_bytes": run.get("segment_bytes", 0.0),
        "durability.wal_bytes": run.get("wal_bytes", 0.0),
        "durability.disk_bytes_per_fact": run.get("disk_bytes_per_fact", 0.0),
        "shards.dispatch_ms": _mean_ms(s.seconds for s in by_name["shards.certain_answers"]),
        "shards.shard_decides": delta.get("shards.shard_decides", 0.0),
        "shards.parent_decides": delta.get("shards.parent_decides", 0.0),
        "shards.shard_decide_ratio": (
            delta.get("shards.shard_decides", 0.0) / shard_total if shard_total else 0.0
        ),
        "shards.cross_shard_fallbacks": delta.get("shards.cross_shard_fallbacks", 0.0),
        "shards.delta_bytes_per_write": delta.get("shards.delta_bytes_shipped", 0.0) / writes if writes else 0.0,
        "shards.worker_restarts": delta.get("shards.worker_restarts", 0.0),
        "shards.bootstrap_ms": _mean_ms(
            s.seconds for s in spans if s.name == "shards.start_shard" and s.request == SETUP
        ),
        "trace.spans": float(len(spans)),
    }
    for key in ("trace.overhead_pct", "trace.scan_p50_overhead_pct",
                "trace.read_p50_overhead_pct", "trace.write_p50_overhead_pct"):
        metrics[key] = run.get(key, 0.0)
    return metrics
