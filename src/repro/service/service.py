"""The multi-tenant certainty service: admission-controlled serving.

:class:`CertaintyService` hosts any number of :class:`~repro.service.tenant.Tenant`
objects — each with its own intern table, database, session, and
deferred views — behind one band-aware
:class:`~repro.service.admission.AdmissionController`:

>>> from repro.service import CertaintyService            # doctest: +SKIP
>>> with CertaintyService(max_workers=4) as svc:
...     svc.create_tenant("acme", facts=acme_facts)
...     ticket = svc.submit("acme", query)      # FO band: answered inline
...     answers = ticket.result(timeout=1.0)
...     svc.apply("acme", [("add", fact)])      # views defer to the next read
...     svc.stats()["totals"]

Design points:

* **One classification, one policy.**  ``submit`` classifies the query via
  the tenant's plan cache (memoised per shape) and hands the band to the
  controller: the FO band runs on the submitting thread, every harder band
  becomes a future on the shared bounded worker pool.
* **Per-tenant serialisation, cross-tenant parallelism.**  Every decision
  and mutation runs under its tenant's re-entrant lock, so a queued coNP
  decision never interleaves with that tenant's writes — but two tenants'
  work proceeds concurrently.
* **Writes are cheap, reads are exact.**  Mutations update the session's
  incremental index synchronously, but view maintenance waits: each
  tenant's deferred :class:`~repro.incremental.manager.ViewManager`
  delivers the pending mutations at the next view read, so every view
  read equals a cold recompute.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine.cache import PlanCache
from ..model.atoms import Fact
from ..model.schema import DatabaseSchema
from ..query.conjunctive import ConjunctiveQuery
from ..workloads.streaming import MutationOp
from .admission import AdmissionController, AdmissionTicket, AnswerSet
from .tenant import Tenant


class CertaintyService:
    """Admission-controlled, multi-tenant CERTAINTY(q) serving (see module doc)."""

    def __init__(
        self,
        max_workers: int = 2,
        queue_depth: int = 8,
        plan_cache_size: int = 256,
        allow_exponential: bool = True,
        clock=None,
        durability_dir=None,
        durability_sync: str = "commit",
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        shard_workers: Optional[int] = None,
    ) -> None:
        """Create an empty service.

        Parameters
        ----------
        max_workers / queue_depth:
            Worker-pool size and per-tenant queued-request cap of the
            admission controller.
        plan_cache_size:
            Size of each tenant's private plan cache.
        allow_exponential:
            Whether queued coNP-band requests may run the brute-force
            fallback.  ``True`` by default — the whole point of queueing
            is making the hard band servable without blocking the hot path.
        clock:
            Injectable monotonic clock of the admission controller and the
            tenants: request deadlines and breaker cooldowns read it.
        durability_dir:
            When set, every tenant persists through a
            :class:`~repro.durability.DurableStore` rooted at
            ``durability_dir/<tenant_id>``, and construction **recovers**
            every tenant whose subdirectory already holds a segment — a
            service restarted over the same directory comes back serving
            the last committed state of each tenant.
        durability_sync:
            Changelog fsync policy for durable tenants (``"commit"`` /
            ``"flush"`` / ``"never"``).
        breaker_threshold / breaker_cooldown:
            Per-tenant circuit breaker: after *breaker_threshold*
            consecutive queued-band failures (worker exceptions, request
            deadline expiries, or ``result(timeout)`` overruns) the
            tenant's heavy-band load is **shed**
            (:class:`~repro.service.admission.CircuitOpen`) for
            *breaker_cooldown* seconds, then one half-open probe decides
            whether to resume.  FO-band requests keep serving inline
            throughout.  ``breaker_threshold <= 0`` disables shedding.
        shard_workers:
            When set, every tenant serves open queries through a
            supervised :class:`~repro.engine.shards.ShardedCertaintySession`
            with this many worker processes — individual worker crashes
            are contained per shard and degrade gracefully instead of
            failing requests.
        """
        self._admission = AdmissionController(
            max_workers=max_workers,
            queue_depth=queue_depth,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            clock=clock,
        )
        self._shard_workers = shard_workers
        self._plan_cache_size = plan_cache_size
        self._allow_exponential = allow_exponential
        self._clock = clock
        self._durability_dir = Path(durability_dir) if durability_dir else None
        self._durability_sync = durability_sync
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._closed = False
        if self._durability_dir is not None and self._durability_dir.exists():
            for subdir in sorted(self._durability_dir.iterdir()):
                if subdir.is_dir() and any(subdir.glob("segment-*.seg")):
                    self.create_tenant(subdir.name)

    # -- tenant lifecycle --------------------------------------------------------

    def create_tenant(
        self,
        tenant_id: str,
        facts: Iterable[Fact] = (),
        schema: Optional[DatabaseSchema] = None,
    ) -> Tenant:
        """Provision an isolated tenant (private intern table and engine state).

        On a durable service (``durability_dir``), a tenant whose
        subdirectory already holds persisted state is *recovered* — the
        on-disk facts win over the *facts* argument.
        """
        self._check_open()
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} already exists")
            durability_dir = None
            if self._durability_dir is not None:
                durability_dir = self._durability_dir / tenant_id
            tenant = Tenant(
                tenant_id,
                facts=facts,
                schema=schema,
                plan_cache=PlanCache(maxsize=self._plan_cache_size),
                allow_exponential=self._allow_exponential,
                clock=self._clock,
                durability_dir=durability_dir,
                durability_sync=self._durability_sync,
                shard_workers=self._shard_workers,
            )
            self._tenants[tenant_id] = tenant
            return tenant

    def tenant(self, tenant_id: str) -> Tenant:
        """The tenant registered as *tenant_id* (KeyError if unknown)."""
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise KeyError(f"unknown tenant {tenant_id!r}") from None

    def drop_tenant(self, tenant_id: str) -> None:
        """Close and forget a tenant; its id space dies with it."""
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
        if tenant is not None:
            tenant.close()

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Registered tenant ids, in creation order."""
        with self._lock:
            return tuple(self._tenants)

    # -- serving -----------------------------------------------------------------

    def submit(
        self,
        tenant_id: str,
        query: ConjunctiveQuery,
        deadline: Optional[float] = None,
    ) -> AdmissionTicket:
        """Admit one certainty request for *tenant_id*.

        FO-band queries are answered inline (the returned ticket is already
        done); harder bands are queued onto the worker pool.  *deadline* —
        seconds from now — becomes an end-to-end request budget carried
        from the ticket through the tenant down to shard dispatch: an
        expired budget raises
        :class:`~repro.engine.shards.DeadlineExceeded` from the ticket's
        ``result()`` instead of returning a late answer.  Raises
        :class:`~repro.service.admission.AdmissionRejected` when the
        tenant's queue is at capacity and
        :class:`~repro.service.admission.CircuitOpen` while the tenant's
        circuit breaker sheds heavy-band load.
        """
        self._check_open()
        tenant = self.tenant(tenant_id)
        band = tenant.band(query)
        abs_deadline = (
            None if deadline is None else self._admission.now() + deadline
        )
        return self._admission.submit(
            tenant_id,
            query,
            band,
            lambda: tenant.execute(query, deadline=abs_deadline),
            tenant.admission_stats,
            deadline=abs_deadline,
        )

    def certain_answers(
        self,
        tenant_id: str,
        query: ConjunctiveQuery,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> AnswerSet:
        """Submit and wait: the certain answers of *query* for *tenant_id*.

        Boolean queries come back as ``{()}`` (certain) / ``set()`` (not).
        """
        return self.submit(tenant_id, query, deadline=deadline).result(timeout)

    def is_certain(
        self,
        tenant_id: str,
        query: ConjunctiveQuery,
        timeout: Optional[float] = None,
    ) -> bool:
        """Submit a Boolean query and wait for its certainty verdict."""
        return bool(self.certain_answers(tenant_id, query, timeout=timeout))

    # -- mutations ---------------------------------------------------------------

    def apply(self, tenant_id: str, batch: List[MutationOp]) -> None:
        """Apply a mutation batch to one tenant (its views defer to the next read)."""
        self._check_open()
        self.tenant(tenant_id).apply(batch)

    # -- durability --------------------------------------------------------------

    def checkpoint(self, tenant_id: str) -> Optional[dict]:
        """Write a durable segment snapshot of one tenant (``None`` if not durable)."""
        self._check_open()
        return self.tenant(tenant_id).checkpoint()

    def checkpoint_all(self) -> Dict[str, Optional[dict]]:
        """Checkpoint every tenant; maps tenant id → checkpoint summary."""
        self._check_open()
        with self._lock:
            tenants = list(self._tenants.values())
        return {t.tenant_id: t.checkpoint() for t in tenants}

    # -- observability -----------------------------------------------------------

    @property
    def admission(self) -> AdmissionController:
        """The shared admission controller (queue-depth introspection)."""
        return self._admission

    def stats(self) -> dict:
        """Per-tenant and aggregate service statistics.

        ``tenants`` maps tenant id → :meth:`Tenant.stats` (facts, intern
        memory, deferred-view and admission counters, live queue depth);
        ``totals`` sums the cross-tenant aggregates — total interned bytes,
        facts, pending view mutations, and every admission counter.
        """
        with self._lock:
            tenants = dict(self._tenants)
        per_tenant = {}
        totals = {
            "tenants": len(tenants),
            "facts": 0,
            "intern_constants": 0,
            "intern_bytes": 0,
            "pending_view_mutations": 0,
            "inline_served": 0,
            "queued": 0,
            "completed": 0,
            "cancelled": 0,
            "rejected": 0,
            "timeouts": 0,
            "abandoned": 0,
            "shed": 0,
            "breaker_opens": 0,
            "deadline_expired": 0,
        }
        for tenant_id, tenant in tenants.items():
            stats = tenant.stats()
            stats["queue_depth"] = self._admission.queue_depth(tenant_id)
            stats["breaker"] = self._admission.breaker_state(tenant_id)
            per_tenant[tenant_id] = stats
            totals["facts"] += stats["facts"]
            totals["intern_constants"] += stats["intern_memory"]["constants"]
            totals["intern_bytes"] += stats["intern_memory"]["total_bytes"]
            totals["pending_view_mutations"] += stats["pending_view_mutations"]
            for key in (
                "inline_served",
                "queued",
                "completed",
                "cancelled",
                "rejected",
                "timeouts",
                "abandoned",
                "shed",
                "breaker_opens",
                "deadline_expired",
            ):
                totals[key] += stats["admission"][key]
        return {
            "tenants": per_tenant,
            "totals": totals,
            "queue_depth_cap": self._admission.queue_depth_cap,
        }

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Drain the worker pool and close every tenant (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._admission.close()
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            tenant.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the service is closed")

    def __enter__(self) -> "CertaintyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"CertaintyService({len(self.tenants)} tenants, {state})"
