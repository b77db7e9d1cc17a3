"""Per-tenant state: a private id space, database, session, and views.

A :class:`Tenant` bundles everything one customer of the
:class:`~repro.service.service.CertaintyService` owns:

* a **private** :class:`~repro.store.intern.InternTable` — the tenant's
  constant id space.  Nothing the tenant interns ever enters the process
  -global table or another tenant's table, so tenants cannot observe each
  other's constants (the isolation property the regression tests assert),
  and dropping the tenant releases the whole id space at once (the global
  table is append-only for the process lifetime);
* an :class:`~repro.model.database.UncertainDatabase` plus a scoped
  :class:`~repro.engine.session.CertaintySession` executing on a
  columnar store against the private table;
* a deferred :class:`~repro.incremental.manager.ViewManager`: a write
  pays no view maintenance beyond the session's O(1)-amortised index
  upkeep, and the next view read delivers what the writes left pending;
* a re-entrant lock serialising this tenant's mutations and decisions —
  the service's background workers and the caller's threads interleave
  *across* tenants, never within one;
* optionally a :class:`~repro.durability.DurableStore` (``durability_dir``)
  persisting every committed batch: construction over a non-empty
  directory *recovers* the tenant — the persisted state wins over the
  ``facts`` argument — and :meth:`Tenant.checkpoint` writes segment
  snapshots.  The durable tier logs facts as raw values, so the private
  table above is the tenant's only encoded copy of its data.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, List, Optional

from ..durability import DurableStore
from ..engine.cache import PlanCache
from ..engine.session import CertaintySession
from ..engine.shards import DeadlineExceeded, ShardedCertaintySession
from ..incremental.manager import ViewManager
from ..incremental.view import MaterializedCertainView
from ..model.atoms import Fact
from ..model.database import UncertainDatabase
from ..model.schema import DatabaseSchema
from ..query.conjunctive import ConjunctiveQuery
from ..store import InternTable
from ..workloads.streaming import MutationOp, apply_mutation
from .admission import AdmissionStats, AnswerSet


class Tenant:
    """One tenant's isolated certainty state (see the module docstring).

    Constructed by :meth:`CertaintyService.create_tenant`; user code
    normally goes through the service (which adds admission control), but
    every attribute here is a public read surface.
    """

    def __init__(
        self,
        tenant_id: str,
        facts: Iterable[Fact] = (),
        schema: Optional[DatabaseSchema] = None,
        plan_cache: Optional[PlanCache] = None,
        allow_exponential: bool = False,
        clock=None,
        durability_dir=None,
        durability_sync: str = "commit",
        shard_workers: Optional[int] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.intern_table = InternTable()
        self._clock = clock or time.monotonic
        self.durable: Optional[DurableStore] = None
        if durability_dir is not None:
            # Recover-or-fresh: a non-empty directory wins over the *facts*
            # argument (the persisted state IS the tenant's data); an empty
            # one adopts *facts* as the durable baseline.  The durable store
            # attaches before the session and view manager below, so its
            # changelog observer always runs first.
            self.durable = DurableStore(durability_dir, sync=durability_sync)
            if self.durable.mutation_version > 0 or self.durable.facts():
                self.db = self.durable.database(schema=schema)
            else:
                self.db = UncertainDatabase(facts, schema=schema)
            self.durable.attach(self.db)
        else:
            self.db = UncertainDatabase(facts, schema=schema)
        #: Optional supervised sharded session: open queries fan out over
        #: ``shard_workers`` worker processes with per-shard failure
        #: containment and graceful degradation (see
        #: :class:`~repro.engine.shards.ShardedCertaintySession`).  Its
        #: inline session is the tenant's session, so the database carries
        #: one index, which scans and lookups both read.
        self.sharded: Optional[ShardedCertaintySession] = None
        if shard_workers is not None:
            # The tenant's clock threads down to shard dispatch so ticket
            # deadlines and shard deadline checks share one timeline.
            self.sharded = ShardedCertaintySession(
                self.db,
                n_shards=shard_workers,
                allow_exponential=allow_exponential,
                plan_cache=plan_cache,
                intern_table=self.intern_table,
                clock=clock,
            )
            self.session = self.sharded.session
        else:
            self.session = CertaintySession(
                self.db,
                plan_cache=plan_cache,
                allow_exponential=allow_exponential,
                intern_table=self.intern_table,
            )
        self.views = ViewManager(self.db, session=self.session, deferred=True)
        self.admission_stats = AdmissionStats()
        self._lock = threading.RLock()
        self._closed = False

    # -- locking -----------------------------------------------------------------

    @property
    def lock(self) -> "threading.RLock":
        """The lock serialising this tenant's mutations and decisions."""
        return self._lock

    # -- queries -----------------------------------------------------------------

    def band(self, query: ConjunctiveQuery):
        """The complexity band of *query* (classified once, via the plan cache)."""
        return self.session.plan_for(query).band

    def execute(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> AnswerSet:
        """Decide *query* now, under the tenant lock.

        Returns the certain answers as a frozenset of constant tuples;
        Boolean queries encode their verdict as ``{()}`` / ``set()``.
        This is the thunk the admission controller runs — inline for the
        FO band, on a background worker otherwise.  *deadline* is an
        absolute monotonic instant threaded down to shard dispatch (when
        the tenant runs sharded); an expired deadline raises
        :class:`~repro.engine.shards.DeadlineExceeded` rather than
        returning a late answer.
        """
        with self._lock:
            self._check_open()
            if deadline is not None and self._clock() >= deadline:
                raise DeadlineExceeded(
                    f"tenant {self.tenant_id!r}: deadline expired before execution"
                )
            if query.is_boolean:
                certain = self.session.is_certain(
                    query, allow_exponential=allow_exponential
                )
                return frozenset({()}) if certain else frozenset()
            if self.sharded is not None:
                return frozenset(
                    self.sharded.certain_answers(
                        query,
                        allow_exponential=allow_exponential,
                        deadline=deadline,
                    )
                )
            return frozenset(
                self.session.certain_answers(
                    query, allow_exponential=allow_exponential
                )
            )

    # -- mutations ---------------------------------------------------------------

    def add(self, fact: Fact) -> None:
        """Insert one fact (tenant-locked)."""
        with self._lock:
            self._check_open()
            self.db.add(fact)

    def discard(self, fact: Fact) -> None:
        """Remove one fact (tenant-locked)."""
        with self._lock:
            self._check_open()
            self.db.discard(fact)

    def apply(self, batch: List[MutationOp]) -> None:
        """Apply a batch of mutation ops inside one ``db.batch()`` block.

        Observers (the session index, the view manager) receive one
        consolidated notification; the view manager merges the whole batch
        into its pending changelog.
        """
        with self._lock:
            self._check_open()
            with self.db.batch():
                for op in batch:
                    apply_mutation(self.db, op)

    # -- views -------------------------------------------------------------------

    def register_view(self, query: ConjunctiveQuery) -> MaterializedCertainView:
        """Materialize (and keep maintaining) the certain answers of *query*."""
        with self._lock:
            self._check_open()
            return self.views.register(query)

    def view_answers(self, query: ConjunctiveQuery) -> AnswerSet:
        """Read a registered view under the tenant lock (pending writes first)."""
        with self._lock:
            self._check_open()
            view = self.views.register(query)
            return view.answers

    # -- durability --------------------------------------------------------------

    def checkpoint(self) -> Optional[dict]:
        """Write a durable segment snapshot of this tenant's database now.

        Returns the checkpoint summary (see
        :meth:`~repro.durability.DurableStore.checkpoint`), or ``None``
        when the tenant was created without a ``durability_dir``.
        """
        with self._lock:
            self._check_open()
            if self.durable is None:
                return None
            return self.durable.checkpoint()

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict:
        """This tenant's memory, deferred-view and admission counters.

        ``blocks`` counts the live blocks of the session's columnar store,
        the tenant's only block index; ``intern_memory`` is the private
        table's :meth:`~repro.store.intern.InternTable.memory_stats` and
        ``store_memory`` the store's index footprint.
        """
        with self._lock:
            store = self.session.store
            return {
                "facts": len(self.db),
                "blocks": sum(
                    len(store.relation_columns(name).blocks)  # type: ignore[union-attr]
                    for name in store.relation_names()
                ),
                "mutation_version": self.db.mutation_version,
                "views": len(self.views.views),
                "pending_view_mutations": self.views.pending_mutations,
                "intern_memory": self.intern_table.memory_stats(),
                "store_memory": store.memory_stats(),
                "staleness": self.views.staleness_stats.as_dict(),
                "admission": self.admission_stats.as_dict(),
                "sharded": (
                    {
                        "n_shards": self.sharded.n_shards,
                        "degraded_mode": self.sharded.degraded_mode,
                        "worker_failures": self.sharded.stats.worker_failures,
                        "worker_restarts": self.sharded.stats.worker_restarts,
                        "degradations": self.sharded.stats.degradations,
                    }
                    if self.sharded is not None
                    else None
                ),
                "durability": (
                    {
                        "mutation_version": self.durable.mutation_version,
                        **self.durable.stats.as_dict(),
                    }
                    if self.durable is not None
                    else None
                ),
            }

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Detach the session and views from the database (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self.views.close()
            if self.sharded is not None:
                self.sharded.close()
            self.session.close()
            if self.durable is not None:
                self.durable.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"tenant {self.tenant_id!r} is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Tenant({self.tenant_id!r}, {len(self.db)} facts, "
            f"{len(self.intern_table)} constants, {state})"
        )
