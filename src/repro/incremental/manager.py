"""The view manager: database observer driving all registered views.

A :class:`ViewManager` is the subscription point of the incremental
subsystem.  It owns (or wraps) a
:class:`~repro.engine.session.CertaintySession`, registers itself as an
observer on the session's database, and converts every mutation — single
``add``/``discard`` calls, whole ``remove_block`` sweeps, or coalesced
:meth:`~repro.model.database.UncertainDatabase.batch` blocks — into
:class:`~repro.model.database.ChangeSet` deliveries to each registered
:class:`~repro.incremental.view.MaterializedCertainView`.

Ordering matters and is arranged by construction: the session's fact index
is registered as an observer *before* the manager, so by the time a view
refreshes, the index's columnar store (which candidate enumeration, delta
joins, and the compiled rewritings all read) already reflects the mutation.
Every view decides through that one session.

Like :class:`~repro.model.database.UncertainDatabase` itself, the manager
assumes a single writer: mutations (and hence maintenance) run on the
mutating thread.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..engine.cache import PlanCache
from ..engine.session import CertaintySession
from ..model.atoms import Fact
from ..model.database import ChangeSet, DatabaseObserver, UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..store import InternTable
from .staleness import StalenessPolicy, StalenessStats
from .view import MaterializedCertainView


class ViewManager(DatabaseObserver):
    """Keeps every registered certain-answer view fresh under mutation.

    Parameters
    ----------
    db:
        The uncertain database to observe.
    session:
        An existing :class:`CertaintySession` over *db* to decide through.
        When omitted the manager opens (and owns) one; a supplied session
        stays the caller's to close.
    plan_cache / allow_exponential:
        Forwarded to the owned session (ignored when *session* is given).
    full_refresh_threshold:
        Dirty fraction above which a view abandons incremental maintenance
        for a full refresh (default ``0.5``).
    intern_table:
        Scoped intern table of the owned session.  Ignored when *session*
        is supplied — the supplied session's table governs.
    staleness:
        When set, **deferred maintenance mode**: mutations merge into one
        pending net :class:`ChangeSet` instead of refreshing views
        synchronously, and views refresh lazily — on a read that exceeds
        the policy's mutation budget or deadline, or on an explicit
        :meth:`flush`.  See :class:`~repro.incremental.staleness.StalenessPolicy`;
        progress is counted in :attr:`staleness_stats`.  ``None`` (default)
        keeps the eager always-fresh behaviour.
    clock:
        Monotonic time source for the staleness deadline (default
        :func:`time.monotonic`); injectable for deterministic tests.

    Example
    -------
    >>> with ViewManager(db) as manager:               # doctest: +SKIP
    ...     view = manager.register(open_query)
    ...     view.subscribe(on_insert=print)
    ...     with db.batch():                           # one consolidated refresh
    ...         db.add(f1); db.discard(f2)
    ...     view.answers
    """

    def __init__(
        self,
        db: UncertainDatabase,
        session: Optional[CertaintySession] = None,
        plan_cache: Optional[PlanCache] = None,
        allow_exponential: bool = False,
        full_refresh_threshold: float = 0.5,
        intern_table: Optional[InternTable] = None,
        staleness: Optional[StalenessPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 <= full_refresh_threshold <= 1.0:
            raise ValueError("full_refresh_threshold must lie in [0, 1]")
        self._db = db
        if session is None:
            session = CertaintySession(
                db,
                plan_cache=plan_cache,
                allow_exponential=allow_exponential,
                intern_table=intern_table,
            )
            self._owns_session = True
        else:
            if session.db is not db:
                raise ValueError("the supplied session wraps a different database")
            self._owns_session = False
        self._session = session
        self._full_refresh_threshold = full_refresh_threshold
        self._views: Dict[ConjunctiveQuery, MaterializedCertainView] = {}
        self._pending: List[ChangeSet] = []
        self._delivering = False
        self._staleness = staleness
        self._clock = clock
        self._deferred: Optional[ChangeSet] = None
        self._deferred_since: Optional[float] = None
        self._staleness_stats = StalenessStats()
        self._closed = False
        db.register_observer(self)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach from the database and release owned resources (idempotent)."""
        if self._closed:
            return
        self._db.unregister_observer(self)
        if self._owns_session:
            self._session.close()
        self._closed = True

    def __enter__(self) -> "ViewManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (views no longer track)."""
        return self._closed

    # -- views -------------------------------------------------------------------

    @property
    def db(self) -> UncertainDatabase:
        """The observed database."""
        return self._db

    @property
    def session(self) -> CertaintySession:
        """The certainty session views decide through."""
        return self._session

    @property
    def views(self) -> Tuple[MaterializedCertainView, ...]:
        """Every registered view, in registration order."""
        return tuple(self._views.values())

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ViewManager({self._db!r}, {len(self._views)} views, {state})"

    def register(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
    ) -> MaterializedCertainView:
        """Materialize the certain answers of *query* and keep them fresh.

        Registration performs the initial (full) materialization.
        Registering the same query twice returns the existing view.
        """
        self._check_open()
        existing = self._views.get(query)
        if existing is not None:
            return existing
        view = MaterializedCertainView(
            self,
            query,
            allow_exponential=allow_exponential,
            full_refresh_threshold=self._full_refresh_threshold,
        )
        self._views[query] = view
        return view

    def register_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        allow_exponential: Optional[bool] = None,
    ) -> List[MaterializedCertainView]:
        """Register every query in *queries*, returning the views in order.

        The warm-start helper of the recovery path: after a
        :class:`~repro.durability.DurableStore` rebuilds a database, the
        serving layer re-registers its whole query catalog in one call and
        each view materializes against the recovered state.
        """
        return [self.register(q, allow_exponential=allow_exponential) for q in queries]

    def unregister(self, view: MaterializedCertainView) -> None:
        """Stop maintaining *view* (no-op if not registered)."""
        current = self._views.get(view.query)
        if current is view:
            del self._views[view.query]

    def refresh_all(self) -> None:
        """Force a full refresh of every view (e.g. after out-of-band doubt)."""
        self._check_open()
        # A cold refresh runs against the live database, which subsumes any
        # deferred changelog — drop it instead of replaying it afterwards.
        self._deferred = None
        self._deferred_since = None
        for view in self._views.values():
            view.refresh()

    def full_refresh_causes(self) -> Dict[str, int]:
        """Mutation-driven full-refresh cause counters, summed over views.

        Keys: ``per_grounding`` (self-join plans that re-classify per
        grounding) and ``oversized`` (dirty sets past the threshold).
        Initial materializations and explicit :meth:`refresh_all` calls
        are not attributed to a cause.
        """
        causes = {"per_grounding": 0, "oversized": 0}
        for view in self._views.values():
            causes["per_grounding"] += view.stats.full_refreshes_per_grounding
            causes["oversized"] += view.stats.full_refreshes_oversized
        return causes

    # -- observer protocol -------------------------------------------------------

    def fact_added(self, fact: Fact) -> None:
        self._enqueue(ChangeSet(added=(fact,)))

    def fact_discarded(self, fact: Fact) -> None:
        self._enqueue(ChangeSet(discarded=(fact,)))

    def batch_applied(self, changes: ChangeSet) -> None:
        self._enqueue(changes)

    def _enqueue(self, changes: ChangeSet) -> None:
        """Deliver *changes* to every view, serialising re-entrant mutations.

        A subscriber callback may trigger further database mutations; those
        arrive here re-entrantly and are queued, then drained after the
        current delivery completes — every view refresh runs against the
        *current* database, so late deliveries only confirm verdicts.

        In deferred (bounded-staleness) mode, mutations arriving outside a
        flush delivery merge into the pending changelog instead; mutations
        triggered *by* a flush's subscriber callbacks still deliver through
        the re-entrancy queue, so a flush leaves the views fully caught up
        with everything it (transitively) caused.
        """
        if self._closed:
            return
        if self._staleness is not None and not self._delivering:
            self._defer(changes)
            return
        self._deliver(changes)

    def _deliver(self, changes: ChangeSet) -> None:
        """Queue *changes* for view delivery and drain unless re-entrant."""
        self._pending.append(changes)
        if self._delivering:
            return
        self._delivering = True
        try:
            while self._pending:
                batch = self._pending.pop(0)
                for view in list(self._views.values()):
                    view.apply(batch)
        finally:
            self._delivering = False

    # -- bounded-staleness (deferred) maintenance --------------------------------

    @property
    def staleness(self) -> Optional[StalenessPolicy]:
        """The bounded-staleness policy (``None`` in eager mode)."""
        return self._staleness

    @property
    def staleness_stats(self) -> StalenessStats:
        """Deferred-maintenance counters (all zero in eager mode)."""
        return self._staleness_stats

    @property
    def pending_mutations(self) -> int:
        """Net deferred mutations not yet delivered to the views."""
        return len(self._deferred) if self._deferred is not None else 0

    def _defer(self, changes: ChangeSet) -> None:
        """Merge *changes* into the pending changelog (net semantics)."""
        if not changes:
            return
        stats = self._staleness_stats
        if self._deferred is None:
            self._deferred = ChangeSet()
            self._deferred_since = self._clock()
        for fact in changes.added:
            self._deferred.record_added(fact)
        for fact in changes.discarded:
            self._deferred.record_discarded(fact)
        stats.deferred_batches += 1
        stats.deferred_mutations += len(changes)
        stats.max_pending_mutations = max(
            stats.max_pending_mutations, len(self._deferred)
        )

    def flush(self) -> bool:
        """Deliver every deferred mutation to the views now.

        Returns ``True`` when pending work was delivered.  After a flush
        (and until the next mutation) every view read is identical to a
        cold recompute.  A no-op in eager mode, where nothing ever defers.
        """
        self._check_open()
        return self._flush("explicit")

    def _flush(self, trigger: str) -> bool:
        if self._deferred is None:
            return False
        changes = self._deferred
        self._deferred = None
        self._deferred_since = None
        stats = self._staleness_stats
        stats.flushes += 1
        if trigger == "read_budget":
            stats.flushes_on_read_budget += 1
        elif trigger == "read_deadline":
            stats.flushes_on_read_deadline += 1
        else:
            stats.flushes_explicit += 1
        if changes:
            self._deliver(changes)
        return True

    def _sync_for_read(self) -> None:
        """Read-path hook: refresh first when the policy's bounds are hit.

        Called by every :attr:`MaterializedCertainView.answers` /
        ``is_certain`` read.  A read served without flushing is *stale but
        bounded*: at most ``max_stale_mutations`` net mutations and (when a
        deadline is configured) ``refresh_deadline`` seconds behind.
        """
        if self._staleness is None or self._deferred is None or self._closed:
            return
        if self._delivering:
            # A subscriber callback reading its own view mid-delivery sees
            # the in-progress refresh; deferral cannot be flushed here.
            return
        policy = self._staleness
        if (
            policy.refresh_deadline is not None
            and self._deferred_since is not None
            and self._clock() - self._deferred_since >= policy.refresh_deadline
        ):
            self._flush("read_deadline")
            return
        if len(self._deferred) > policy.max_stale_mutations:
            self._flush("read_budget")
            return
        self._staleness_stats.stale_reads += 1

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ViewManager is closed; its views no longer track")
