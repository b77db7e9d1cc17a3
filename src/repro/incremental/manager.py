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

A manager is *eager* (the default: views refresh inside each mutation)
or *deferred* (mutations wait for the next view read or flush); either
way every read equals a cold ``certain_answers`` recompute.

Like :class:`~repro.model.database.UncertainDatabase` itself, the manager
assumes a single writer: mutations (and hence maintenance) run on the
mutating thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.cache import PlanCache
from ..engine.session import CertaintySession
from ..model.atoms import Fact
from ..model.database import ChangeSet, DatabaseObserver, UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..store import InternTable
from .view import MaterializedCertainView


class StalenessStats:
    """Counters describing deferred maintenance (all zero in eager mode).

    ``deferred_batches`` / ``deferred_mutations``
        mutation notifications merged into the pending changelog, and the
        facts they carried (before merging, so cancellations still count);
    ``flushes``
        pending changelogs delivered to the views, split by trigger into
        ``flushes_on_read`` (a view read) and ``flushes_explicit``
        (:meth:`ViewManager.flush`);
    ``max_pending_mutations``
        high-water mark of the pending net mutation count.
    """

    __slots__ = (
        "deferred_batches",
        "deferred_mutations",
        "flushes",
        "flushes_on_read",
        "flushes_explicit",
        "max_pending_mutations",
    )

    def __init__(self) -> None:
        self.deferred_batches = 0
        self.deferred_mutations = 0
        self.flushes = 0
        self.flushes_on_read = 0
        self.flushes_explicit = 0
        self.max_pending_mutations = 0

    def as_dict(self) -> dict:
        """A plain-dict rendering (for service stats aggregation)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"StalenessStats(deferred={self.deferred_batches}, "
            f"flushes={self.flushes}, max_pending={self.max_pending_mutations})"
        )


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
    intern_table:
        Scoped intern table of the owned session.  Ignored when *session*
        is supplied — the supplied session's table governs.
    deferred:
        When ``True``, mutations merge into one pending net
        :class:`ChangeSet` instead of refreshing the views, and the next
        view read or :meth:`flush` delivers it (counted in
        :attr:`staleness_stats`).  ``False`` (default) refreshes inside
        every mutation.

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
        intern_table: Optional[InternTable] = None,
        deferred: bool = False,
    ) -> None:
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
        self._views: Dict[ConjunctiveQuery, MaterializedCertainView] = {}
        self._pending: List[ChangeSet] = []
        self._delivering = False
        self._deferred = deferred
        self._changelog = ChangeSet()
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
        view = MaterializedCertainView(self, query, allow_exponential=allow_exponential)
        self._views[query] = view
        return view

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
        self._changelog = ChangeSet()
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
        *current* database, so late deliveries only confirm verdicts.  A
        deferred manager merges the mutations made outside a delivery into
        its pending changelog instead.
        """
        if self._closed:
            return
        if self._deferred and not self._delivering:
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

    # -- deferred maintenance ----------------------------------------------------

    @property
    def deferred(self) -> bool:
        """``True`` when mutations wait for the next read or :meth:`flush`."""
        return self._deferred

    @property
    def staleness_stats(self) -> StalenessStats:
        """Deferred-maintenance counters (all zero in eager mode)."""
        return self._staleness_stats

    @property
    def pending_mutations(self) -> int:
        """Net deferred mutations not yet delivered to the views."""
        return len(self._changelog)

    def _defer(self, changes: ChangeSet) -> None:
        """Merge *changes* into the pending changelog (net semantics)."""
        if not changes:
            return
        for fact in changes.added:
            self._changelog.record_added(fact)
        for fact in changes.discarded:
            self._changelog.record_discarded(fact)
        stats = self._staleness_stats
        stats.deferred_batches += 1
        stats.deferred_mutations += len(changes)
        stats.max_pending_mutations = max(
            stats.max_pending_mutations, len(self._changelog)
        )

    def flush(self) -> bool:
        """Deliver every deferred mutation to the views now.

        Returns ``True`` when pending work was delivered.  A view read
        flushes by itself; this moves the cost to a chosen moment.
        """
        self._check_open()
        return self._flush(explicit=True)

    def _flush(self, explicit: bool = False) -> bool:
        if not self._changelog:
            return False
        changes, self._changelog = self._changelog, ChangeSet()
        stats = self._staleness_stats
        stats.flushes += 1
        if explicit:
            stats.flushes_explicit += 1
        else:
            stats.flushes_on_read += 1
        self._deliver(changes)
        return True

    def _sync_for_read(self) -> None:
        """Read-path hook: deliver every pending mutation first.

        The changelog stays empty while a delivery runs (a subscriber's
        mutations join it), so a read mid-delivery sees it in progress.
        """
        if self._changelog and not self._closed:
            self._flush()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ViewManager is closed; its views no longer track")
