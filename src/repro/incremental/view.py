"""Materialized certain-answer views, maintained incrementally.

A :class:`MaterializedCertainView` owns the current certain-answer set of
one registered query and keeps it continuously equal to what a cold
``certain_answers`` call would return, as the underlying database mutates.

Maintenance strategy per mutation batch (a
:class:`~repro.model.database.ChangeSet`):

1. **relation prefilter** — batches touching none of the query's relations
   are skipped outright (certainty of ``q`` is a function of the database
   restricted to ``q``'s relations; blocks of other relations repair
   independently and cannot change any verdict);
2. **support-driven dirtying** — the
   :class:`~repro.incremental.support.SupportIndex` maps the touched blocks
   to exactly the candidates whose decision depends on them; every other
   candidate's decision would replay identically and is skipped.  FO-band
   decisions record their probes through the instrumented compiled
   rewriting; every other band (Theorem 3/4, brute force) records the
   static per-atom support of the grounded query — blocks, key masks,
   relations — so *all* bands maintain fine-grained;
3. **delta candidate discovery** — inserted facts can create brand-new
   candidate answers; a seeded delta-join over the session's columnar
   store (:func:`~repro.incremental.delta.delta_candidates`) finds them
   without re-running the full enumeration;
4. **re-decision** — the dirty candidates are re-decided through the
   session's ``decide_candidates`` loop, refreshing their support entries;
5. **fallbacks** — views over self-join (per-grounding) plans, or batches
   dirtying more than :data:`FULL_REFRESH_FRACTION` of the tracked
   candidates, fall back to a full refresh (cold re-enumeration +
   re-decision), which is always correct; :class:`ViewStats` counts each
   full refresh by cause.

After a batch with discards, candidates that re-decided to not certain and
whose grounding has no witness left in the store are garbage-collected
(:meth:`MaterializedCertainView._collect_vanished`).  Every step reads the
store's id-rows; none of them interns a constant.

Answer-level deltas are pushed to subscribers: ``on_retract`` callbacks
fire before ``on_insert`` callbacks, each in deterministic sorted order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..fo.compile import ReadSet
from ..model.database import ChangeSet
from ..query.conjunctive import ConjunctiveQuery
from ..query.substitution import ground_free_variables
from ..store.kernels import has_witness
from .delta import delta_candidates
from .support import Candidate, SupportIndex

#: Dirty fraction of the tracked candidates above which a batch gets a full
#: refresh instead of an incremental one.
FULL_REFRESH_FRACTION = 0.5

#: Deterministic candidate ordering (same key the sessions sort by).
def _sort_key(candidate: Candidate) -> Tuple[str, ...]:
    return tuple(str(c) for c in candidate)


class ViewStats:
    """Counters describing how a view has been maintained.

    ``refreshes``
        mutation batches delivered to the view;
    ``skipped_refreshes``
        batches discarded by the relation prefilter (no decision run);
    ``incremental_refreshes`` / ``full_refreshes``
        how the remaining batches were served;
    ``full_refreshes_per_grounding`` / ``full_refreshes_oversized``
        why mutation-driven full refreshes happened: the view is coarse
        because its plan re-classifies per grounding (self-joins), or the
        dirty set exceeded :data:`FULL_REFRESH_FRACTION`.  The initial
        materialization and explicit
        :meth:`MaterializedCertainView.refresh` calls count in
        ``full_refreshes`` only;
    ``decisions``
        total per-candidate certainty decisions run on behalf of the view;
    ``last_dirty`` / ``last_decided``
        dirty-set size and decisions of the most recent non-skipped batch;
    ``inserts_emitted`` / ``retracts_emitted``
        answer-level delta callbacks fired;
    ``gc_removed``
        tracked candidates garbage-collected between full refreshes
        because their supporting facts vanished (see
        :meth:`MaterializedCertainView._collect_vanished`).
    """

    __slots__ = (
        "refreshes",
        "skipped_refreshes",
        "incremental_refreshes",
        "full_refreshes",
        "full_refreshes_per_grounding",
        "full_refreshes_oversized",
        "decisions",
        "last_dirty",
        "last_decided",
        "inserts_emitted",
        "retracts_emitted",
        "gc_removed",
    )

    def __init__(self) -> None:
        self.refreshes = 0
        self.skipped_refreshes = 0
        self.incremental_refreshes = 0
        self.full_refreshes = 0
        self.full_refreshes_per_grounding = 0
        self.full_refreshes_oversized = 0
        self.decisions = 0
        self.last_dirty = 0
        self.last_decided = 0
        self.inserts_emitted = 0
        self.retracts_emitted = 0
        self.gc_removed = 0

    def __repr__(self) -> str:
        return (
            f"ViewStats(refreshes={self.refreshes}, skipped={self.skipped_refreshes}, "
            f"incremental={self.incremental_refreshes}, full={self.full_refreshes}, "
            f"decisions={self.decisions})"
        )


class Subscription:
    """A registered pair of answer-delta callbacks (see :meth:`MaterializedCertainView.subscribe`)."""

    __slots__ = ("_view", "on_insert", "on_retract", "active")

    def __init__(
        self,
        view: "MaterializedCertainView",
        on_insert: Optional[Callable[[Candidate], None]],
        on_retract: Optional[Callable[[Candidate], None]],
    ) -> None:
        self._view = view
        self.on_insert = on_insert
        self.on_retract = on_retract
        self.active = True

    def unsubscribe(self) -> None:
        """Stop receiving deltas (idempotent)."""
        self.active = False
        self._view._drop_subscription(self)


class MaterializedCertainView:
    """The continuously maintained certain answers of one query.

    Created through :meth:`repro.incremental.ViewManager.register` — the
    manager feeds it consolidated change sets; user code reads
    :attr:`answers`, subscribes to deltas, and inspects :attr:`stats` /
    :attr:`support`.

    Invariant (differentially tested): after every delivered batch,
    ``view.answers`` equals a cold ``certain_answers(query)`` against the
    current database (``{()} if certain else set()`` for Boolean queries).

    Memory note: verdicts of candidates that later leave the enumerable
    candidate set are retained (they stay correct — a vanished candidate is
    never certain) and are pruned on the next full refresh.
    """

    def __init__(
        self,
        manager,  # ViewManager; untyped to avoid a circular import
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
    ) -> None:
        self._manager = manager
        self._query = query
        self._boolean = query.is_boolean
        self._allow_exponential = allow_exponential
        self._relations = frozenset(atom.relation.name for atom in query.atoms)
        plan = manager.session.plan_for(query)
        # Every band records support now — FO through the instrumented
        # rewriting, PTIME/coNP through the static per-atom support of the
        # grounded query — so only per-grounding (self-join) plans stay coarse: their
        # groundings can collapse atoms, changing what the support covers.
        self._fine_grained = not plan.per_grounding
        # Sessions capture read sets as dense block ids; the store's
        # resolver translates touched blocks into that id space.
        self._support = SupportIndex(manager.session.store.known_block_id)
        self._verdicts: Dict[Candidate, bool] = {}
        self._answers: Set[Candidate] = set()
        self._subscriptions: List[Subscription] = []
        self.stats = ViewStats()
        self._full_refresh()

    # -- read surface ------------------------------------------------------------

    @property
    def query(self) -> ConjunctiveQuery:
        """The registered query."""
        return self._query

    @property
    def answers(self) -> frozenset:
        """The current certain answers (``{()}``/``set()`` for Boolean queries).

        A deferred manager delivers its pending mutations first, so the
        returned set always equals a cold recompute.
        """
        self._manager._sync_for_read()
        return frozenset(self._answers)

    @property
    def is_certain(self) -> bool:
        """Boolean-query convenience: is the query certain right now?"""
        self._manager._sync_for_read()
        return bool(self._answers)

    @property
    def fine_grained(self) -> bool:
        """``True`` when mutations dirty candidates through the support index.

        Every complexity band is fine-grained — FO-band decisions capture
        probe-level read sets, the Theorem 3/4 solvers and brute force
        capture static per-atom support.  Only per-grounding self-join plans are coarse (every
        relevant mutation triggers a full refresh).
        """
        return self._fine_grained

    @property
    def support(self) -> SupportIndex:
        """The support index mapping blocks/relations to dependent candidates."""
        return self._support

    @property
    def tracked_candidates(self) -> frozenset:
        """Every candidate with a remembered verdict (answers ∪ rejected)."""
        return frozenset(self._verdicts)

    def __repr__(self) -> str:
        mode = "fine-grained" if self._fine_grained else "coarse"
        return (
            f"MaterializedCertainView({self._query}, {len(self._answers)} answers, {mode})"
        )

    # -- subscriptions -----------------------------------------------------------

    def subscribe(
        self,
        on_insert: Optional[Callable[[Candidate], None]] = None,
        on_retract: Optional[Callable[[Candidate], None]] = None,
    ) -> Subscription:
        """Receive answer-level deltas after every maintenance step.

        ``on_retract(candidate)`` fires for answers leaving the view,
        ``on_insert(candidate)`` for answers entering it — retractions
        first, each batch in sorted candidate order.  Callbacks must not
        mutate the database directly; mutations they enqueue are processed
        after the current delivery finishes (the manager serialises them).
        Returns a :class:`Subscription` handle with ``unsubscribe()``.
        """
        subscription = Subscription(self, on_insert, on_retract)
        self._subscriptions.append(subscription)
        return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def _emit(self, inserted: Set[Candidate], retracted: Set[Candidate]) -> None:
        if not self._subscriptions or not (inserted or retracted):
            return
        retracts = sorted(retracted, key=_sort_key)
        inserts = sorted(inserted, key=_sort_key)
        for subscription in list(self._subscriptions):
            if not subscription.active:
                continue
            if subscription.on_retract is not None:
                for candidate in retracts:
                    subscription.on_retract(candidate)
            if subscription.on_insert is not None:
                for candidate in inserts:
                    subscription.on_insert(candidate)
        self.stats.retracts_emitted += len(retracts)
        self.stats.inserts_emitted += len(inserts)

    # -- maintenance -------------------------------------------------------------

    def refresh(self) -> None:
        """Force a full refresh (cold re-enumeration and re-decision)."""
        self._full_refresh()

    def apply(self, changes: Optional[ChangeSet]) -> None:
        """Bring the view up to date after *changes* (``None`` = unknown delta)."""
        self.stats.refreshes += 1
        if changes is not None and not self._affected_by(changes):
            self.stats.skipped_refreshes += 1
            return
        if changes is None:
            self._full_refresh()
            return
        if not self._fine_grained:
            self.stats.full_refreshes_per_grounding += 1
            self._full_refresh()
            return
        self._incremental_refresh(changes)

    def _affected_by(self, changes: ChangeSet) -> bool:
        """Can *changes* possibly alter any verdict or the candidate set?

        Certainty of ``q`` depends only on the restriction of the database
        to ``q``'s relations (no decision reads the active domain), so
        batches elsewhere are no-ops.
        """
        return any(name in self._relations for name in changes.touched_relations())

    def _decide(
        self,
        candidates: List[Candidate],
        support: Optional[Dict[Candidate, ReadSet]],
    ) -> List[Candidate]:
        certain = self._manager.session.decide_candidates(
            self._query,
            candidates,
            allow_exponential=self._allow_exponential,
            support=support,
        )
        self.stats.decisions += len(candidates)
        self.stats.last_decided = len(candidates)
        return certain

    def _full_refresh(self) -> None:
        session = self._manager.session
        if self._boolean:
            candidates: List[Candidate] = [()]
        else:
            # Every answer over the whole store, certain or not: a later
            # discard can make any of them certain.
            candidates = session.candidate_answers(self._query)
        support_out: Optional[Dict[Candidate, ReadSet]] = (
            {} if self._fine_grained else None
        )
        certain = set(self._decide(candidates, support_out))
        self._support.clear()
        if support_out is not None:
            for candidate, read_set in support_out.items():
                self._support.set(candidate, read_set)
        self._verdicts = {c: (c in certain) for c in candidates}
        inserted = certain - self._answers
        retracted = self._answers - certain
        self._answers = certain
        self.stats.full_refreshes += 1
        self.stats.last_dirty = len(candidates)
        self._emit(inserted, retracted)

    def _incremental_refresh(self, changes: ChangeSet) -> None:
        dirty = self._support.dirty_for(changes)
        if changes.added and not self._boolean:
            # Insertions can create candidates the view has never decided.
            for candidate in delta_candidates(
                self._query, self._manager.session.index, changes.added
            ):
                if candidate not in self._verdicts:
                    dirty.add(candidate)
        # Count (not materialise) the union: dirty is small, verdicts can
        # be huge, and this runs on every mutation batch.
        total = len(self._verdicts) + sum(1 for c in dirty if c not in self._verdicts)
        if total and len(dirty) > FULL_REFRESH_FRACTION * total:
            # Most of the view is dirty: a cold refresh costs the same and
            # also prunes stale candidates.
            self.stats.full_refreshes_oversized += 1
            self._full_refresh()
            return
        self.stats.last_dirty = len(dirty)
        if not dirty:
            self.stats.last_decided = 0
            self.stats.incremental_refreshes += 1
            return
        candidates = sorted(dirty, key=_sort_key)
        support_out: Dict[Candidate, ReadSet] = {}
        certain = set(self._decide(candidates, support_out))
        inserted: Set[Candidate] = set()
        retracted: Set[Candidate] = set()
        for candidate in candidates:
            verdict = candidate in certain
            self._verdicts[candidate] = verdict
            self._support.set(candidate, support_out[candidate])
            if verdict and candidate not in self._answers:
                self._answers.add(candidate)
                inserted.add(candidate)
            elif not verdict and candidate in self._answers:
                self._answers.discard(candidate)
                retracted.add(candidate)
        if changes.discarded:
            self._collect_vanished(candidates, certain)
        self.stats.incremental_refreshes += 1
        self._emit(inserted, retracted)

    def _collect_vanished(
        self, candidates: List[Candidate], certain: Set[Candidate]
    ) -> None:
        """Candidate-set GC: drop re-decided candidates that left the
        enumerable candidate set.

        A candidate whose supporting facts were all discarded can never be
        an answer again until some insertion re-creates it (insertions are
        delta-discovered), so keeping its verdict and support entries only
        grows memory between full refreshes.  A candidate is enumerable iff
        its grounding has a witness in the session's store — one id-row
        :func:`~repro.store.kernels.has_witness` sweep each, run only for
        dirty candidates that just re-decided to *not certain* after a
        discard.  The sweep looks constants up without interning them: a
        constant the table does not know occurs in no stored row.
        """
        if self._boolean:
            return
        store = self._manager.session.store
        for candidate in candidates:
            if candidate in certain:
                continue
            grounded = ground_free_variables(
                self._query, [c.value for c in candidate]
            )
            if not has_witness(grounded, store):
                del self._verdicts[candidate]
                self._support.remove(candidate)
                self.stats.gc_removed += 1
