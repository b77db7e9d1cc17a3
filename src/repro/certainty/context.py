"""Shared precomputed state for the certainty solvers.

Every solver in this package historically rebuilt its own structures from
scratch on each call: attack graphs of (residual) queries, cycle-shape
detection, and fact indexes over the database.  A :class:`SolverContext`
bundles those structures so they can be computed once — by the engine's
``QueryPlan``/``CertaintySession`` layer — and shared across many calls.

All solver entry points accept ``context=None`` and behave exactly as
before when no context is given, so the one-shot APIs are unaffected.
Without a shared index a solver builds its own through
:func:`scratch_index`, the one place that chooses the intern table of
solver-private indexes.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from ..attacks.graph import AttackGraph
from ..core.classify import Classification
from ..model.atoms import Fact
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..query.families import CycleQueryShape, cycle_query_shape
from ..store import ColumnarFactIndex, InternTable

#: Cap on the number of memoised attack graphs / cycle shapes per context.
#: Residual queries produced by the peeling recursion are distinct per
#: grounding, so a long-lived session context could otherwise grow without
#: bound; when the cap is hit the memo is simply dropped and rebuilt.
_MEMO_CAP = 4096

_SHAPE_MISS = object()


class SolverContext:
    """Precomputed, reusable state threaded through the certainty solvers.

    Parameters
    ----------
    db:
        The *root* database the context's shared index covers.
        Solvers purify by filtering the index's id-rows; the shared index is
        only substituted when a solver is asked about this exact database
        object.
    index:
        An up-to-date fact index over *db* (typically the incrementally
        maintained index of a ``CertaintySession``).
    classification:
        The classification of the query being solved, when already known.
    """

    def __init__(
        self,
        db: Optional[UncertainDatabase] = None,
        index: Optional[ColumnarFactIndex] = None,
        classification: Optional[Classification] = None,
    ) -> None:
        self.db = db
        self.index = index
        self.classification = classification
        self._graphs: Dict[ConjunctiveQuery, AttackGraph] = {}
        self._shapes: Dict[ConjunctiveQuery, Optional[CycleQueryShape]] = {}
        # Contexts are session-local (one per CertaintySession / worker),
        # but a session may still be driven from several threads; the memo
        # dicts and their cap-eviction are guarded so lookups stay atomic.
        self._lock = threading.RLock()

    def attack_graph(self, query: ConjunctiveQuery) -> AttackGraph:
        """The attack graph of *query*, memoised across solver calls."""
        with self._lock:
            graph = self._graphs.get(query)
        if graph is None:
            graph = AttackGraph(query)  # pure; built outside the lock
            with self._lock:
                existing = self._graphs.get(query)
                if existing is not None:
                    return existing
                if len(self._graphs) >= _MEMO_CAP:
                    self._graphs.clear()
                self._graphs[query] = graph
        return graph

    def cycle_shape(self, query: ConjunctiveQuery) -> Optional[CycleQueryShape]:
        """The ``C(k)``/``AC(k)`` shape of *query* (or ``None``), memoised."""
        with self._lock:
            shape = self._shapes.get(query, _SHAPE_MISS)
        if shape is _SHAPE_MISS:
            shape = cycle_query_shape(query)  # pure; built outside the lock
            with self._lock:
                cached = self._shapes.get(query, _SHAPE_MISS)
                if cached is not _SHAPE_MISS:
                    return cached  # type: ignore[return-value]
                if len(self._shapes) >= _MEMO_CAP:
                    self._shapes.clear()
                self._shapes[query] = shape
        return shape  # type: ignore[return-value]

    def index_for(self, db: UncertainDatabase) -> Optional[ColumnarFactIndex]:
        """The shared index when *db* is the context's root database."""
        if self.db is not None and db is self.db:
            return self.index
        return None


def scratch_index(facts: Iterable[Fact]) -> ColumnarFactIndex:
    """A solver-private columnar index over *facts*, on a fresh intern table.

    Every index a solver builds for itself goes through here: one-shot
    calls without a session (one index per decision, which purification
    and the peeling recursion then filter), compiled formulas evaluated
    against a bare database, and the default index of
    :class:`~repro.fo.evaluate.FormulaEvaluator`.  The fresh table keeps
    such throwaway indexes from growing the process-wide table or a
    session's table, both append-only; the table dies with the index.
    """
    return ColumnarFactIndex(facts, table=InternTable())
