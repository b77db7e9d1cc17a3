"""Certainty sessions: a database wrapper with shared, incremental indexes.

A :class:`CertaintySession` is the per-database execution half of the
engine.  It wraps an :class:`~repro.model.database.UncertainDatabase`,
builds a :class:`~repro.store.index.ColumnarFactIndex` over it **once**, and
registers the index as a database observer so every ``add``/``discard``/
``remove_block`` on the database updates the index incrementally instead of
forcing a rebuild.  Queries are compiled into cached
:class:`~repro.engine.plan.QueryPlan` objects, and every decision runs a
plan on the session's store (``QueryPlan.execute(session.store, ...)``).

The batched :meth:`certain_answers` classifies the query *shape* once and
reuses the plan for every candidate grounding — unlike the historical
one-shot loop, which re-classified (and re-indexed) per candidate tuple.

FO-band queries execute through their compiled certain rewriting: the plan
carries a :class:`~repro.fo.compile.CompiledFormula` (a guarded
set-at-a-time relational plan over the rewriting of Theorem 1) which is
evaluated directly against the session's incrementally maintained index —
:meth:`evaluate_formula` evaluates any other formula on the same index.

Sessions run on the **interned columnar store** (:mod:`repro.store`): the
index holds every fact as integer columns, compiled plans join and
anti-join tuples of dense term ids, candidates are enumerated by the
store's id-row join (:func:`~repro.store.kernels.answer_rows`), and open
FO-band plans decide a whole ``certain_answers`` batch with a single plan
execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..certainty.solver import CertaintyOutcome
from ..fo.compile import EvalContext, ReadSet, ReadSetRecorder, Relation
from ..fo.evaluate import FormulaEvaluator
from ..fo.formulas import Formula
from ..model.database import UncertainDatabase
from ..model.symbols import Constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.substitution import ground_free_variables
from ..store import ColumnarFactIndex, ColumnarFactStore, InternTable
from ..store.kernels import answer_rows
from .cache import PlanCache, default_plan_cache
from .plan import QueryPlan


class CertaintySession:
    """Batched CERTAINTY answering over one (possibly mutating) database.

    Parameters
    ----------
    db:
        The uncertain database to serve queries against.  The session
        registers an observer on it; call :meth:`close` (or use the session
        as a context manager) to detach.
    plan_cache:
        The plan cache to compile queries through.  Defaults to the
        process-wide cache shared with the one-shot APIs, so plans compiled
        by either layer benefit both.
    allow_exponential:
        Session-wide default for the brute-force escape hatch.
    intern_table:
        The :class:`~repro.store.intern.InternTable` the columnar index
        encodes constants through.  Defaults to the process-wide table
        (:func:`~repro.store.intern.global_intern_table`), which keeps term
        ids comparable across sessions in one process.  A private table
        scopes the id space to this session — the isolation the
        multi-tenant service layer builds on: two sessions with private
        tables never share (or grow) each other's id space.

    Example
    -------
    >>> with CertaintySession(db) as session:          # doctest: +SKIP
    ...     session.is_certain(q)
    ...     db.add(new_fact)          # index updated incrementally
    ...     session.certain_answers(open_q)
    """

    def __init__(
        self,
        db: UncertainDatabase,
        plan_cache: Optional[PlanCache] = None,
        allow_exponential: bool = False,
        intern_table: Optional[InternTable] = None,
    ) -> None:
        self._db = db
        self._index = ColumnarFactIndex(db, table=intern_table)
        db.register_observer(self._index)
        self._cache = plan_cache if plan_cache is not None else default_plan_cache()
        self._allow_exponential = allow_exponential
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach the session's index from the database (idempotent)."""
        if not self._closed:
            self._db.unregister_observer(self._index)
            self._closed = True

    def __enter__(self) -> "CertaintySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- views -------------------------------------------------------------------

    @property
    def db(self) -> UncertainDatabase:
        """The wrapped database."""
        return self._db

    @property
    def index(self) -> ColumnarFactIndex:
        """The incrementally maintained fact index over the database."""
        return self._index

    @property
    def store(self) -> ColumnarFactStore:
        """The columnar store of the index."""
        return self._index.store

    @property
    def intern_table(self) -> InternTable:
        """The intern table the columnar store encodes through."""
        return self._index.store.table

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache queries are compiled through."""
        return self._cache

    @property
    def allow_exponential(self) -> bool:
        """The session-wide brute-force default (per-call overrides win)."""
        return self._allow_exponential

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (the index no longer tracks)."""
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"CertaintySession({self._db!r}, {state})"

    # -- query answering ---------------------------------------------------------

    def plan_for(self, query: ConjunctiveQuery) -> QueryPlan:
        """The compiled plan for *query* (compiling on a cache miss)."""
        return self._cache.get_or_compile(query)

    def solve(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
    ) -> CertaintyOutcome:
        """Decide ``db ∈ CERTAINTY(q)`` with full provenance."""
        self._check_open()
        allow = self._allow_exponential if allow_exponential is None else allow_exponential
        plan = self.plan_for(query.as_boolean() if not query.is_boolean else query)
        return plan.execute(self.store, allow_exponential=allow)

    def is_certain(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
    ) -> bool:
        """``True`` iff every repair of the database satisfies *query*."""
        return self.solve(query, allow_exponential=allow_exponential).certain

    def certain_answers(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
    ) -> Set[Tuple[Constant, ...]]:
        """The certain answers of a non-Boolean query, batched.

        The query shape is compiled (classified) once; every candidate
        grounding is then executed through the same plan, and candidate
        enumeration runs on the session's shared index.
        """
        self._check_open()
        if query.is_boolean:
            raise ValueError("certain_answers expects a query with free variables")
        candidates = self.candidate_answers(query)
        return set(
            self.decide_candidates(query, candidates, allow_exponential=allow_exponential)
        )

    def candidate_answers(
        self, query: ConjunctiveQuery
    ) -> List[Tuple[Constant, ...]]:
        """The candidate tuples of *query* over the whole database, sorted.

        Candidates are the answers of the (inconsistent) database itself;
        certain answers are always among them.  The store's id-row join
        (:func:`~repro.store.kernels.answer_rows`) enumerates them; they are
        decoded and sorted by their text.  Inside a
        :meth:`~repro.model.database.UncertainDatabase.batch` the store, like
        every observer, has not yet seen the staged mutations; queries
        should run outside the batch.
        """
        self._check_open()
        decode = self.intern_table.decode
        return sorted(
            (decode(row) for row in answer_rows(query, self.store)),
            key=lambda candidate: tuple(str(c) for c in candidate),
        )

    def decide_candidates(
        self,
        query: ConjunctiveQuery,
        candidates: Sequence[Tuple[Constant, ...]],
        allow_exponential: Optional[bool] = None,
        support: Optional[Dict[Tuple[Constant, ...], ReadSet]] = None,
    ) -> List[Tuple[Constant, ...]]:
        """The candidates whose grounding is certain, in input order.

        This is the per-candidate half of :meth:`certain_answers`, split out
        so the sharded session can scatter one enumeration across workers:
        each worker calls ``decide_candidates`` on its own bucket and the
        shards union back into the same set the sequential loop produces.

        When *support* is supplied, every decided candidate is mapped to the
        :class:`~repro.fo.compile.ReadSet` of its decision — the dependency
        capture the incremental view subsystem builds its support index
        from.  Decisions off the instrumented compiled-rewriting path record
        the static support of the grounded query instead.

        Plans carrying an *open* compiled rewriting are decided by
        :meth:`_decide_open_fo`; every other plan executes once per
        candidate grounding.
        """
        self._check_open()
        allow = self._allow_exponential if allow_exponential is None else allow_exponential
        plan = self.plan_for(query)
        if plan.batched_fo:
            return self._decide_open_fo(plan, candidates, support)
        certain: List[Tuple[Constant, ...]] = []
        for candidate in candidates:
            # A Boolean query has exactly one candidate, the empty tuple; it
            # executes the plan's own (compiled) query rather than a grounding.
            grounded = (
                None
                if query.is_boolean
                else ground_free_variables(query, [c.value for c in candidate])
            )
            recorder = ReadSetRecorder() if support is not None else None
            outcome = plan.execute(
                self.store, grounding=grounded, allow_exponential=allow, recorder=recorder
            )
            if support is not None:
                support[candidate] = recorder.freeze()
            if outcome.certain:
                certain.append(candidate)
        return certain

    def _decide_open_fo(
        self,
        plan: QueryPlan,
        candidates: Sequence[Tuple[Constant, ...]],
        support: Optional[Dict[Tuple[Constant, ...], ReadSet]],
    ) -> List[Tuple[Constant, ...]]:
        """Decide candidates by seeding their rows into the open rewriting.

        Each candidate is one seed row over the rewriting's free variables;
        the plan's ``filter`` is row-local (a seeded row survives iff its
        own evaluation would return true), so seeding every row in one
        execution only amortises the joins, never mixes verdicts.  With
        *support*, each row is filtered alone through its own
        :class:`~repro.fo.compile.ReadSetRecorder`, so each candidate gets
        the read set of its own decision.
        """
        if not candidates:
            return []
        root = plan.fo_rewriting.root
        # The rewriting's free variables are a subset of the candidate
        # variables (aligned with the query's free variables, in order).
        positions = [plan.fo_candidate_vars.index(v) for v in root.schema]
        intern = self.intern_table.intern
        rows = [tuple(intern(candidate[p]) for p in positions) for candidate in candidates]
        if support is None:
            seed = Relation(root.schema, set(rows))
            satisfied = root.filter(EvalContext(self.store), seed).rows
            return [c for c, row in zip(candidates, rows) if row in satisfied]
        certain: List[Tuple[Constant, ...]] = []
        for candidate, row in zip(candidates, rows):
            recorder = ReadSetRecorder()
            ctx = EvalContext(self.store, recorder=recorder)
            if root.filter(ctx, Relation(root.schema, {row})).rows:
                certain.append(candidate)
            support[candidate] = recorder.freeze()
        return certain

    def evaluate_formula(self, formula: "Formula") -> bool:
        """Evaluate a first-order sentence against the session's database.

        A :class:`~repro.fo.evaluate.FormulaEvaluator` on the session's
        shared index: a guarded formula is compiled (memoised per formula
        object) into a set-at-a-time plan, so repeated evaluations against
        the mutating database skip both re-compilation and re-indexing; a
        formula the compiler refuses is evaluated by the naive recursion.
        """
        self._check_open()
        return FormulaEvaluator(self._db, index=self._index).evaluate(formula)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this CertaintySession is closed; its index no longer tracks the database"
            )
