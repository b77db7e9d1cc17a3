"""Compiled query plans: classify once, execute many times.

A :class:`QueryPlan` separates the *query-compilation* work of the
CERTAINTY solver — classification on the tractability frontier, attack-graph
construction, solver dispatch, greedy atom ordering — from the per-database
*execution* work.  Compilation depends only on the query, so a plan compiled
once can be executed against many databases (or against one mutating
database through a ``CertaintySession``) without re-classifying.

Non-Boolean queries are compiled from a *representative grounding*: the free
variables are replaced by fresh placeholder constants.  For self-join-free
queries the complexity band of ``CERTAINTY(q[free ↦ t])`` does not depend on
the constants in ``t`` — attacks, functional-dependency closures, hypergraph
acyclicity and the ``C(k)``/``AC(k)`` shape are all functions of the
variable pattern alone, which is identical for every candidate tuple — so
one classification covers every grounding of the batched
``certain_answers`` loop.  Queries *with* self-joins are the one exception:
a candidate tuple with repeated constants can collapse two same-relation
atoms into one and change the band, so their plans are marked
``per_grounding`` and re-classify each grounding (matching the historical
per-candidate behaviour).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.classify import Classification, classify_cached
from ..core.complexity import ComplexityBand
from ..model.database import UncertainDatabase
from ..model.symbols import Constant, Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import order_atoms
from ..query.substitution import ground_free_variables
from ..certainty.brute_force import certain_brute_force
from ..certainty.context import SolverContext
from ..certainty.cycle_query import certain_cycle_query
from ..certainty.exceptions import IntractableQueryError, UnsupportedQueryError
from ..certainty.solver import CertaintyOutcome
from ..certainty.terminal_cycles import certain_terminal_cycles
from ..fo.compile import CompiledFormula, ReadSetRecorder, compile_formula
from ..fo.formulas import replace_constants
from ..fo.rewrite import certain_rewriting_cached
from ..model.valuation import Valuation

#: Prefix of the fresh constants used to ground free variables when
#: compiling the plan of a non-Boolean query.
_PLACEHOLDER_PREFIX = "__plan_placeholder_"

_BAND_METHODS = {
    ComplexityBand.FO: "fo-rewriting",
    ComplexityBand.PTIME_NOT_FO: "theorem3-terminal-cycles",
    ComplexityBand.PTIME_CYCLE_QUERY: "theorem4-cycle-query",
}


def _record_query_support(
    recorder: ReadSetRecorder,
    target: ConjunctiveQuery,
    db: UncertainDatabase,
    context: Optional[SolverContext],
) -> None:
    """Record the *static* support of a non-rewriting decision on *target*.

    The Theorem 3/4 solvers and brute force read the database through their
    own algorithms rather than the instrumented compiled-formula evaluator,
    but their verdict is still a function of a statically known
    sub-database: per atom of the (grounded, Boolean) query, the blocks
    whose key constants agree with the atom's key terms.  A block matching
    no atom's key pattern contains no fact any witness can use — the key
    pattern constrains *key* positions only, so the whole block matches or
    misses — and purification (Lemma 1) removes it without changing
    certainty; hence mutations confined to such blocks can never flip the
    verdict.

    Per atom this records: a single block when every key term is a constant
    (as a dense block id of the session store — interning the id even when
    the block is currently absent, so later insertions still match); a key
    mask when only some key terms are constants, or when no session index
    covers *db* (a mask without wildcards names one block, in object
    space); the whole relation when no key term is a constant.
    """
    index = context.index_for(db) if context is not None else None
    for atom in target.atoms:
        name = atom.relation.name
        key_terms = atom.key_terms
        if index is not None and all(is_constant(term) for term in key_terms):
            intern = index.store.table.intern
            block_id = index.store.block_id(
                name, tuple(intern(term) for term in key_terms)
            )
            recorder.record_block_id(name, block_id)
        elif any(is_constant(term) for term in key_terms):
            recorder.record_key_mask(
                name,
                tuple(term if is_constant(term) else None for term in key_terms),
            )
        else:
            recorder.record_relation(name)


def _representative_grounding(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Ground the free variables with distinct fresh placeholder constants."""
    placeholders = [
        f"{_PLACEHOLDER_PREFIX}{i}__" for i in range(len(query.free_variables))
    ]
    return ground_free_variables(query, placeholders)


def _fo_rewriting_plan(query: ConjunctiveQuery) -> CompiledFormula:
    """The compiled certain FO rewriting of the FO-band *query*.

    The construction always succeeds on the FO band: by Lemma 5 every
    residual of a query with an acyclic attack graph keeps an unattacked
    atom, so the rewriting of Theorem 1 exists.
    """
    return compile_formula(certain_rewriting_cached(query))


def _open_fo_rewriting_plan(
    source_query: ConjunctiveQuery, grounded: ConjunctiveQuery
) -> Optional[Tuple[CompiledFormula, Tuple[Variable, ...]]]:
    """One compiled rewriting serving *every* grounding of an open FO query.

    The rewriting of the representative grounding is constructed once, then
    its placeholder constants are substituted back by placeholder
    *variables* (one per free variable of *source_query*, in order) that a
    per-candidate valuation binds at evaluation time.  This is sound for
    self-join-free queries because constants never enter the attack graph
    (closures and join-tree labels are built from variables alone), so the
    rewriting *structure* is identical for every candidate tuple — only
    the constants differ.  Returns ``(compiled plan, valuation variables)``
    or ``None`` when a name of *source_query* collides with the placeholder
    namespace (execution then compiles the rewriting of each grounding).
    """
    if any(v.name.startswith(_PLACEHOLDER_PREFIX) for v in grounded.variables):
        return None  # a user variable shadows the placeholder namespace
    # A user *constant* in the placeholder namespace is indistinguishable
    # from a grounding placeholder once the representative grounding is
    # built, so the back-substitution would capture it too — bail out.
    for atom in source_query.atoms:
        for constant in atom.constants:
            if isinstance(constant.value, str) and constant.value.startswith(
                _PLACEHOLDER_PREFIX
            ):
                return None
    formula = certain_rewriting_cached(grounded)
    candidate_vars = tuple(
        Variable(f"{_PLACEHOLDER_PREFIX}{i}__")
        for i in range(len(source_query.free_variables))
    )
    mapping = {
        Constant(f"{_PLACEHOLDER_PREFIX}{i}__"): variable
        for i, variable in enumerate(candidate_vars)
    }
    return compile_formula(replace_constants(formula, mapping)), candidate_vars


class QueryPlan:
    """The compiled form of one CERTAINTY(q) problem.

    Attributes
    ----------
    source_query:
        The query the plan was compiled from (possibly non-Boolean).
    query:
        The Boolean query the classification refers to: ``source_query``
        itself when Boolean, otherwise its representative grounding.
    classification:
        The frontier classification, computed once at compile time.
    method:
        The dispatched algorithm name (same strings as ``solve``):
        ``"fo-rewriting"``, ``"theorem3-terminal-cycles"``,
        ``"theorem4-cycle-query"``, or ``"brute-force"``.
    atom_order:
        The greedy join order of the Boolean query's atoms (shared with the
        evaluation layer's memoised :func:`order_atoms`).
    fo_rewriting:
        For FO-band plans, the certain first-order rewriting of ``query``
        compiled into a guarded set-at-a-time plan
        (:class:`~repro.fo.compile.CompiledFormula`); ``None`` for other
        bands.  Because plans are cached in the :class:`PlanCache`, the
        rewriting is constructed and compiled once per query shape and
        executed by ordinary relational evaluation — the operational
        content of Theorem 1.  For non-Boolean plans the compiled formula
        is *open*: its free variables are the ``fo_candidate_vars`` that a
        per-candidate valuation binds, so one plan serves every grounding
        of a batched ``certain_answers`` call.
    fo_candidate_vars:
        The valuation variables of an open ``fo_rewriting`` (aligned with
        ``source_query.free_variables``); ``None`` for Boolean plans.
    per_grounding:
        ``True`` when the compiled dispatch cannot be trusted for arbitrary
        groundings (non-Boolean queries with self-joins, where repeated
        candidate constants can collapse atoms): :meth:`execute` then
        re-classifies each supplied grounding.
    """

    __slots__ = (
        "source_query",
        "query",
        "classification",
        "method",
        "atom_order",
        "fo_rewriting",
        "fo_candidate_vars",
        "per_grounding",
    )

    def __init__(
        self,
        source_query: ConjunctiveQuery,
        query: ConjunctiveQuery,
        classification: Classification,
        method: str,
        per_grounding: bool = False,
    ) -> None:
        self.source_query = source_query
        self.query = query
        self.classification = classification
        self.method = method
        self.atom_order = order_atoms(query)
        self.fo_rewriting: Optional[CompiledFormula] = None
        self.fo_candidate_vars: Optional[Tuple[Variable, ...]] = None
        if method == "fo-rewriting" and not per_grounding:
            if source_query.is_boolean:
                self.fo_rewriting = _fo_rewriting_plan(query)
            else:
                open_plan = _open_fo_rewriting_plan(source_query, query)
                if open_plan is not None:
                    self.fo_rewriting, self.fo_candidate_vars = open_plan
        self.per_grounding = per_grounding

    @property
    def band(self) -> ComplexityBand:
        """The complexity band of the classification."""
        return self.classification.band

    @property
    def batched_fo(self) -> bool:
        """``True`` when one open compiled rewriting serves every grounding.

        Such plans can decide a whole batch of candidate tuples with a
        single set-at-a-time plan execution (seed every candidate row at
        once and keep the satisfying subset) instead of evaluating the
        rewriting once per candidate — the batched kernel of
        ``CertaintySession.decide_candidates``.
        """
        return (
            self.fo_rewriting is not None
            and self.fo_candidate_vars is not None
            and not self.per_grounding
        )

    def __repr__(self) -> str:
        return f"QueryPlan({self.source_query} → {self.band.name} via {self.method})"

    def execute(
        self,
        db: UncertainDatabase,
        grounding: Optional[ConjunctiveQuery] = None,
        allow_exponential: bool = False,
        context: Optional[SolverContext] = None,
        candidate: Optional[Tuple[Constant, ...]] = None,
        recorder: Optional[ReadSetRecorder] = None,
    ) -> CertaintyOutcome:
        """Run the compiled plan against *db*.

        *grounding*, used by the batched ``certain_answers`` path, is a
        Boolean grounding of ``source_query``'s shape to execute instead of
        the plan's own query; it shares the variable pattern the plan was
        compiled from, so for self-join-free queries the band (and hence
        the compiled dispatch) is constant-independent and remains valid.
        ``per_grounding`` plans instead re-classify each grounding, because
        repeated constants can collapse same-relation atoms and change the
        band (classification stays memoised through ``classify_cached``).

        *candidate* is the tuple of constants the grounding substituted for
        ``source_query.free_variables``; when the plan carries an open
        compiled rewriting, FO execution binds the candidate through a
        valuation instead of constructing a rewriting per grounding.

        *recorder*, when supplied, collects the read set of the decision
        (see :class:`~repro.fo.compile.ReadSet`).  Compiled-rewriting
        execution is instrumented probe-by-probe; every other path — the
        Theorem 3/4 solvers, brute force — records the *static* per-atom
        support of the grounded query instead (blocks named by constant
        keys, key masks for partially constant keys, and full relations
        otherwise; see :func:`_record_query_support`), so callers always
        receive a sound over-approximation.
        """
        if grounding is not None and self.per_grounding:
            return compile_plan(grounding).execute(
                db,
                allow_exponential=allow_exponential,
                context=context,
                recorder=recorder,
            )
        target = grounding if grounding is not None else self.query
        if self.method == "fo-rewriting":
            certain = self._execute_fo(db, grounding, candidate, context, recorder)
            return CertaintyOutcome(certain, self.method, self.classification)
        if recorder is not None:
            # The solvers below are not probe-instrumented; record their
            # static per-atom support instead.
            _record_query_support(recorder, target, db, context)
        if self.method == "theorem3-terminal-cycles":
            return CertaintyOutcome(
                certain_terminal_cycles(db, target, context=context),
                self.method,
                self.classification,
            )
        if self.method == "theorem4-cycle-query":
            return CertaintyOutcome(
                certain_cycle_query(db, target, context=context),
                self.method,
                self.classification,
            )
        if not allow_exponential:
            if self.band is ComplexityBand.CONP_COMPLETE:
                raise IntractableQueryError(
                    f"CERTAINTY({target}) is coNP-complete; "
                    "pass allow_exponential=True to use brute force"
                )
            raise UnsupportedQueryError(
                f"no polynomial algorithm is known for {target} ({self.band.name}); "
                "pass allow_exponential=True to use brute force"
            )
        return CertaintyOutcome(
            certain_brute_force(db, target, context=context), self.method, self.classification
        )

    def _execute_fo(
        self,
        db: UncertainDatabase,
        grounding: Optional[ConjunctiveQuery],
        candidate: Optional[Tuple[Constant, ...]],
        context: Optional[SolverContext],
        recorder: Optional[ReadSetRecorder] = None,
    ) -> bool:
        """FO dispatch: evaluate the compiled certain rewriting (Theorem 1)."""
        index = context.index_for(db) if context is not None else None
        if index is None and recorder is not None:
            # Probes into a private index would record block ids the caller
            # cannot resolve; record the static per-atom support instead
            # (of the source query when no grounding is given: its free
            # variables widen the support to masks, which stays sound).
            target = grounding if grounding is not None else self.source_query
            _record_query_support(recorder, target, db, context)
            recorder = None
        if self.fo_candidate_vars is not None and self.fo_rewriting is not None:
            if candidate is None and grounding is None:
                # Representative execution of a non-Boolean plan: bind the
                # placeholder constants themselves (the historical target).
                candidate = tuple(
                    Constant(v.name) for v in self.fo_candidate_vars
                )
            if candidate is not None:
                valuation = Valuation(dict(zip(self.fo_candidate_vars, candidate)))
                return self.fo_rewriting.evaluate(
                    db, index=index, valuation=valuation, recorder=recorder
                )
        elif self.fo_rewriting is not None and grounding is None:
            return self.fo_rewriting.evaluate(db, index=index, recorder=recorder)
        target = grounding if grounding is not None else self.query
        return _fo_rewriting_plan(target).evaluate(db, index=index, recorder=recorder)


def compile_plan(
    query: ConjunctiveQuery,
    classification: Optional[Classification] = None,
) -> QueryPlan:
    """Compile *query* into a :class:`QueryPlan`.

    Classification (the expensive, database-independent part of ``solve``)
    happens here, at most once per compiled plan — through the process-wide
    ``classify_cached`` memo, so even separate :class:`PlanCache` instances
    share classification work.  An explicit *classification* can be injected
    to bypass it (used by the one-shot ``solve`` wrapper's
    ``classification=`` parameter).
    """
    boolean = query if query.is_boolean else _representative_grounding(query)
    if classification is None:
        classification = classify_cached(boolean)
    method = _BAND_METHODS.get(classification.band, "brute-force")
    per_grounding = not query.is_boolean and query.has_self_join
    return QueryPlan(query, boolean, classification, method, per_grounding=per_grounding)
