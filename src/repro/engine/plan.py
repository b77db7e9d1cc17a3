"""Compiled query plans: classify once, execute many times.

A :class:`QueryPlan` separates the *query-compilation* work of the
CERTAINTY solver — classification on the tractability frontier, attack-graph
construction, solver dispatch — from the per-database *execution* work.
Compilation depends only on the query, so a plan compiled once can be
executed against many stores (or against one mutating database's store
through a ``CertaintySession``) without re-classifying.

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

from typing import List, Optional, Tuple

from ..core.classify import Classification, classify_cached
from ..core.complexity import ComplexityBand
from ..model.symbols import Constant, Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.substitution import ground_free_variables
from ..certainty.brute_force import certain_brute_force_rows
from ..certainty.cycle_query import certain_cycle_query_rows
from ..certainty.exceptions import IntractableQueryError, UnsupportedQueryError
from ..certainty.solver import CertaintyOutcome
from ..certainty.terminal_cycles import certain_terminal_cycles_rows
from ..fo.compile import CompiledFormula, EvalContext, ReadSetRecorder, compile_formula
from ..fo.formulas import replace_constants
from ..fo.rewrite import certain_rewriting_cached
from ..store.columnar import ColumnarFactStore

_BAND_METHODS = {
    ComplexityBand.FO: "fo-rewriting",
    ComplexityBand.PTIME_NOT_FO: "theorem3-terminal-cycles",
    ComplexityBand.PTIME_CYCLE_QUERY: "theorem4-cycle-query",
}


def _record_query_support(
    recorder: ReadSetRecorder,
    target: ConjunctiveQuery,
    store: ColumnarFactStore,
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
    (as a dense block id of *store* — interning the id even when the block
    is currently absent, so later insertions still match); a key mask when
    only some key terms are constants; the whole relation when no key term
    is a constant.
    """
    intern = store.table.intern
    for atom in target.atoms:
        name = atom.relation.name
        key_terms = atom.key_terms
        if all(is_constant(term) for term in key_terms):
            block_id = store.block_id(name, tuple(intern(term) for term in key_terms))
            recorder.record_block_id(name, block_id)
        elif any(is_constant(term) for term in key_terms):
            recorder.record_key_mask(
                name,
                tuple(term if is_constant(term) else None for term in key_terms),
            )
        else:
            recorder.record_relation(name)


def _placeholders(query: ConjunctiveQuery) -> List[str]:
    """Fresh constant names for the free variables of *query*, in order.

    They share a prefix that no variable name or string constant of *query*
    starts with, so no name of the query equals a placeholder: the open
    rewriting's back-substitution captures exactly the placeholders.
    """
    taken = [v.name for v in query.variables] + [
        c.value for atom in query.atoms for c in atom.constants if isinstance(c.value, str)
    ]
    prefix = "__plan_placeholder_"
    while any(name.startswith(prefix) for name in taken):
        prefix = "_" + prefix
    return [f"{prefix}{i}__" for i in range(len(query.free_variables))]


def _representative_grounding(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Ground the free variables with distinct fresh placeholder constants."""
    return ground_free_variables(query, _placeholders(query))


def _fo_rewriting_plan(query: ConjunctiveQuery) -> CompiledFormula:
    """The compiled certain FO rewriting of the FO-band *query*.

    The construction always succeeds on the FO band: by Lemma 5 every
    residual of a query with an acyclic attack graph keeps an unattacked
    atom, so the rewriting of Theorem 1 exists.
    """
    return compile_formula(certain_rewriting_cached(query))


def _open_fo_rewriting_plan(
    source_query: ConjunctiveQuery, grounded: ConjunctiveQuery
) -> Tuple[CompiledFormula, Tuple[Variable, ...]]:
    """One compiled rewriting serving *every* grounding of an open FO query.

    The rewriting of the representative grounding is constructed once, then
    its placeholder constants are substituted back by placeholder
    *variables* (one per free variable of *source_query*, in order) that
    each candidate's seed row binds at evaluation time.  This is sound for
    self-join-free queries because constants never enter the attack graph
    (closures and join-tree labels are built from variables alone), so the
    rewriting *structure* is identical for every candidate tuple — only
    the constants differ.  Returns ``(compiled plan, candidate variables)``.
    """
    names = _placeholders(source_query)
    candidate_vars = tuple(Variable(name) for name in names)
    mapping = {Constant(name): variable for name, variable in zip(names, candidate_vars)}
    formula = replace_constants(certain_rewriting_cached(grounded), mapping)
    return compile_formula(formula), candidate_vars


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
    fo_rewriting:
        For FO-band plans, the certain first-order rewriting of ``query``
        compiled into a guarded set-at-a-time plan
        (:class:`~repro.fo.compile.CompiledFormula`); ``None`` for other
        bands.  Because plans are cached in the :class:`PlanCache`, the
        rewriting is constructed and compiled once per query shape and
        executed by ordinary relational evaluation — the operational
        content of Theorem 1.  For non-Boolean plans the compiled formula
        is *open*: its free variables are the ``fo_candidate_vars`` that
        each candidate's seed row binds, so one plan serves every grounding
        of a batched ``certain_answers`` call.
    fo_candidate_vars:
        The candidate variables of an open ``fo_rewriting`` (aligned with
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
        self.fo_rewriting: Optional[CompiledFormula] = None
        self.fo_candidate_vars: Optional[Tuple[Variable, ...]] = None
        if method == "fo-rewriting" and not per_grounding:
            if source_query.is_boolean:
                self.fo_rewriting = _fo_rewriting_plan(query)
            else:
                self.fo_rewriting, self.fo_candidate_vars = _open_fo_rewriting_plan(
                    source_query, query
                )
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
        ``CertaintySession.decide_candidates``.  Every open FO-band plan
        without self-joins is batched.
        """
        return self.fo_candidate_vars is not None

    def __repr__(self) -> str:
        return f"QueryPlan({self.source_query} → {self.band.name} via {self.method})"

    def execute(
        self,
        store: ColumnarFactStore,
        grounding: Optional[ConjunctiveQuery] = None,
        allow_exponential: bool = False,
        recorder: Optional[ReadSetRecorder] = None,
    ) -> CertaintyOutcome:
        """Run the compiled plan against the database held by *store*.

        *grounding*, used by the per-candidate ``certain_answers`` path, is
        a Boolean grounding of ``source_query``'s shape to execute instead
        of the plan's own query; it shares the variable pattern the plan was
        compiled from, so for self-join-free queries the band (and hence
        the compiled dispatch) is constant-independent and remains valid.
        ``per_grounding`` plans instead re-classify each grounding, because
        repeated constants can collapse same-relation atoms and change the
        band (classification stays memoised through ``classify_cached``).

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
                store, allow_exponential=allow_exponential, recorder=recorder
            )
        target = grounding if grounding is not None else self.query
        if self.method == "fo-rewriting":
            # A Boolean plan carries its own rewriting; any other target is
            # decided through the (memoised) rewriting of that target.
            rewriting = (
                self.fo_rewriting
                if grounding is None and self.source_query.is_boolean
                else _fo_rewriting_plan(target)
            )
            certain = rewriting.evaluate(context=EvalContext(store, recorder=recorder))
            return CertaintyOutcome(certain, self.method, self.classification)
        if recorder is not None:
            # The solvers below are not probe-instrumented; record their
            # static per-atom support instead.
            _record_query_support(recorder, target, store)
        if self.method == "theorem3-terminal-cycles":
            certain = certain_terminal_cycles_rows(store, target)
        elif self.method == "theorem4-cycle-query":
            certain = certain_cycle_query_rows(store, target)
        elif allow_exponential:
            certain = certain_brute_force_rows(store, target)
        elif self.band is ComplexityBand.CONP_COMPLETE:
            raise IntractableQueryError(
                f"CERTAINTY({target}) is coNP-complete; "
                "pass allow_exponential=True to use brute force"
            )
        else:
            raise UnsupportedQueryError(
                f"no polynomial algorithm is known for {target} ({self.band.name}); "
                "pass allow_exponential=True to use brute force"
            )
        return CertaintyOutcome(certain, self.method, self.classification)


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
