"""The top-level CERTAINTY solver: classify, dispatch, solve.

:func:`is_certain` is the main entry point of the library: given an
uncertain database and a Boolean conjunctive query, it classifies the query
on the tractability frontier and runs the matching algorithm:

====================  =======================================================
band                  algorithm
====================  =======================================================
FO                    unattacked-atom peeling (certain FO rewriting)
PTIME_NOT_FO          Theorem 3 (peeling + weak-cycle partitions)
PTIME_CYCLE_QUERY     Theorem 4 (``AC(k)``/``C(k)`` fact-graph marking)
CONP_COMPLETE         brute force, only with ``allow_exponential=True``
OPEN_CONJECTURED_P    brute force, only with ``allow_exponential=True``
unsupported           brute force, only with ``allow_exponential=True``
====================  =======================================================

Non-Boolean queries (with free variables) are answered by
:func:`certain_answers`, which grounds the free variables with every
candidate answer of the full database and keeps the certain ones.

All three entry points keep their historical signatures but delegate to the
:mod:`repro.engine` subsystem: queries are compiled once into cached
``QueryPlan`` objects (classification + dispatch), and ``certain_answers``
runs through a transient ``CertaintySession`` so the query shape is
classified once instead of once per candidate tuple.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..core.classify import Classification
from ..model.database import UncertainDatabase
from ..model.symbols import Constant
from ..query.conjunctive import ConjunctiveQuery
from ..store.columnar import scratch_store


class CertaintyOutcome:
    """The result of a certainty check, with provenance."""

    def __init__(self, certain: bool, method: str, classification: Classification) -> None:
        self.certain = certain
        self.method = method
        self.classification = classification

    def __bool__(self) -> bool:
        return self.certain

    def __repr__(self) -> str:
        return (
            f"CertaintyOutcome(certain={self.certain}, method={self.method!r}, "
            f"band={self.classification.band.name})"
        )


def solve(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    allow_exponential: bool = False,
    classification: Optional[Classification] = None,
) -> CertaintyOutcome:
    """Decide ``db ∈ CERTAINTY(q)`` and report which algorithm was used.

    Delegates to the engine: the query is compiled into a :class:`QueryPlan`
    through the process-wide plan cache, so repeated calls with the same
    query skip classification, and the plan runs on one scratch store over
    *db*.  An explicitly provided *classification* bypasses the cache and
    compiles an ad-hoc plan from it.
    """
    # Imported lazily: repro.engine imports this module for CertaintyOutcome.
    from ..engine.cache import default_plan_cache
    from ..engine.plan import compile_plan

    boolean = query.as_boolean() if not query.is_boolean else query
    if classification is not None:
        plan = compile_plan(boolean, classification=classification)
    else:
        plan = default_plan_cache().get_or_compile(boolean)
    return plan.execute(scratch_store(db), allow_exponential=allow_exponential)


def is_certain(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    allow_exponential: bool = False,
) -> bool:
    """``True`` iff every repair of *db* satisfies *query*."""
    return solve(db, query, allow_exponential=allow_exponential).certain


def certain_answers(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    allow_exponential: bool = False,
) -> Set[Tuple[Constant, ...]]:
    """The certain answers of a non-Boolean query.

    A tuple ``t`` is a certain answer when the Boolean grounding
    ``q[free ↦ t]`` is certain.  Candidate tuples are the answers over the
    whole (inconsistent) database — certain answers are always among them.

    Delegates to a transient :class:`~repro.engine.CertaintySession`, which
    classifies the query shape once and reuses one shared fact index for
    candidate enumeration and every grounding (the historical loop
    re-classified and re-indexed per candidate tuple).
    """
    from ..engine.session import CertaintySession

    if query.is_boolean:
        raise ValueError("certain_answers expects a query with free variables")
    with CertaintySession(db, allow_exponential=allow_exponential) as session:
        return session.certain_answers(query)
