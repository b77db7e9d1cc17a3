"""Polynomial CERTAINTY solvers for queries with an acyclic attack graph.

Theorem 1 (Wijsen, TODS 2012; recalled as Theorem 1 in the paper) states
that ``CERTAINTY(q)`` is first-order expressible iff the attack graph of
``q`` is acyclic.  This module provides two operational counterparts:

* :func:`certain_fo` — the *peeling* solver, which repeatedly peels an
  unattacked atom as in the proof of Theorem 3 (induction step);
* :func:`certain_fo_rewriting` — the *compiled rewriting* solver, which
  builds the explicit certain first-order rewriting
  (:mod:`repro.fo.rewrite`), compiles it once into a set-at-a-time
  relational plan (:mod:`repro.fo.compile`), and evaluates that plan
  against the database — i.e. certainty decided the way Theorem 1
  promises, by ordinary first-order query evaluation.

The engine's ``QueryPlan`` routes FO-band queries through the compiled
rewriting; the two solvers are cross-checked against each other and against
repair enumeration (the paper's definition) in the test suite.
"""

from __future__ import annotations

from ..attacks.graph import attack_graph
from ..fo.compile import compile_formula
from ..fo.rewrite import certain_rewriting_cached
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from .exceptions import UnsupportedQueryError
from .peeling import empty_base_case, peel_certain


def is_fo_expressible(query: ConjunctiveQuery) -> bool:
    """``True`` iff the attack graph of *query* is acyclic (Theorem 1)."""
    if query.has_self_join:
        raise UnsupportedQueryError("FO classification requires a self-join-free query")
    if query.is_empty:
        return True
    return attack_graph(query).is_acyclic()


def certain_fo(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` by peeling unattacked atoms.

    Raises :class:`UnsupportedQueryError` when the attack graph is cyclic.
    """
    if not is_fo_expressible(query):
        raise UnsupportedQueryError(
            f"the attack graph of {query} is cyclic; CERTAINTY(q) is not first-order expressible"
        )
    return peel_certain(db, query, empty_base_case)


def certain_fo_rewriting(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` by evaluating the compiled FO rewriting.

    The certain first-order rewriting of *query* is constructed (memoised
    per query) and compiled (memoised per formula) into a guarded
    set-at-a-time plan, which is then evaluated against *db* on a scratch
    store.  Raises :class:`UnsupportedQueryError` when the attack graph is
    cyclic (Theorem 1: no FO rewriting exists).
    """
    if not is_fo_expressible(query):
        raise UnsupportedQueryError(
            f"the attack graph of {query} is cyclic; CERTAINTY(q) is not first-order expressible"
        )
    return compile_formula(certain_rewriting_cached(query)).evaluate(db)
