"""The unattacked-atom peeling recursion shared by the polynomial solvers.

Both the first-order case (acyclic attack graph, Theorem 1) and the
Theorem 3 case (weak terminal cycles) decide certainty with the same outer
recursion, taken from the proof of Theorem 3:

* purify the database (Lemma 1);
* while the attack graph of the current query has an *unattacked* atom ``F``
  with key variables ``x⃗``:

  - by Corollary 8.11 of Wijsen (TODS 2012), ``db ∈ CERTAINTY(q)`` iff for
    some constants ``ā``, ``db ∈ CERTAINTY(q[x⃗ ↦ ā])``; only values ``ā``
    realised by an actual block of ``F``'s relation can succeed, so the
    candidates are the matching blocks of the (purified) database;
  - by Lemma 8, for a ground-key atom, the candidate succeeds iff the
    purified database is nonempty and *every* fact of the candidate block
    matches the atom and leads to a certain residual query
    ``(q \\ {F})[x⃗ y⃗ ↦ ā b̄]``;

* when no unattacked atom remains, delegate to a *base-case handler* — the
  empty-query handler for the FO case, the weak-cycle-partition handler for
  Theorem 3.

The recursion is polynomial in the size of the database for a fixed query
(the branching factor at each level is bounded by the number of blocks and
facts, and the depth is bounded by the number of atoms).  Every level runs
on a columnar index: purification returns one covering its result, and the
recursion threads it into the residual calls and the base case.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..attacks.graph import AttackGraph
from ..model.atoms import Atom, Fact
from ..model.database import UncertainDatabase
from ..model.symbols import Constant, Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.substitution import substitute_atom, substitute_query
from ..store.index import ColumnarFactIndex
from .context import SolverContext
from .exceptions import UnsupportedQueryError
from .purify import purify_with_index

#: A base-case handler decides certainty for a (purified) database and a
#: query whose attack graph has no unattacked atom.  The final argument is
#: an up-to-date columnar index over the database, whose ``store`` the
#: handler reads to run on id-rows.
BaseCaseHandler = Callable[
    [UncertainDatabase, ConjunctiveQuery, AttackGraph, ColumnarFactIndex], bool
]


def match_key_pattern(atom: Atom, key_values: Sequence[Constant]) -> Optional[Dict[Variable, Constant]]:
    """Match a block's key constants against the key terms of *atom*.

    Returns the induced binding of the atom's key variables, or ``None`` when
    a constant position disagrees or a repeated variable would need two
    different values.
    """
    if len(key_values) != len(atom.key_terms):
        return None
    binding: Dict[Variable, Constant] = {}
    for term, value in zip(atom.key_terms, key_values):
        if is_constant(term):
            if term != value:
                return None
        else:
            existing = binding.get(term)
            if existing is None:
                binding[term] = value
            elif existing != value:
                return None
    return binding


def match_full_atom(atom: Atom, fact: Fact) -> Optional[Dict[Variable, Constant]]:
    """Match *fact* against *atom*; return the full variable binding or ``None``."""
    if atom.relation.name != fact.relation.name or atom.relation.arity != fact.relation.arity:
        return None
    binding: Dict[Variable, Constant] = {}
    for term, value in zip(atom.terms, fact.terms):
        if is_constant(term):
            if term != value:
                return None
        else:
            existing = binding.get(term)
            if existing is None:
                binding[term] = value
            elif existing != value:
                return None
    return binding


def peel_certain(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    base_case: BaseCaseHandler,
    context: Optional[SolverContext] = None,
    index: Optional[ColumnarFactIndex] = None,
) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` by the unattacked-atom recursion.

    *base_case* is invoked when the attack graph of the (residual) query has
    no unattacked atom; it receives the purified database, the residual
    query, its attack graph, and a covering fact index.  *context*, when
    given, supplies memoised attack graphs (residual queries repeat across
    blocks) and a shared fact index for the initial purification.  *index*,
    when given, must cover exactly the facts of *db*: the recursion threads
    the indexes returned by :func:`purify_with_index` through its residual
    calls, so deep recursions never rebuild an index over an unchanged
    database.
    """
    if query.has_self_join:
        raise UnsupportedQueryError("the peeling recursion requires a self-join-free query")
    if query.is_empty:
        return True
    if index is None and context is not None:
        index = context.index_for(db)
    current, level_index = purify_with_index(db, query, index=index)
    if not current:
        return False

    graph = context.attack_graph(query) if context is not None else AttackGraph(query)
    unattacked = graph.unattacked_atoms()
    if not unattacked:
        return base_case(current, query, graph, level_index)

    # Deterministically pick the unattacked atom with the fewest key variables
    # (cheapest branching), breaking ties by string representation.
    atom = min(unattacked, key=lambda a: (len(a.key_variables), str(a)))
    residual = query.without(atom)

    candidate_blocks = [
        block for block in current.blocks_of_relation(atom.relation.name)
    ]
    # One index per recursion level: `purify_with_index` returned (or was
    # handed) an index covering `current`, and purify never mutates a
    # caller-supplied index, so every per-block re-purification below can
    # share it.
    for block in sorted(candidate_blocks, key=lambda b: min(str(f) for f in b)):
        key_values = next(iter(block)).key_terms
        key_binding = match_key_pattern(atom, key_values)
        if key_binding is None:
            continue
        grounded_query = substitute_query(query, key_binding)
        grounded_atom = substitute_atom(atom, key_binding)
        candidate_db, candidate_index = purify_with_index(
            current, grounded_query, index=level_index
        )
        if not candidate_db:
            continue
        block_facts = candidate_db.relation_facts(atom.relation.name)
        success = True
        for fact in sorted(block_facts, key=str):
            full_binding = match_full_atom(grounded_atom, fact)
            if full_binding is None:
                success = False
                break
            residual_query = substitute_query(
                substitute_query(residual, key_binding), full_binding
            )
            if not peel_certain(
                candidate_db,
                residual_query,
                base_case,
                context=context,
                index=candidate_index,
            ):
                success = False
                break
        if success:
            return True
    return False


def empty_base_case(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    graph: AttackGraph,
    index: ColumnarFactIndex,
) -> bool:
    """Base case for the first-order solver: it must never be reached.

    If the attack graph of the original query is acyclic, Lemma 5 guarantees
    that every residual query also has an acyclic attack graph and therefore
    an unattacked atom, so the recursion always bottoms out at the empty
    query.  Reaching this handler means the query was not FO-classifiable.
    """
    raise UnsupportedQueryError(
        f"residual query {query} has no unattacked atom; "
        "its attack graph is cyclic, so the FO solver does not apply"
    )
