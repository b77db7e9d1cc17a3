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
facts, and the depth is bounded by the number of atoms).  It runs on the
one columnar store a decision starts from (a session's, or one scratch
store for a one-shot call): each level is a set of live id-rows that
:func:`~repro.certainty.purify.purify_rows` filters, so no level copies
the database or builds an index.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..attacks.graph import AttackGraph, attack_graph
from ..model.database import UncertainDatabase
from ..model.symbols import Constant, Term, Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.substitution import substitute_atom, substitute_query
from ..store.columnar import ColumnarFactStore, LiveRows, scratch_store
from ..store.index import ColumnarFactIndex
from .exceptions import UnsupportedQueryError
from .purify import purify_rows

#: A base-case handler decides certainty for a purified sub-database and a
#: query whose attack graph has no unattacked atom.  It receives the store,
#: the live id-rows of the sub-database, the query and its attack graph.
BaseCaseHandler = Callable[
    [ColumnarFactStore, LiveRows, ConjunctiveQuery, AttackGraph], bool
]


def _match_terms(
    terms: Sequence[Term], values: Sequence[Constant]
) -> Optional[Dict[Variable, Constant]]:
    """Match constants against a term pattern (an atom's key or all its terms).

    Returns the induced variable binding, or ``None`` when the lengths or a
    constant position disagree, or a repeated variable would need two
    different values.
    """
    if len(terms) != len(values):
        return None
    binding: Dict[Variable, Constant] = {}
    for term, value in zip(terms, values):
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
    index: Optional[ColumnarFactIndex] = None,
) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` by the unattacked-atom recursion.

    *base_case* is invoked when the attack graph of the (residual) query has
    no unattacked atom (see :data:`BaseCaseHandler`).  *index*, when given,
    must cover exactly the facts of *db*; without one, a scratch store is
    built once.  The recursion then runs on that one store through
    :func:`peel_rows`.
    """
    if query.has_self_join:
        raise UnsupportedQueryError("the peeling recursion requires a self-join-free query")
    store = index.store if index is not None else scratch_store(db)
    return peel_rows(store, None, query, base_case)


def peel_rows(
    store: ColumnarFactStore,
    live: Optional[LiveRows],
    query: ConjunctiveQuery,
    base_case: BaseCaseHandler,
) -> bool:
    """:func:`peel_certain` over the sub-database *live* of *store*.

    *live* maps relation names to id-rows (``None``: every row of the
    store) and is never mutated.  Every level purifies by filtering rows;
    the attack graphs of the residual queries, which repeat across blocks,
    come from the :func:`~repro.attacks.graph.attack_graph` memo.
    """
    if query.is_empty:
        return True
    live = purify_rows(query, store, live)
    if not any(live.values()):
        return False

    graph = attack_graph(query)
    unattacked = graph.unattacked_atoms()
    if not unattacked:
        return base_case(store, live, query, graph)

    # Deterministically pick the unattacked atom with the fewest key variables
    # (cheapest branching), breaking ties by string representation.
    atom = min(unattacked, key=lambda a: (len(a.key_variables), str(a)))
    residual = query.without(atom)
    name = atom.relation.name
    key_size = store.relation_columns(name).schema.key_size  # type: ignore[union-attr]
    decode = store.table.decode
    keys = {row[:key_size] for row in live.get(name, ())}
    # Blocks are visited by decoded key; the verdict does not depend on it.
    for key_values in sorted(decode(key) for key in keys):
        key_binding = _match_terms(atom.key_terms, key_values)
        if key_binding is None:
            continue
        grounded_query = substitute_query(query, key_binding)
        grounded_atom = substitute_atom(atom, key_binding)
        candidate = purify_rows(grounded_query, store, live)
        if not any(candidate.values()):
            continue
        success = True
        for row in sorted(candidate.get(name, ())):
            full_binding = _match_terms(grounded_atom.terms, decode(row))
            if full_binding is None:
                success = False
                break
            residual_query = substitute_query(
                substitute_query(residual, key_binding), full_binding
            )
            if not peel_rows(store, candidate, residual_query, base_case):
                success = False
                break
        if success:
            return True
    return False


def empty_base_case(
    store: ColumnarFactStore,
    live: LiveRows,
    query: ConjunctiveQuery,
    graph: AttackGraph,
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
