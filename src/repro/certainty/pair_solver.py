"""Polynomial CERTAINTY solver for two-atom queries (Kolaitis–Pema coverage).

Kolaitis and Pema (IPL 2012) showed that for every self-join-free query
``q = {F, G}`` with exactly two atoms, ``CERTAINTY(q)`` is either in P or
coNP-complete.  In the paper's terminology the dichotomy reads: coNP-complete
when the attack graph of ``q`` has a strong cycle, in P otherwise.  The
tractable non-FO case (a *weak* attack cycle ``F ⇄ G``) is what the base
case of Theorem 3 needs.

Kolaitis and Pema solve that case by reduction to maximum independent sets
in claw-free graphs (Minty's algorithm).  This module instead decides it
with the paper's own Theorem 4 at ``k = 2``, on a *block digraph*:

* every block of ``F``'s relation (resp. ``G``'s) becomes a vertex;
* every fact becomes a directed edge from its own block to the block of the
  partner atom determined by its values (for a weak cycle, ``key(G)`` is
  contained in ``vars(F)`` and vice versa, so the partner block is fully
  determined), labelled with the fact's values for the shared non-key
  variables;
* a repair picks one outgoing edge per vertex; it satisfies the query iff it
  picks both halves of a *join pair*: two anti-parallel edges with equal
  labels.  On a purified database (Lemma 1) every edge is half of a join
  pair, so the graph decomposes into strongly connected components with no
  edges between them.

That is Theorem 4's marking problem with the join pairs as witness
2-cycles, so :func:`~repro.certainty.cycle_query.marking_certain` decides
it: ``db ∈ CERTAINTY(q)`` iff some component has neither an anti-parallel
pair of edges with *different* labels (a non-witness 2-cycle) nor an
elementary cycle longer than two.  Everything runs on the id-rows of a
columnar store: the Theorem 3 base case hands in one partition at a time,
and the one-shot entry points build a private index first.  The solver is
validated against repair enumeration in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence, Set, Tuple

from ..attacks.cycles import has_strong_cycle
from ..attacks.graph import AttackGraph
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..store.columnar import ColumnarFactStore, IntKey, IntRow
from ..store.kernels import AtomMatcher
from .context import scratch_index
from .cycle_query import marking_certain
from .exceptions import IntractableQueryError, UnsupportedQueryError
from .peeling import peel_certain, empty_base_case
from .purify import purify_rows

#: Vertex of the block digraph: (side, key id-tuple), side 0 for F and 1 for G.
_Block = Tuple[int, IntKey]


def is_two_atom_query(query: ConjunctiveQuery) -> bool:
    """``True`` iff the query has exactly two atoms and no self-join."""
    return len(query) == 2 and not query.has_self_join


def certain_two_atom(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` for a two-atom self-join-free query.

    Dispatches on the attack graph: acyclic → peeling recursion (FO case);
    weak 2-cycle → graph-marking algorithm; strong cycle →
    :class:`IntractableQueryError` (the caller may fall back to brute force).
    """
    if not is_two_atom_query(query):
        raise UnsupportedQueryError("certain_two_atom expects exactly two atoms without self-join")
    graph = AttackGraph(query)
    if graph.is_acyclic():
        return peel_certain(db, query, empty_base_case)
    if has_strong_cycle(graph):
        raise IntractableQueryError(
            f"CERTAINTY({query}) is coNP-complete (strong attack cycle); no polynomial algorithm applies"
        )
    return certain_weak_cycle_pair(db, query)


def certain_weak_cycle_pair(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """The graph-marking decision procedure for a weak attack cycle ``F ⇄ G``.

    Purifies *db* (Lemma 1) on the id-rows of a private columnar index,
    then decides on the live rows through
    :func:`certain_weak_cycle_pair_rows`.
    """
    if not is_two_atom_query(query):
        raise UnsupportedQueryError("certain_weak_cycle_pair expects exactly two atoms")
    store = scratch_index(db).store
    live = purify_rows(query, store)
    first, second = query.atoms
    return certain_weak_cycle_pair_rows(
        store,
        query,
        list(live.get(first.relation.name, ())),
        list(live.get(second.relation.name, ())),
    )


def certain_weak_cycle_pair_rows(
    store: ColumnarFactStore,
    query: ConjunctiveQuery,
    first_rows: Sequence[IntRow],
    second_rows: Sequence[IntRow],
) -> bool:
    """The graph-marking decision procedure over columnar rows.

    *first_rows* / *second_rows* are the id-rows (drawn from *store*) over
    the relations of the query's two atoms, taken from a database purified
    relative to the query; the Theorem 3 base case hands in one partition
    at a time.  The block digraph is built on int tuples — nothing is
    decoded back into fact objects.  The key check below is the weakness
    test: in a two-atom query the closure of ``key(F)`` is ``vars(F)``,
    plus ``vars(G)`` when ``key(G) ⊆ vars(F)``, so ``F ⇝ G`` is weak iff
    ``key(G) ⊆ vars(F)``.
    """
    if not is_two_atom_query(query):
        raise UnsupportedQueryError("certain_weak_cycle_pair_rows expects exactly two atoms")
    first, second = query.atoms
    for one, other in ((first, second), (second, first)):
        if not one.key_variables.issubset(other.variables):
            raise UnsupportedQueryError(
                f"key({one}) is not contained in vars({other}); "
                "the query does not have a weak attack cycle"
            )
    extra = sorted(
        (first.variables & second.variables) - first.key_variables - second.key_variables,
        key=lambda v: v.name,
    )

    # The block digraph: one vertex per block, one edge per row, from the
    # row's block to the partner block its values determine, labelled with
    # its values for the shared non-key variables.
    adjacency: Dict[_Block, Set[_Block]] = defaultdict(set)
    labels: Dict[Tuple[_Block, _Block], Set[IntRow]] = defaultdict(set)
    sides = ((first, second, first_rows), (second, first, second_rows))
    for side, (atom, partner, rows) in enumerate(sides):
        matcher = AtomMatcher(atom, store)
        key_size = atom.relation.key_size
        for row in rows:
            source: _Block = (side, row[:key_size])
            target: _Block = (1 - side, matcher.project(row, partner.key_terms))
            adjacency[source].add(target)
            adjacency.setdefault(target, set())
            labels[source, target].add(matcher.values(row, extra))

    # A 2-cycle of blocks is a non-witness one iff its two edges can carry
    # different labels.
    return marking_certain(
        adjacency, 2, lambda cycle: len(labels[cycle] | labels[cycle[::-1]]) > 1
    )
