"""Polynomial CERTAINTY solver for two-atom queries (Kolaitis–Pema coverage).

Kolaitis and Pema (IPL 2012) showed that for every self-join-free query
``q = {F, G}`` with exactly two atoms, ``CERTAINTY(q)`` is either in P or
coNP-complete.  In the paper's terminology the dichotomy reads: coNP-complete
when the attack graph of ``q`` has a strong cycle, in P otherwise.  The
tractable non-FO case (a *weak* attack cycle ``F ⇄ G``) is what the base
case of Theorem 3 needs.

Kolaitis and Pema solve that case by reduction to maximum independent sets
in claw-free graphs (Minty's algorithm).  This module instead decides it
with a direct graph-marking algorithm that generalises the technique of the
paper's own Theorem 4, documented in DESIGN.md:

* every block of ``F``'s relation (resp. ``G``'s) becomes a vertex;
* every fact becomes a directed edge from its own block to the block of the
  partner atom determined by its values (for a weak cycle, ``key(G)`` is
  contained in ``vars(F)`` and vice versa, so the partner block is fully
  determined), labelled with the fact's values for the shared non-key
  variables;
* a repair picks one outgoing edge per vertex; it satisfies the query iff it
  picks both halves of a *join pair*: two anti-parallel edges with equal
  labels.  After purification (Lemma 1) every edge is half of a join pair,
  so the graph decomposes into strongly connected components with no edges
  between them.

A falsifying repair exists iff **every** component admits a marked cycle
that is not a join pair, which happens iff the component contains either an
anti-parallel pair of edges with *different* labels, or an elementary cycle
(on block vertices) of length greater than two.  Hence ``db ∈ CERTAINTY(q)``
iff some component has neither — which the solver checks in polynomial time.
Everything runs on the id-rows of a columnar store: the Theorem 3 base case
hands in one partition at a time, and the one-shot entry points build a
private index first.  The solver is validated against repair enumeration
in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..attacks.cycles import has_strong_cycle
from ..attacks.graph import AttackGraph
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..store.columnar import ColumnarFactStore, IntKey, IntRow
from ..store.kernels import AtomMatcher
from .context import scratch_index
from .exceptions import IntractableQueryError, UnsupportedQueryError
from .peeling import peel_certain, empty_base_case
from .purify import purify_rows

#: Vertex of the block digraph: (side, key id-tuple) where side is "F" or "G".
_Node = Tuple[str, IntKey]


class _Edge:
    """An id-row viewed as an edge of the block digraph."""

    __slots__ = ("source", "target", "label")

    def __init__(self, source: _Node, target: _Node, label: IntRow) -> None:
        self.source = source
        self.target = target
        self.label = label


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
    at a time.  Pair purification, block-digraph construction and the
    per-component decision all run on int tuples — nothing is decoded back
    into fact objects.
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
    shared = sorted(first.variables & second.variables, key=lambda v: v.name)
    key_vars = first.key_variables | second.key_variables
    extra = sorted(set(shared) - key_vars, key=lambda v: v.name)

    atoms = (first, second)
    matchers = (AtomMatcher(first, store), AtomMatcher(second, store))
    blocks: Tuple[Dict[IntKey, List[IntRow]], ...] = ({}, {})
    for side, rows in enumerate((first_rows, second_rows)):
        key_size = atoms[side].relation.key_size
        matcher = matchers[side]
        side_blocks = blocks[side]
        for row in rows:
            if not matcher.match(row):
                continue  # cannot happen on a purified database
            side_blocks.setdefault(row[:key_size], []).append(row)

    # Pair purification (Lemma 1) in id space: a row lies on a witness iff
    # its shared-variable id vector occurs on the other side; a block with a
    # stale row is dropped whole, and removals cascade to a fixpoint.
    while True:
        vectors = tuple(
            {
                matchers[side].values(row, shared)
                for rows in blocks[side].values()
                for row in rows
            }
            for side in (0, 1)
        )
        stale = False
        for side in (0, 1):
            partner_vectors = vectors[1 - side]
            matcher = matchers[side]
            dead = [
                key
                for key, rows in blocks[side].items()
                if any(matcher.values(row, shared) not in partner_vectors for row in rows)
            ]
            for key in dead:
                del blocks[side][key]
                stale = True
        if not stale:
            break
    if not blocks[0] or not blocks[1]:
        return False

    # The block digraph: one vertex per block, one edge per row, from the
    # row's block to the partner block its values determine, labelled with
    # its values for the shared non-key variables.
    edges: List[_Edge] = []
    adjacency: Dict[_Node, Set[_Node]] = defaultdict(set)
    tags = ("F", "G")
    for side in (0, 1):
        matcher = matchers[side]
        partner = atoms[1 - side]
        own_tag, partner_tag = tags[side], tags[1 - side]
        for key, rows in blocks[side].items():
            source: _Node = (own_tag, key)
            for row in rows:
                target: _Node = (partner_tag, matcher.project(row, partner.key_terms))
                label = matcher.values(row, extra)
                edges.append(_Edge(source, target, label))
                adjacency[source].add(target)
                adjacency.setdefault(target, set())

    for component in _strongly_connected_components(adjacency):
        if len(component) < 2:
            return True
        if not _component_falsifiable(component, edges, adjacency):
            return True
    return False


# -- graph algorithms ----------------------------------------------------------------


def _strongly_connected_components(adjacency: Dict[_Node, Set[_Node]]) -> List[FrozenSet[_Node]]:
    """Iterative Tarjan SCC over the block digraph."""
    index: Dict[_Node, int] = {}
    lowlink: Dict[_Node, int] = {}
    on_stack: Set[_Node] = set()
    stack: List[_Node] = []
    components: List[FrozenSet[_Node]] = []
    counter = [0]

    for root in sorted(adjacency, key=str):
        if root in index:
            continue
        work: List[Tuple[_Node, List[_Node], int]] = [(root, sorted(adjacency[root], key=str), 0)]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors, position = work.pop()
            advanced = False
            while position < len(successors):
                successor = successors[position]
                position += 1
                if successor not in index:
                    work.append((node, successors, position))
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, sorted(adjacency[successor], key=str), 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: Set[_Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


# -- per-component decision -----------------------------------------------------------


def _component_falsifiable(
    component: FrozenSet[_Node],
    edges: Sequence[_Edge],
    adjacency: Dict[_Node, Set[_Node]],
) -> bool:
    """Can the falsifier pick one fact per block of this component without
    completing a join pair?"""
    local_edges = [e for e in edges if e.source in component and e.target in component]

    # Case (a): an anti-parallel pair of facts with different labels.
    labels: Dict[Tuple[_Node, _Node], Set[IntRow]] = defaultdict(set)
    for edge in local_edges:
        labels[(edge.source, edge.target)].add(edge.label)
    for (source, target), label_set in labels.items():
        reverse = labels.get((target, source))
        if reverse is None:
            continue
        if len(label_set | reverse) >= 2:
            return True

    # Case (b): an elementary cycle of length > 2 on the block vertices.
    simple: Dict[_Node, Set[_Node]] = {
        node: {n for n in adjacency.get(node, set()) if n in component} for node in component
    }
    return _has_long_cycle(simple)


def _has_long_cycle(simple: Dict[_Node, Set[_Node]]) -> bool:
    """Does the simple digraph contain an elementary cycle of length > 2?

    Following the technique of Theorem 4 (specialised to ``k = 2``): such a
    cycle exists iff there are vertices ``n1 → n2 → n3`` with ``n3 ≠ n1`` and
    a path from ``n3`` back to ``n1`` that uses no edge leaving ``n1`` or
    ``n2``.
    """
    for n1 in simple:
        for n2 in simple[n1]:
            if n2 == n1:
                continue
            for n3 in simple.get(n2, set()):
                if n3 == n1 or n3 == n2:
                    continue
                if _reaches(simple, n3, n1, blocked_sources={n1, n2}):
                    return True
    return False


def _reaches(
    simple: Dict[_Node, Set[_Node]],
    start: _Node,
    goal: _Node,
    blocked_sources: Set[_Node],
) -> bool:
    seen: Set[_Node] = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        if node in blocked_sources:
            continue
        for successor in simple.get(node, set()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return False
