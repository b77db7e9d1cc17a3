"""Theorem 4 / Corollary 1: polynomial CERTAINTY solver for ``AC(k)`` and ``C(k)``.

The attack graph of ``AC(k)`` has weak *nonterminal* cycles, so Theorem 3
does not apply; Theorem 4 gives a dedicated graph algorithm.  Facts of the
ring relations ``R1, ..., Rk`` are the edges of a ``k``-partite directed
graph over (position-tagged) constants.  A repair picks one outgoing edge
per vertex; it satisfies the query iff the picked edges contain all edges of
a *witness cycle* — a ``k``-cycle that is encoded by an ``Sk`` fact (for
``AC(k)``) or any ``k``-cycle at all (for ``C(k)``, where no ``Sk`` atom
constrains the witnesses).

After purification the graph is a disjoint union of strongly connected
components.  A falsifying repair exists iff *every* component admits an
allowed marked cycle, i.e. contains a ``k``-cycle that is not a witness
cycle or an elementary cycle longer than ``k``.  Hence

    ``db ∈ CERTAINTY(q)``  ⇔  some component contains neither.

Purification filters the id-rows of the one columnar index the decision
starts from (:func:`~repro.certainty.purify.purify_rows`), and the fact
graph reads the live rows; no database is copied.

``C(k)`` (cyclic for ``k ≥ 3``, so outside the attack-graph framework) is
solved both directly (witness cycles = all ``k``-cycles) and through the
Lemma 9 reduction to ``AC(k)``, which is also provided for cross-checking.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..model.atoms import RelationSchema
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..query.families import CycleQueryShape, cycle_query_shape
from ..store.columnar import LiveRows
from .context import SolverContext, scratch_index
from .exceptions import UnsupportedQueryError
from .purify import purify_rows

#: Graph vertex: (ring position starting at 0, term id).
_Node = Tuple[int, int]


def certain_cycle_query(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    context: Optional[SolverContext] = None,
) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` for a query of the ``C(k)``/``AC(k)`` shape.

    *context* optionally supplies the memoised cycle shape and a shared fact
    index; without it a scratch index is built.  Purification filters the
    index's id-rows, and the fact graph is built from the live rows.
    """
    shape = context.cycle_shape(query) if context is not None else cycle_query_shape(query)
    if shape is None:
        raise UnsupportedQueryError(f"{query} is not of the C(k)/AC(k) shape of Definition 8")
    index = context.index_for(db) if context is not None else None
    if index is None:
        index = scratch_index(db)
    live = purify_rows(query, index.store)
    if not any(live.values()):
        return False
    graph = _FactGraph(shape, live)
    components = graph.strongly_connected_components()
    for component in components:
        if not graph.component_falsifiable(component):
            return True
    return False


class _FactGraph:
    """The k-partite fact graph of Theorem 4, with per-component decisions.

    Vertices are (ring position, term id) pairs and edges are the live
    id-rows of the purified ring relations.
    """

    def __init__(self, shape: CycleQueryShape, live: LiveRows) -> None:
        self.shape = shape
        self.k = shape.k
        self.adjacency: Dict[_Node, Set[_Node]] = defaultdict(set)
        self.witness_cycles: Optional[Set[Tuple[_Node, ...]]] = None
        for position, atom in enumerate(shape.ring_atoms):
            for row in live.get(atom.relation.name, ()):
                source = (position, row[0])
                target = ((position + 1) % self.k, row[1])
                self.adjacency[source].add(target)
                self.adjacency.setdefault(target, set())
        if shape.sk_atom is not None:
            self.witness_cycles = set()
            for row in live.get(shape.sk_atom.relation.name, ()):
                values = dict(zip(shape.sk_atom.terms, row))
                nodes = tuple(
                    (position, values[variable])
                    for position, variable in enumerate(shape.variables)
                )
                self.witness_cycles.add(nodes)

    # -- structure ---------------------------------------------------------------

    def strongly_connected_components(self) -> List[FrozenSet[_Node]]:
        """Tarjan SCC over the fact graph (iterative)."""
        index: Dict[_Node, int] = {}
        lowlink: Dict[_Node, int] = {}
        on_stack: Set[_Node] = set()
        stack: List[_Node] = []
        components: List[FrozenSet[_Node]] = []
        counter = [0]

        for root in sorted(self.adjacency, key=str):
            if root in index:
                continue
            work: List[Tuple[_Node, List[_Node], int]] = [
                (root, sorted(self.adjacency[root], key=str), 0)
            ]
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
                        work.append((successor, sorted(self.adjacency[successor], key=str), 0))
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

    # -- per-component decision -----------------------------------------------------

    def component_falsifiable(self, component: FrozenSet[_Node]) -> bool:
        """Can the falsifier mark one outgoing edge per vertex of this component
        without completing a witness cycle?"""
        if len(component) < 2:
            # A vertex with no outgoing edge inside its component cannot occur
            # after purification; treat it as non-falsifiable (forces certainty).
            return False
        if self._has_non_witness_k_cycle(component):
            return True
        return self._has_long_cycle(component)

    def _k_cycles_from(self, start: _Node, component: FrozenSet[_Node]) -> Iterable[Tuple[_Node, ...]]:
        """All k-cycles through *start* (walking positions forward), inside the component."""
        path = [start]

        def extend(node: _Node, depth: int) -> Iterable[Tuple[_Node, ...]]:
            for successor in sorted(self.adjacency.get(node, set()), key=str):
                if successor not in component:
                    continue
                if depth == self.k:
                    if successor == start:
                        yield tuple(path)
                    continue
                path.append(successor)
                yield from extend(successor, depth + 1)
                path.pop()

        yield from extend(start, 1)

    def _has_non_witness_k_cycle(self, component: FrozenSet[_Node]) -> bool:
        """Case 1 of Theorem 4: a k-cycle that is not a witness cycle."""
        if self.witness_cycles is None:
            # C(k): every k-cycle is a witness cycle; case 1 never applies.
            return False
        starts = sorted((node for node in component if node[0] == 0), key=str)
        for start in starts:
            for cycle in self._k_cycles_from(start, component):
                if cycle not in self.witness_cycles:
                    return True
        return False

    def _has_long_cycle(self, component: FrozenSet[_Node]) -> bool:
        """Case 2 of Theorem 4: an elementary cycle of length strictly greater than k.

        Such a cycle exists iff there is a path ``a1, ..., a_{k+1}`` with
        ``a1 ≠ a_{k+1}`` and a path from ``a_{k+1}`` back to ``a1`` that uses
        no edge leaving ``{a1, ..., ak}``.
        """
        for start in sorted(component, key=str):
            for path in self._paths_of_length(start, self.k, component):
                last = path[-1]
                if last == start:
                    continue
                blocked = set(path[:-1])
                if self._reaches(last, start, blocked, component):
                    return True
        return False

    def _paths_of_length(
        self, start: _Node, length: int, component: FrozenSet[_Node]
    ) -> Iterable[Tuple[_Node, ...]]:
        path = [start]

        def extend(node: _Node, remaining: int) -> Iterable[Tuple[_Node, ...]]:
            if remaining == 0:
                yield tuple(path)
                return
            for successor in sorted(self.adjacency.get(node, set()), key=str):
                if successor not in component:
                    continue
                path.append(successor)
                yield from extend(successor, remaining - 1)
                path.pop()

        yield from extend(start, length)

    def _reaches(
        self,
        start: _Node,
        goal: _Node,
        blocked_sources: Set[_Node],
        component: FrozenSet[_Node],
    ) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            if node in blocked_sources:
                continue
            for successor in self.adjacency.get(node, set()):
                if successor in component and successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False


# -- the Lemma 9 reduction ------------------------------------------------------------


def lemma9_expand(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    subquery: ConjunctiveQuery,
) -> UncertainDatabase:
    """The AC0 reduction of Lemma 9, materialised.

    Given ``q' ⊆ q`` where every atom of ``q \\ q'`` is all-key, build the
    database ``f(db)`` that keeps the facts over ``q'``'s relations and adds
    *every* tuple over the active domain for the all-key relations, so that
    ``db ∈ CERTAINTY(q') ⇔ f(db) ∈ CERTAINTY(q)``.  The output has size
    ``O(|D|^arity)`` — polynomial for a fixed query, but intended for small
    domains (tests and cross-checks).
    """
    sub_atoms = set(subquery.atoms)
    extra_atoms = [a for a in query.atoms if a not in sub_atoms]
    for atom in extra_atoms:
        if not atom.relation.is_all_key:
            raise UnsupportedQueryError("Lemma 9 requires every added atom to be all-key")
    sub_names = {a.relation.name for a in subquery.atoms}
    result = UncertainDatabase(f for f in db if f.relation.name in sub_names)
    domain = sorted(db.active_domain(), key=str)
    for atom in extra_atoms:
        for values in itertools.product(domain, repeat=atom.relation.arity):
            result.add(atom.relation.fact(*[v.value for v in values]))
    return result


def certain_ck_via_reduction(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide ``CERTAINTY(C(k))`` through the Lemma 9 reduction to ``AC(k)``.

    Provided for cross-checking the direct algorithm; the reduction
    materialises ``|D|^k`` facts, so use small domains only.
    """
    shape = cycle_query_shape(query)
    if shape is None or shape.has_sk_atom:
        raise UnsupportedQueryError("certain_ck_via_reduction expects a C(k) query")
    k = shape.k
    sk_name = f"SK_reduction_{k}"
    sk = RelationSchema(sk_name, k, k)
    ac_query = ConjunctiveQuery(list(query.atoms) + [sk.atom(*shape.variables)])
    expanded = lemma9_expand(db, ac_query, query)
    return certain_cycle_query(expanded, ac_query)
