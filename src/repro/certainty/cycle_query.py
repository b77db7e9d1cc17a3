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

:func:`marking_certain` is that component test, and the engine's only one:
the Theorem 3 pair solver (:mod:`repro.certainty.pair_solver`) runs it at
``k = 2`` on its block digraph.  Purification filters the id-rows of the
one columnar index the decision starts from
(:func:`~repro.certainty.purify.purify_rows`), and the fact graph reads the
live rows; no database is copied.

``C(k)`` (cyclic for ``k ≥ 3``, so outside the attack-graph framework) is
solved both directly (witness cycles = all ``k``-cycles) and through the
Lemma 9 reduction to ``AC(k)``, which is also provided for cross-checking.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..attacks.cycles import Node, tarjan_components
from ..model.atoms import RelationSchema
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..query.families import cycle_query_shape
from .context import SolverContext, scratch_index
from .exceptions import UnsupportedQueryError
from .purify import purify_rows

#: Fact-graph vertex: (ring position starting at 0, term id).
_Vertex = Tuple[int, int]


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
    k = shape.k
    adjacency: Dict[_Vertex, Set[_Vertex]] = defaultdict(set)
    for position, atom in enumerate(shape.ring_atoms):
        for row in live.get(atom.relation.name, ()):
            target = ((position + 1) % k, row[1])
            adjacency[(position, row[0])].add(target)
            adjacency.setdefault(target, set())
    if shape.sk_atom is None:
        # C(k): every k-cycle is a witness cycle, so Case 1 never applies.
        return marking_certain(adjacency, k, lambda _cycle: False)
    witnesses: Set[Tuple[_Vertex, ...]] = set()
    for row in live.get(shape.sk_atom.relation.name, ()):
        values = dict(zip(shape.sk_atom.terms, row))
        witnesses.add(
            tuple((position, values[variable]) for position, variable in enumerate(shape.variables))
        )
    # The test meets each k-cycle once from every vertex; the rotation that
    # starts at ring position 0 is the one an Sk fact encodes.
    return marking_certain(
        adjacency, k, lambda cycle: cycle[0][0] == 0 and cycle not in witnesses
    )


def marking_certain(
    adjacency: Mapping[Node, Set[Node]],
    k: int,
    non_witness_k_cycle: Callable[[Tuple[Node, ...]], bool],
) -> bool:
    """Theorem 4's component test: is every repair of the graph's database
    forced to mark a witness cycle?

    *adjacency* maps every vertex to its successors.  It is the graph of a
    purified database: one vertex per block, and an edge from each fact's
    block to the block its values lead to, so a repair marks one outgoing
    edge per vertex.  The graph is ``k``-partite, every edge leading from
    one part to the next (cyclically).  *non_witness_k_cycle* receives a
    ``k``-cycle as its ``k`` vertices and says whether the falsifier may
    mark it: whether some choice of its edges' facts is no witness.  The
    graph is certain iff some strongly connected component holds neither
    such a ``k``-cycle (Case 1) nor an elementary cycle longer than ``k``
    (Case 2).
    """
    for component in tarjan_components(adjacency):
        if not _component_falsifiable(adjacency, component, k, non_witness_k_cycle):
            return True
    return False


def _component_falsifiable(
    adjacency: Mapping[Node, Set[Node]],
    component: FrozenSet[Node],
    k: int,
    non_witness_k_cycle: Callable[[Tuple[Node, ...]], bool],
) -> bool:
    """Can the falsifier mark one outgoing edge per vertex of this component
    without completing a witness cycle?

    Every walk ``a1, ..., a_{k+1}`` of ``k`` edges inside the component is
    tested.  When it closes (``a_{k+1} = a1``) it is a ``k``-cycle, and
    Case 1 asks the caller's test.  Otherwise (Case 2) an elementary cycle
    longer than ``k`` exists iff some such walk has a path from ``a_{k+1}``
    back to ``a1`` that uses no edge leaving ``{a1, ..., ak}``.  A walk's
    first ``k`` vertices lie in ``k`` different parts, so they are distinct.
    """
    for start in component:
        for path in _paths_of_length(adjacency, start, k, component):
            last = path[-1]
            if last == start:
                if non_witness_k_cycle(path[:-1]):
                    return True
            elif _reaches(adjacency, last, start, set(path[:-1]), component):
                return True
    return False


def _paths_of_length(
    adjacency: Mapping[Node, Set[Node]],
    start: Node,
    length: int,
    component: FrozenSet[Node],
) -> List[Tuple[Node, ...]]:
    """Every walk of *length* edges from *start* inside *component*."""
    paths: List[Tuple[Node, ...]] = [(start,)]
    for _ in range(length):
        paths = [
            path + (successor,)
            for path in paths
            for successor in adjacency[path[-1]]
            if successor in component
        ]
    return paths


def _reaches(
    adjacency: Mapping[Node, Set[Node]],
    start: Node,
    goal: Node,
    blocked_sources: Set[Node],
    component: FrozenSet[Node],
) -> bool:
    """Does a path inside *component* lead from *start* to *goal* without
    taking an edge out of *blocked_sources*?"""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        if node in blocked_sources:
            continue
        for successor in adjacency[node]:
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
