"""Theorem 3: polynomial CERTAINTY solver for weak, terminal attack cycles.

If every cycle of the attack graph of an acyclic self-join-free query is
weak **and terminal**, then ``CERTAINTY(q)`` is in P.  The algorithm follows
the proof of Theorem 3:

* induction step — while the attack graph has an unattacked atom, peel it
  exactly as in the FO case (the shared recursion of
  :mod:`repro.certainty.peeling`); by Lemma 5 the residual queries keep the
  premise (cycles stay weak and terminal);
* base case — when every atom is attacked, the attack graph is a disjoint
  union of weak terminal 2-cycles ``Fi ⇄ Gi`` (Lemma 6).  For each cycle,
  facts over the two relations are grouped into *partitions* by the values
  of the variables shared with other cycles; each partition is an
  independent two-atom certainty problem, solved by
  :mod:`repro.certainty.pair_solver`.  The database is certain iff the union
  of the certain partitions satisfies the query (Sublemma 5).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..attacks.cycles import (
    all_cycles_terminal,
    has_strong_cycle,
    strongly_connected_components,
)
from ..attacks.graph import AttackGraph
from ..model.atoms import Atom
from ..model.database import UncertainDatabase
from ..model.symbols import Variable
from ..query.conjunctive import ConjunctiveQuery
from ..store.columnar import ColumnarFactStore, IntRow, LiveRows
from ..store.kernels import AtomMatcher, has_witness
from .context import SolverContext
from .exceptions import UnsupportedQueryError
from .pair_solver import certain_weak_cycle_pair_rows
from .peeling import peel_certain


def applies_to(query: ConjunctiveQuery, context: Optional[SolverContext] = None) -> bool:
    """``True`` iff Theorem 3 covers the query (weak terminal cycles only).

    Queries with an *acyclic* attack graph are also covered (they simply
    never reach the base case).
    """
    if query.has_self_join or query.is_empty:
        return not query.has_self_join
    graph = context.attack_graph(query) if context is not None else AttackGraph(query)
    return not has_strong_cycle(graph) and all_cycles_terminal(graph)


def certain_terminal_cycles(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    context: Optional[SolverContext] = None,
) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` for a query with weak terminal cycles only.

    *context* optionally supplies precomputed attack graphs and fact indexes.
    """
    if not applies_to(query, context=context):
        raise UnsupportedQueryError(
            f"Theorem 3 does not apply to {query}: its attack graph has a strong or nonterminal cycle"
        )
    return peel_certain(db, query, _weak_terminal_base_case, context=context)


def _weak_terminal_base_case(
    store: ColumnarFactStore,
    live: LiveRows,
    query: ConjunctiveQuery,
    graph: AttackGraph,
) -> bool:
    """Base case of Theorem 3 over the live id-rows of the purified database.

    The peeling recursion hands in the rows its purification kept.  They
    are partitioned by shared-variable id vectors through
    :class:`~repro.store.kernels.AtomMatcher` (no fact decoding).

    Each partition goes to the pair solver, because the pair query of a
    cycle ``F ⇄ G`` keeps its 2-cycle.  In the base case every attack from
    F lands in F's terminal 2-cycle, and F attacks every atom on the
    join-tree path that witnesses ``F ⇝ G``, so that path has no third
    atom: the variables of the direct edge carry the attack.  F's closure
    in the pair query is contained in ``F⁺,q``, so those variables still
    escape it there, and ``F ⇝ G`` holds in the pair query; symmetrically
    so does ``G ⇝ F``.  The pair solver's key check refuses a pair query
    whose cycle is strong, so no attack graph is built for it here.

    Each partition is purified relative to its pair query: a row lies on a
    witness of the query inside *live*, whose partner row has the same
    shared-variable vector and joins it, and a block never spans two
    partitions.
    """
    cycles = _disjoint_two_cycles(graph)
    shared_variables = _cross_cycle_variables(query, cycles)

    certified: Dict[str, Set[IntRow]] = {}
    for first, second in cycles:
        pair_query = query.restricted_to([first, second])
        pair_shared = sorted(
            (first.variables | second.variables) & shared_variables,
            key=lambda v: v.name,
        )
        # Two rows of different partitions are never key-equal (the shared
        # variables are key variables of both atoms, Lemma 7), so every
        # repair of the pair sub-database decomposes into independent
        # repairs per partition.
        partitions: Dict[IntRow, Tuple[List[IntRow], List[IntRow]]] = {}
        for side, atom in enumerate((first, second)):
            matcher = AtomMatcher(atom, store)
            for row in live.get(atom.relation.name, ()):
                vector = matcher.values(row, pair_shared)
                entry = partitions.get(vector)
                if entry is None:
                    entry = ([], [])
                    partitions[vector] = entry
                entry[side].append(row)

        for first_rows, second_rows in partitions.values():
            if certain_weak_cycle_pair_rows(store, pair_query, first_rows, second_rows):
                certified.setdefault(first.relation.name, set()).update(first_rows)
                certified.setdefault(second.relation.name, set()).update(second_rows)
    # Sublemma 5: certain iff the union of the certain partitions satisfies
    # the query — evaluated without materialising the union as facts.
    return has_witness(query, store, allowed=certified)


def _disjoint_two_cycles(graph: AttackGraph) -> List[Tuple[Atom, Atom]]:
    """The weak terminal 2-cycles that partition the atoms in the base case."""
    cycles: List[Tuple[Atom, Atom]] = []
    covered: Set[Atom] = set()
    for component in strongly_connected_components(graph):
        if len(component) != 2:
            raise UnsupportedQueryError(
                "base case of Theorem 3 expects disjoint attack 2-cycles; "
                f"found a strongly connected component of size {len(component)}"
            )
        first, second = sorted(component, key=str)
        if not (graph.has_attack(first, second) and graph.has_attack(second, first)):
            raise UnsupportedQueryError("strongly connected pair without a mutual attack")
        if graph.is_strong_attack(first, second) or graph.is_strong_attack(second, first):
            raise UnsupportedQueryError("base case of Theorem 3 requires weak cycles only")
        for atom in component:
            for target in graph.attacks_from(atom):
                if target not in component:
                    raise UnsupportedQueryError("base case of Theorem 3 requires terminal cycles")
        cycles.append((first, second))
        covered |= component
    if covered != set(graph.atoms):
        raise UnsupportedQueryError("every atom must lie on an attack cycle in the base case")
    return cycles


def _cross_cycle_variables(
    query: ConjunctiveQuery,
    cycles: Sequence[Tuple[Atom, Atom]],
) -> FrozenSet[Variable]:
    """Variables that occur in more than one attack cycle (the partition vectors)."""
    occurrence: Dict[Variable, int] = defaultdict(int)
    for first, second in cycles:
        for variable in first.variables | second.variables:
            occurrence[variable] += 1
    return frozenset(v for v, count in occurrence.items() if count > 1)
