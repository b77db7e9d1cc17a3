"""Attack graphs of acyclic conjunctive queries.

Definition 3 of the paper: given a join tree ``τ`` for ``q``, the attack
graph has the atoms of ``q`` as vertices and a directed edge (*attack*)
``F ⤳ G`` whenever, for every label ``L`` on the unique path between ``F``
and ``G`` in ``τ``, ``L ⊄ F^{+,q}`` (no label is contained in the closure).
The graph is independent of the chosen join tree (Wijsen 2012), which this
library verifies in its test suite by recomputing it over all join trees of
small queries.

Definition 5: an attack ``F ⤳ G`` is *weak* when ``key(G) ⊆ F^{⊞,q}`` and
*strong* otherwise.  Cycles are weak when all their attacks are weak.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..model.atoms import Atom
from ..model.symbols import Variable
from ..query.conjunctive import ConjunctiveQuery
from ..query.jointree import JoinTree, build_join_tree
from .closure import all_box_closures, all_plus_closures


class Attack:
    """A directed attack ``source ⤳ target`` with its weak/strong label."""

    __slots__ = ("source", "target", "is_weak")

    def __init__(self, source: Atom, target: Atom, is_weak: bool) -> None:
        self.source = source
        self.target = target
        self.is_weak = is_weak

    @property
    def is_strong(self) -> bool:
        """``True`` iff the attack is strong (not weak)."""
        return not self.is_weak

    def __repr__(self) -> str:
        kind = "weak" if self.is_weak else "strong"
        return f"Attack({self.source} ⤳ {self.target}, {kind})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attack)
            and self.source == other.source
            and self.target == other.target
            and self.is_weak == other.is_weak
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.is_weak))


class AttackGraph:
    """The attack graph of an acyclic, self-join-free conjunctive query."""

    def __init__(self, query: ConjunctiveQuery, join_tree: Optional[JoinTree] = None) -> None:
        if query.has_self_join:
            raise ValueError("attack graphs are defined for self-join-free queries only")
        self.query = query
        self.join_tree = join_tree if join_tree is not None else build_join_tree(query)
        self.plus_closures: Dict[Atom, FrozenSet[Variable]] = all_plus_closures(query)
        self.box_closures: Dict[Atom, FrozenSet[Variable]] = all_box_closures(query)
        self._attacks: Dict[Tuple[Atom, Atom], Attack] = {}
        self._successors: Dict[Atom, List[Atom]] = {atom: [] for atom in query.atoms}
        self._predecessors: Dict[Atom, List[Atom]] = {atom: [] for atom in query.atoms}
        self._build()

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        atoms = self.query.atoms
        for source in atoms:
            closure = self.plus_closures[source]
            for target in atoms:
                if source == target:
                    continue
                labels = self.join_tree.path_labels(source, target)
                if all(not label.issubset(closure) for label in labels):
                    is_weak = target.key_variables.issubset(self.box_closures[source])
                    attack = Attack(source, target, is_weak)
                    self._attacks[(source, target)] = attack
                    self._successors[source].append(target)
                    self._predecessors[target].append(source)

    # -- queries on the graph --------------------------------------------------------

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """The vertices of the attack graph (the atoms of the query)."""
        return self.query.atoms

    @property
    def attacks(self) -> List[Attack]:
        """All attacks, in a deterministic order."""
        return [self._attacks[key] for key in sorted(self._attacks, key=lambda p: (str(p[0]), str(p[1])))]

    def attacks_from(self, atom: Atom) -> List[Atom]:
        """The atoms attacked by *atom*."""
        return list(self._successors[atom])

    def attacks_on(self, atom: Atom) -> List[Atom]:
        """The atoms attacking *atom*."""
        return list(self._predecessors[atom])

    def has_attack(self, source: Atom, target: Atom) -> bool:
        """``F ⤳ G``?"""
        return (source, target) in self._attacks

    def attack(self, source: Atom, target: Atom) -> Attack:
        """The attack object for ``source ⤳ target`` (KeyError if absent)."""
        return self._attacks[(source, target)]

    def is_weak_attack(self, source: Atom, target: Atom) -> bool:
        """``True`` iff the attack exists and is weak."""
        attack = self._attacks.get((source, target))
        return attack is not None and attack.is_weak

    def is_strong_attack(self, source: Atom, target: Atom) -> bool:
        """``True`` iff the attack exists and is strong."""
        attack = self._attacks.get((source, target))
        return attack is not None and attack.is_strong

    def unattacked_atoms(self) -> List[Atom]:
        """Atoms with no incoming attack (in-degree zero)."""
        return [atom for atom in self.query.atoms if not self._predecessors[atom]]

    def in_degree(self, atom: Atom) -> int:
        """The number of attacks on *atom*."""
        return len(self._predecessors[atom])

    def out_degree(self, atom: Atom) -> int:
        """The number of attacks from *atom*."""
        return len(self._successors[atom])

    # -- acyclicity ----------------------------------------------------------------------

    def is_acyclic(self) -> bool:
        """``True`` iff the attack graph has no directed cycle (Theorem 1: FO case)."""
        return self.topological_order() is not None

    def topological_order(self) -> Optional[List[Atom]]:
        """A topological order of the attack graph, or ``None`` if it is cyclic."""
        in_degree = {atom: len(self._predecessors[atom]) for atom in self.query.atoms}
        ready = [atom for atom, deg in in_degree.items() if deg == 0]
        order: List[Atom] = []
        ready.sort(key=str)
        while ready:
            atom = ready.pop(0)
            order.append(atom)
            for successor in self._successors[atom]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
            ready.sort(key=str)
        if len(order) != len(self.query.atoms):
            return None
        return order

    # -- rendering -------------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"AttackGraph({len(self.query)} atoms, {len(self._attacks)} attacks)"

    def pretty(self) -> str:
        """A readable listing of every attack with its weak/strong label."""
        lines = []
        for attack in self.attacks:
            kind = "weak" if attack.is_weak else "STRONG"
            lines.append(f"{attack.source}  ⤳  {attack.target}   [{kind}]")
        return "\n".join(lines) if lines else "(no attacks)"

    def to_edge_set(self) -> Set[Tuple[str, str]]:
        """The attack edges as pairs of relation names (useful for comparisons)."""
        return {(s.name, t.name) for (s, t) in self._attacks}


@lru_cache(maxsize=4096)
def attack_graph(query: ConjunctiveQuery) -> AttackGraph:
    """The attack graph of *query*, memoised per query for the process.

    The graph depends on the query alone and is never mutated once built,
    so every solver and session shares one per query: the peeling
    recursion's residual queries repeat across blocks, candidates and
    sessions.
    """
    return AttackGraph(query)
