"""Cycles of attack graphs: enumeration and weak/strong/terminal classification.

Definition 5 of the paper: a (directed, elementary) cycle is *strong* when at
least one of its attacks is strong, and *weak* otherwise.  Definition 6: a
cycle is *terminal* when no edge leads from a vertex in the cycle to a vertex
outside the cycle.

The classifier of :mod:`repro.core.classify` only needs three facts — is the
graph cyclic, does it contain a strong cycle, is every cycle terminal — each
of which can be decided without enumerating all cycles:

* strong cycle existence: by Lemma 4 it suffices to look for a strong cycle
  of length 2, i.e. atoms ``F, G`` with ``F ⤳ G ⤳ F`` where one of the two
  attacks is strong;
* "all cycles terminal": every strongly connected component with ≥ 2 atoms
  must have no outgoing edge to atoms outside the component, and (Lemma 6)
  must in fact be a 2-cycle.

Explicit cycle enumeration (bounded) is still provided for reporting and for
property-based tests of the lemmas.  :func:`tarjan_components` is the
engine's one strongly-connected-components routine; the marking graphs of
Theorems 3 and 4 use it too.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..model.atoms import Atom
from .graph import AttackGraph

#: A vertex of a graph given as a successor map.
Node = TypeVar("Node", bound=Hashable)


class AttackCycle:
    """An elementary cycle ``F0 ⤳ F1 ⤳ ... ⤳ F_{n-1} ⤳ F0`` in an attack graph."""

    __slots__ = ("atoms", "is_strong", "is_terminal")

    def __init__(self, atoms: Sequence[Atom], is_strong: bool, is_terminal: bool) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self.is_strong = is_strong
        self.is_terminal = is_terminal

    @property
    def is_weak(self) -> bool:
        """``True`` iff no attack of the cycle is strong."""
        return not self.is_strong

    @property
    def length(self) -> int:
        """The number of atoms (= attacks) in the cycle."""
        return len(self.atoms)

    def __repr__(self) -> str:
        chain = " ⤳ ".join(str(a) for a in self.atoms) + f" ⤳ {self.atoms[0]}"
        kind = "strong" if self.is_strong else "weak"
        term = "terminal" if self.is_terminal else "nonterminal"
        return f"AttackCycle({chain}; {kind}, {term})"

    def canonical_key(self) -> Tuple[str, ...]:
        """A rotation-invariant key identifying the cycle (for deduplication)."""
        names = [str(a) for a in self.atoms]
        best = min(range(len(names)), key=lambda i: names[i:] + names[:i])
        rotated = names[best:] + names[:best]
        return tuple(rotated)


def strongly_connected_components(graph: AttackGraph) -> List[FrozenSet[Atom]]:
    """Tarjan's algorithm over the attack graph (deterministic order)."""
    return tarjan_components(
        {atom: sorted(graph.attacks_from(atom), key=str) for atom in sorted(graph.atoms, key=str)}
    )


def tarjan_components(successors: Mapping[Node, Iterable[Node]]) -> List[FrozenSet[Node]]:
    """Tarjan's strongly connected components of a successor map (iterative).

    Every successor must itself be a key of *successors*.  Roots are taken
    in the map's order and successors in their iteration order, so the
    components come out in one deterministic (reverse topological) order.
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[FrozenSet[Node]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[Node, Iterator[Node]]] = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors[successor])))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[Node] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
    return components


def _component_is_cyclic(graph: AttackGraph, component: FrozenSet[Atom]) -> bool:
    if len(component) > 1:
        return True
    atom = next(iter(component))
    return graph.has_attack(atom, atom)  # self-attacks never occur, kept for safety


def atoms_on_cycles(graph: AttackGraph) -> FrozenSet[Atom]:
    """The set of atoms that lie on at least one directed cycle."""
    out: Set[Atom] = set()
    for component in strongly_connected_components(graph):
        if _component_is_cyclic(graph, component):
            out |= component
    return frozenset(out)


def has_strong_cycle(graph: AttackGraph) -> bool:
    """``True`` iff the attack graph contains a strong cycle.

    By Lemma 4 a strong cycle exists iff a strong cycle of *length 2* exists,
    so this check is quadratic in the number of atoms.
    """
    for source in graph.atoms:
        for target in graph.attacks_from(source):
            if graph.has_attack(target, source):
                if graph.is_strong_attack(source, target) or graph.is_strong_attack(target, source):
                    return True
    return False


def strong_two_cycle(graph: AttackGraph) -> Optional[Tuple[Atom, Atom]]:
    """Return atoms ``(F, G)`` with ``F ⤳ G ⤳ F`` and ``F ⤳ G`` strong, if any.

    This is the witness used by the Theorem 2 reduction.
    """
    for source in sorted(graph.atoms, key=str):
        for target in sorted(graph.attacks_from(source), key=str):
            if not graph.has_attack(target, source):
                continue
            if graph.is_strong_attack(source, target):
                return (source, target)
            if graph.is_strong_attack(target, source):
                return (target, source)
    return None


def cycle_is_terminal(graph: AttackGraph, cycle_atoms: Iterable[Atom]) -> bool:
    """Definition 6: no attack from a cycle vertex to a vertex outside the cycle."""
    members = set(cycle_atoms)
    for atom in members:
        for successor in graph.attacks_from(atom):
            if successor not in members:
                return False
    return True


def all_cycles_terminal(graph: AttackGraph) -> bool:
    """``True`` iff every cycle of the attack graph is terminal.

    Every cycle lives inside a strongly connected component; a cycle through
    an atom with an attack leaving its component is nonterminal, and
    conversely, an edge leaving a *cyclic* SCC makes some cycle nonterminal.
    Moreover an SCC of size ≥ 3 always contains a nonterminal cycle (Lemma 6's
    contrapositive), and within an SCC of size 2 the unique cycle is the
    2-cycle, which must have no outgoing edges at all.
    """
    for component in strongly_connected_components(graph):
        if len(component) < 2:
            continue
        if len(component) > 2:
            return False
        if not cycle_is_terminal(graph, component):
            return False
    return True


def enumerate_cycles(graph: AttackGraph, max_cycles: int = 10000) -> List[AttackCycle]:
    """Enumerate elementary cycles (Johnson-style DFS, bounded by *max_cycles*)."""
    cycles: List[AttackCycle] = []
    seen_keys: Set[Tuple[str, ...]] = set()
    atoms = sorted(graph.atoms, key=str)
    order = {atom: i for i, atom in enumerate(atoms)}

    def dfs(start: Atom, node: Atom, path: List[Atom], visited: Set[Atom]) -> None:
        if len(cycles) >= max_cycles:
            return
        for successor in sorted(graph.attacks_from(node), key=str):
            if successor == start and len(path) >= 2:
                _record(path)
            elif successor not in visited and order[successor] > order[start]:
                visited.add(successor)
                path.append(successor)
                dfs(start, successor, path, visited)
                path.pop()
                visited.discard(successor)

    def _record(path: List[Atom]) -> None:
        strong = any(
            graph.is_strong_attack(path[i], path[(i + 1) % len(path)]) for i in range(len(path))
        )
        terminal = cycle_is_terminal(graph, path)
        cycle = AttackCycle(list(path), strong, terminal)
        key = cycle.canonical_key()
        if key not in seen_keys:
            seen_keys.add(key)
            cycles.append(cycle)

    # Also record 2-cycles directly (the DFS above finds them too, but this
    # keeps behaviour obvious and cheap for the common case).
    for start in atoms:
        dfs(start, start, [start], {start})
        if len(cycles) >= max_cycles:
            break
    return cycles


def weak_cycles(graph: AttackGraph, max_cycles: int = 10000) -> List[AttackCycle]:
    """All weak cycles (bounded enumeration)."""
    return [c for c in enumerate_cycles(graph, max_cycles) if c.is_weak]


def strong_cycles(graph: AttackGraph, max_cycles: int = 10000) -> List[AttackCycle]:
    """All strong cycles (bounded enumeration)."""
    return [c for c in enumerate_cycles(graph, max_cycles) if c.is_strong]
