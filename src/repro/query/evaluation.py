"""Evaluation of conjunctive queries over sets of facts.

Query satisfaction follows Section 3 of the paper: ``db |= q`` iff there is a
valuation ``θ`` over ``vars(q)`` such that ``θ(F) ∈ db`` for every atom
``F ∈ q``.  Evaluation is implemented as a backtracking join with a greedy
"most-bound-first" atom ordering and per-relation fact indexes, which is
adequate for the query sizes that occur in certain-answer classification
(queries are small; databases can be large).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..model.atoms import Atom, Fact
from ..model.symbols import Constant, Variable, is_constant
from ..model.valuation import Valuation
from .conjunctive import ConjunctiveQuery

_EMPTY: Dict[Fact, None] = {}


class FactIndex:
    """Facts grouped by relation name, with an index on key values.

    The definition-level index behind the textbook evaluator of this module
    (:func:`iterate_valuations` and the functions built on it), which
    :func:`~repro.certainty.brute_force.certain_by_enumeration` and the
    tests' oracle read.  It is built once from a collection of facts and
    then only read; engine sessions, solvers and views run on a
    :class:`~repro.store.index.ColumnarFactIndex` instead.

    Facts are stored in insertion-ordered dict-sets so iteration stays
    deterministic and membership is O(1).
    """

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._by_relation: Dict[str, Dict[Fact, None]] = {}
        self._by_block: Dict[Tuple[str, Tuple[Constant, ...]], Dict[Fact, None]] = {}
        self._size = 0
        for fact in facts:
            self.add(fact)

    def add(self, fact: Fact) -> None:
        """Insert a fact (idempotent); used while building the index."""
        name = fact.relation.name
        relation = self._by_relation.setdefault(name, {})
        if fact in relation:
            return
        relation[fact] = None
        self._by_block.setdefault((name, fact.key_terms), {})[fact] = None
        self._size += 1

    # -- lookups ----------------------------------------------------------------

    def relation(self, name: str) -> Collection[Fact]:
        """All facts of relation *name*."""
        return self._by_relation.get(name, _EMPTY).keys()

    def block(self, name: str, key_values: Tuple[Constant, ...]) -> Collection[Fact]:
        """All facts of relation *name* with the given key values."""
        return self._by_block.get((name, key_values), _EMPTY).keys()

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        return fact in self._by_relation.get(fact.relation.name, _EMPTY)

    def __iter__(self) -> Iterator[Fact]:
        for relation in self._by_relation.values():
            yield from relation

    def __len__(self) -> int:
        return self._size


def match_atom(atom: Atom, fact: Fact, valuation: Valuation) -> Optional[Valuation]:
    """Try to extend *valuation* so that it maps *atom* onto *fact*.

    Returns the extended valuation, or ``None`` if the fact does not match
    the atom pattern (wrong relation, conflicting constant, or a repeated
    variable bound to two different values).
    """
    if atom.relation.name != fact.relation.name or atom.relation.arity != fact.relation.arity:
        return None
    bindings = valuation.as_dict()
    for term, value in zip(atom.terms, fact.terms):
        if is_constant(term):
            if term != value:
                return None
        else:
            existing = bindings.get(term)
            if existing is None:
                bindings[term] = value  # type: ignore[assignment]
            elif existing != value:
                return None
    return Valuation(bindings)


@lru_cache(maxsize=2048)
def order_atoms(query: ConjunctiveQuery, first: Optional[Atom] = None) -> Tuple[Atom, ...]:
    """Greedy atom ordering: maximise connectivity with already-placed atoms.

    The ordering starts from *first* when given (the seeded delta join of
    :func:`repro.store.kernels.seeded_bindings` pins that atom to an
    inserted row), else from the atom with the most constants (the most
    selective).  It depends only on its arguments, so it is memoised:
    repeated evaluations of the same (or residual) query reuse the order.
    """
    remaining = list(query.atoms)
    if not remaining:
        return ()
    ordered: List[Atom] = []
    bound: Set[Variable] = set()
    if first is None:
        first = max(remaining, key=lambda a: (len(a.constants), -len(a.variables)))
    ordered.append(first)
    bound |= first.variables
    remaining.remove(first)
    while remaining:
        best = max(
            remaining,
            key=lambda a: (len(a.variables & bound), len(a.constants), -len(a.variables)),
        )
        ordered.append(best)
        bound |= best.variables
        remaining.remove(best)
    return tuple(ordered)


#: Per-position match operations of a compiled backtracking step.
CHECK_CONST, CHECK_SLOT, BIND_SLOT = 0, 1, 2


@lru_cache(maxsize=2048)
def backtrack_plan(query: ConjunctiveQuery, first: Optional[Atom] = None):
    """Compile *query* into slot-based backtracking steps (memoised).

    Variables are assigned dense *slots* (ints) in first-occurrence order
    over the greedy :func:`order_atoms` ordering (started from *first* when
    given), so the join loop can keep its bindings in one mutable list
    instead of rebuilding a :class:`~repro.model.valuation.Valuation` dict
    per matched fact.  Each step describes one atom:

    ``(atom, ops, key_plan)``
        *ops* is a tuple of ``(op, position, arg)`` with *op* one of
        :data:`CHECK_CONST` (arg: the constant), :data:`CHECK_SLOT` (arg:
        the slot the position must equal) or :data:`BIND_SLOT` (arg: the
        slot the position binds); a repeated variable's first occurrence
        binds and later occurrences check, whether the repeat is within one
        atom or across atoms.  *key_plan* covers the primary-key positions
        with ``(slot, None)`` / ``(None, constant)`` entries when the whole
        key is determined by earlier steps (enabling a block probe), and is
        ``None`` otherwise.

    The same structural plan drives both the object-level loop below and
    the integer-encoded sweeps of :mod:`repro.store.kernels` (which look
    the constants up in an intern table per call).
    """
    steps = []
    slots: Dict[Variable, int] = {}
    for atom in order_atoms(query, first):
        before = dict(slots)
        ops: List[Tuple[int, int, object]] = []
        for position, term in enumerate(atom.terms):
            if is_constant(term):
                ops.append((CHECK_CONST, position, term))
            elif term in slots:
                ops.append((CHECK_SLOT, position, slots[term]))
            else:
                slot = len(slots)
                slots[term] = slot  # type: ignore[index]
                ops.append((BIND_SLOT, position, slot))
        key_plan: Optional[List[Tuple[Optional[int], Optional[Constant]]]] = []
        for position in range(atom.relation.key_size):
            term = atom.terms[position]
            if is_constant(term):
                key_plan.append((None, term))
            elif term in before:
                key_plan.append((before[term], None))
            else:
                key_plan = None
                break
        steps.append(
            (atom, tuple(ops), tuple(key_plan) if key_plan is not None else None)
        )
    return tuple(steps), tuple(slots.items())


def iterate_valuations(
    query: ConjunctiveQuery,
    index: FactIndex,
    restrict_to: Optional[FrozenSet[Fact]] = None,
) -> Iterator[Valuation]:
    """Yield every valuation ``θ`` over ``vars(q)`` with ``θ(q) ⊆`` the facts.

    Runs the compiled :func:`backtrack_plan`: one mutable slot array holds
    the bindings across the whole search, and a :class:`Valuation` object
    is only materialised per *solution* (not per matched fact).

    Parameters
    ----------
    query:
        The conjunctive query.
    index:
        A :class:`FactIndex` over the candidate facts.
    restrict_to:
        When given, only facts in this set are considered (used to evaluate
        the same index against many repairs without re-indexing).
    """
    steps, slot_variables = backtrack_plan(query)
    bindings: List[Optional[Constant]] = [None] * len(slot_variables)
    depth = len(steps)

    def backtrack(position: int) -> Iterator[Valuation]:
        if position == depth:
            valuation = Valuation.__new__(Valuation)
            valuation._mapping = {v: bindings[s] for v, s in slot_variables}
            yield valuation
            return
        atom, ops, key_plan = steps[position]
        relation = atom.relation
        candidates: Sequence[Fact]
        if key_plan is not None:
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            candidates = index.block(relation.name, key)  # type: ignore[arg-type]
        else:
            candidates = index.relation(relation.name)
        arity = relation.arity
        for fact in candidates:
            if restrict_to is not None and fact not in restrict_to:
                continue
            if fact.relation.arity != arity:
                continue
            terms = fact.terms
            matched = True
            bound: List[int] = []
            for op, pos, arg in ops:
                value = terms[pos]
                if op == CHECK_CONST:
                    if value != arg:
                        matched = False
                        break
                elif op == CHECK_SLOT:
                    if bindings[arg] != value:  # type: ignore[index]
                        matched = False
                        break
                else:
                    bindings[arg] = value  # type: ignore[index]
                    bound.append(arg)  # type: ignore[arg-type]
            if matched:
                yield from backtrack(position + 1)
            for slot in bound:
                bindings[slot] = None

    yield from backtrack(0)


def find_valuation(
    query: ConjunctiveQuery,
    facts: Iterable[Fact],
) -> Optional[Valuation]:
    """Return one satisfying valuation, or ``None`` if ``facts ⊭ q``."""
    index = facts if isinstance(facts, FactIndex) else FactIndex(facts)
    for valuation in iterate_valuations(query, index):
        return valuation
    return None


def satisfies(facts: Iterable[Fact], query: ConjunctiveQuery) -> bool:
    """``facts |= q``: does the set of facts satisfy the Boolean query?"""
    if query.is_empty:
        return True
    return find_valuation(query, facts) is not None


def all_valuations(query: ConjunctiveQuery, facts: Iterable[Fact]) -> List[Valuation]:
    """All satisfying valuations over ``vars(q)`` (deduplicated)."""
    index = facts if isinstance(facts, FactIndex) else FactIndex(facts)
    seen: Set[Valuation] = set()
    out: List[Valuation] = []
    for valuation in iterate_valuations(query, index):
        restricted = valuation.restrict(query.variables)
        if restricted not in seen:
            seen.add(restricted)
            out.append(restricted)
    return out


def witnesses(query: ConjunctiveQuery, facts: Iterable[Fact]) -> List[FrozenSet[Fact]]:
    """The *witnesses* of the query: images ``θ(q)`` of satisfying valuations.

    Witness sets are the unit of reasoning for certainty: a repair satisfies
    the query iff it contains some witness set entirely.
    """
    index = facts if isinstance(facts, FactIndex) else FactIndex(facts)
    seen: Set[FrozenSet[Fact]] = set()
    out: List[FrozenSet[Fact]] = []
    for valuation in iterate_valuations(query, index):
        image = frozenset(valuation.ground(atom) for atom in query.atoms)
        if image not in seen:
            seen.add(image)
            out.append(image)
    return out


def answer_tuples(
    query: ConjunctiveQuery,
    facts: Iterable[Fact],
) -> Set[Tuple[Constant, ...]]:
    """Evaluate a non-Boolean query: the set of free-variable tuples satisfied."""
    if query.is_boolean:
        raise ValueError("answer_tuples expects a query with free variables")
    index = facts if isinstance(facts, FactIndex) else FactIndex(facts)
    answers: Set[Tuple[Constant, ...]] = set()
    for valuation in iterate_valuations(query, index):
        answers.add(tuple(valuation[v] for v in query.free_variables))
    return answers
