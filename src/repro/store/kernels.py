"""Integer-encoded execution kernels over the columnar store.

The kernels here are the witness sweeps of the certainty solvers and of
the incremental views: they reuse the compiled slot-based
:func:`~repro.query.evaluation.backtrack_plan` of a query, look its
constants up in the store's intern table once per call, and then run the
backtracking join entirely on integer rows — block probes are dict lookups
on id-tuples, bindings live in one mutable int array, and witness marking
collects id-rows instead of fact objects.

:func:`stale_block_keys` is the purification sweep (Lemma 1): it returns
the blocks containing at least one fact that participates in no witness
``θ(q) ⊆ db``, sweeping the store's per-block id arrays and decoding only
the (usually few) stale block keys back to object space.
:func:`seeded_bindings` is the views' delta join, and :func:`has_witness`
their candidate garbage collection.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..model.atoms import Atom
from ..model.symbols import Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import CHECK_CONST, CHECK_SLOT, backtrack_plan
from .columnar import BlockKey, ColumnarFactStore, IntRow

#: One encoded step: (relation columns or None, ops, key_plan, atom).
_EncodedStep = Tuple[object, Tuple[Tuple[int, int, int], ...], Optional[Tuple], Atom]


def _encode_plan(
    query: ConjunctiveQuery, store: ColumnarFactStore, first: Optional[Atom] = None
) -> Tuple[Optional[List[_EncodedStep]], int]:
    """Encode the structural backtracking plan of *query* against *store*.

    Returns ``(steps, slot_count)``; *steps* is ``None`` when some atom can
    never match (its relation is absent or has a different arity, or one of
    its constants was never interned and so occurs in no stored row), in
    which case the query has no witnesses at all.  Constants are looked up,
    never interned, so the witness sweeps never grow the intern table.
    *first* starts the plan from that atom (see :func:`backtrack_plan`).
    """
    steps, slot_variables = backtrack_plan(query, first)
    id_of = store.table.id_of
    encoded: List[_EncodedStep] = []
    for atom, ops, key_plan in steps:
        relation = store.relation_columns(atom.relation.name)
        if relation is None or relation.schema.arity != atom.relation.arity:
            return None, len(slot_variables)
        enc_ops = []
        for op, pos, arg in ops:
            if op == CHECK_CONST:
                arg = id_of(arg)  # type: ignore[arg-type]
                if arg is None:
                    return None, len(slot_variables)
            enc_ops.append((op, pos, arg))
        enc_key = None
        if key_plan is not None and relation.schema.key_size == atom.relation.key_size:
            # Every key constant is also a CHECK_CONST op, so it is known.
            enc_key = tuple(
                (slot, id_of(constant) if constant is not None else None)
                for slot, constant in key_plan
            )
        encoded.append((relation, tuple(enc_ops), enc_key, atom))
    return encoded, len(slot_variables)


def _reduced_candidates(
    encoded: List[_EncodedStep], store: ColumnarFactStore
) -> List[Set[IntRow]]:
    """Per-level candidate rows after a per-variable semi-join fixpoint.

    Each level starts from the rows satisfying its atom's constant and
    repeated-variable checks; then, for every variable occurring in two or
    more atoms, rows whose value for that variable appears in no candidate
    row of some partner atom are dropped, to fixpoint.  A dropped row can
    participate in no witness (every witness grounds all atoms on a single
    valuation), so enumerating the join over the reduced sets yields exactly
    the same witnesses while skipping the dangling rows that dominate noisy
    instances.  Per-atom-occurrence sets keep the reduction correct under
    self-joins (two occurrences of one relation prune independently).
    """
    id_of = store.table.id_of
    positions_per_level: List[Dict[object, int]] = []
    rows_per_level: List[Set[IntRow]] = []
    for relation, _ops, _key_plan, atom in encoded:
        const_checks: List[Tuple[int, int]] = []
        eq_checks: List[Tuple[int, int]] = []
        positions: Dict[object, int] = {}
        for position, term in enumerate(atom.terms):
            if is_constant(term):
                const_checks.append((position, id_of(term)))
            else:
                first = positions.get(term)
                if first is None:
                    positions[term] = position
                else:
                    eq_checks.append((position, first))
        rows = {
            row
            for row in relation.row_index.keys()  # type: ignore[union-attr]
            if all(row[p] == value for p, value in const_checks)
            and all(row[p] == row[f] for p, f in eq_checks)
        }
        positions_per_level.append(positions)
        rows_per_level.append(rows)

    occurrences: Dict[object, List[Tuple[int, int]]] = {}
    for level, positions in enumerate(positions_per_level):
        for variable, position in positions.items():
            occurrences.setdefault(variable, []).append((level, position))
    shared = [occ for occ in occurrences.values() if len(occ) > 1]

    changed = True
    while changed:
        changed = False
        for occ in shared:
            allowed: Optional[Set[int]] = None
            for level, position in occ:
                values = {row[position] for row in rows_per_level[level]}
                allowed = values if allowed is None else allowed & values
            for level, position in occ:
                rows = rows_per_level[level]
                kept = {row for row in rows if row[position] in allowed}
                if len(kept) != len(rows):
                    rows_per_level[level] = kept
                    changed = True
    return rows_per_level


def used_rows(
    query: ConjunctiveQuery, store: ColumnarFactStore
) -> Dict[str, Set[IntRow]]:
    """Per relation, the id-rows used by at least one witness of *query*.

    The id-space counterpart of
    :func:`repro.certainty.purify.relevant_facts`.
    """
    encoded, slot_count = _encode_plan(query, store)
    used: Dict[str, Set[IntRow]] = {}
    if encoded is None or not encoded:
        return used
    reduced = _reduced_candidates(encoded, store)
    if any(not rows for rows in reduced):
        return used
    bindings: List[Optional[int]] = [None] * slot_count
    depth = len(encoded)
    stack: List[Tuple[str, IntRow]] = []

    def backtrack(level: int) -> None:
        if level == depth:
            for name, row in stack:
                used.setdefault(name, set()).add(row)
            return
        relation, ops, key_plan, _atom = encoded[level]
        allowed = reduced[level]
        if key_plan is not None:
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            candidates = [
                row
                for row in relation.blocks.get(key, ())  # type: ignore[union-attr]
                if row in allowed
            ]
        else:
            candidates = allowed
        name = relation.schema.name  # type: ignore[union-attr]
        for row in candidates:
            matched = True
            bound: List[int] = []
            for op, pos, arg in ops:
                value = row[pos]
                if op == CHECK_CONST:
                    if value != arg:
                        matched = False
                        break
                elif op == CHECK_SLOT:
                    if bindings[arg] != value:
                        matched = False
                        break
                else:
                    bindings[arg] = value
                    bound.append(arg)
            if matched:
                stack.append((name, row))
                backtrack(level + 1)
                stack.pop()
            for slot in bound:
                bindings[slot] = None

    backtrack(0)
    return used


class AtomMatcher:
    """One atom's term pattern, encoded against a store for id-row matching.

    Constants are interned once at construction; :meth:`match` then runs
    entirely on ints (constant checks plus repeated-variable equalities).
    The Theorem 3/4 solvers use matchers to partition and project id-rows
    without decoding them back into :class:`~repro.model.atoms.Fact`
    objects.
    """

    __slots__ = (
        "atom",
        "name",
        "_const_checks",
        "_eq_checks",
        "_var_position",
        "_intern",
    )

    def __init__(self, atom: Atom, store: ColumnarFactStore) -> None:
        self.atom = atom
        self.name = atom.relation.name
        self._intern = store.table.intern
        const_checks: List[Tuple[int, int]] = []
        eq_checks: List[Tuple[int, int]] = []
        var_position: Dict[object, int] = {}
        for position, term in enumerate(atom.terms):
            if is_constant(term):
                const_checks.append((position, self._intern(term)))
            else:
                first = var_position.get(term)
                if first is None:
                    var_position[term] = position
                else:
                    eq_checks.append((position, first))
        self._const_checks = tuple(const_checks)
        self._eq_checks = tuple(eq_checks)
        self._var_position = var_position

    def match(self, row: IntRow) -> bool:
        """Does *row* ground the atom (constants agree, repeats equal)?"""
        for position, value in self._const_checks:
            if row[position] != value:
                return False
        for position, first in self._eq_checks:
            if row[position] != row[first]:
                return False
        return True

    def values(self, row: IntRow, variables: Sequence) -> IntRow:
        """The id vector of *variables* (all must occur in the atom)."""
        positions = self._var_position
        return tuple(row[positions[v]] for v in variables)

    def project(self, row: IntRow, terms: Sequence) -> IntRow:
        """Ids of a term sequence: constants interned, variables read off *row*."""
        positions = self._var_position
        intern = self._intern
        return tuple(
            intern(term) if is_constant(term) else row[positions[term]]
            for term in terms
        )


def witness_row_sets(
    query: ConjunctiveQuery, store: ColumnarFactStore
) -> List[FrozenSet[Tuple[str, IntRow]]]:
    """Every witness ``θ(q) ⊆ store`` as a frozenset of ``(name, id-row)``.

    The id-space counterpart of :func:`repro.query.evaluation.witnesses`
    (deduplicated valuation images), feeding the brute-force repair search
    with int-tuple bookkeeping instead of fact objects.
    """
    encoded, slot_count = _encode_plan(query, store)
    out: List[FrozenSet[Tuple[str, IntRow]]] = []
    if encoded is None or not encoded:
        return out
    reduced = _reduced_candidates(encoded, store)
    if any(not rows for rows in reduced):
        return out
    seen: Set[FrozenSet[Tuple[str, IntRow]]] = set()
    bindings: List[Optional[int]] = [None] * slot_count
    depth = len(encoded)
    stack: List[Tuple[str, IntRow]] = []

    def backtrack(level: int) -> None:
        if level == depth:
            image = frozenset(stack)
            if image not in seen:
                seen.add(image)
                out.append(image)
            return
        relation, ops, key_plan, _atom = encoded[level]
        allowed = reduced[level]
        if key_plan is not None:
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            candidates = [
                row
                for row in relation.blocks.get(key, ())  # type: ignore[union-attr]
                if row in allowed
            ]
        else:
            candidates = allowed
        name = relation.schema.name  # type: ignore[union-attr]
        for row in candidates:
            matched = True
            bound: List[int] = []
            for op, pos, arg in ops:
                value = row[pos]
                if op == CHECK_CONST:
                    if value != arg:
                        matched = False
                        break
                elif op == CHECK_SLOT:
                    if bindings[arg] != value:
                        matched = False
                        break
                else:
                    bindings[arg] = value
                    bound.append(arg)
            if matched:
                stack.append((name, row))
                backtrack(level + 1)
                stack.pop()
            for slot in bound:
                bindings[slot] = None

    backtrack(0)
    return out


def has_witness(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    allowed: Optional[Dict[str, Set[IntRow]]] = None,
) -> bool:
    """Is some witness ``θ(q)`` contained in the (restricted) store?

    *allowed*, when given, maps relation names to the usable id-rows —
    evaluation over a sub-database without materialising it.  Relations
    absent from the map contribute no rows (mirroring
    ``satisfies(fact_subset, query)``).
    """
    if query.is_empty:
        return True
    encoded, slot_count = _encode_plan(query, store)
    if encoded is None:
        return False
    if not encoded:
        return True
    bindings: List[Optional[int]] = [None] * slot_count
    depth = len(encoded)

    def backtrack(level: int) -> bool:
        if level == depth:
            return True
        relation, ops, key_plan, _atom = encoded[level]
        name = relation.schema.name  # type: ignore[union-attr]
        usable: Optional[Iterable[IntRow]] = None
        if allowed is not None:
            usable = allowed.get(name)
            if not usable:
                return False
        if key_plan is not None:
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            candidates: Iterable[IntRow] = relation.blocks.get(key, ())  # type: ignore[union-attr]
        else:
            candidates = relation.row_index.keys()  # type: ignore[union-attr]
        for row in candidates:
            if usable is not None and row not in usable:
                continue
            matched = True
            bound: List[int] = []
            for op, pos, arg in ops:
                value = row[pos]
                if op == CHECK_CONST:
                    if value != arg:
                        matched = False
                        break
                elif op == CHECK_SLOT:
                    if bindings[arg] != value:
                        matched = False
                        break
                else:
                    bindings[arg] = value
                    bound.append(arg)
            if matched and backtrack(level + 1):
                return True
            for slot in bound:
                bindings[slot] = None
        return False

    return backtrack(0)


def seeded_bindings(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    seeds: Iterable[Tuple[str, IntRow]],
    variables: Sequence[Variable],
) -> Set[IntRow]:
    """Id vectors of *variables* over the witnesses that use a *seed* row.

    The delta join of incremental view maintenance.  For every atom whose
    relation some ``(relation name, id-row)`` seed belongs to, the slot plan
    is compiled starting from that atom and the join runs with level 0
    pinned to the seed, so only valuations through a seed are enumerated.
    Seeds the store does not hold are skipped: no witness of the store uses
    them.  Only the slots of *variables* are read off completed bindings.
    """
    seeded: Dict[str, List[IntRow]] = {}
    for name, row in seeds:
        seeded.setdefault(name, []).append(row)
    out: Set[IntRow] = set()
    for atom in query.atoms:
        rows = seeded.get(atom.relation.name)
        if not rows:
            continue
        encoded, slot_count = _encode_plan(query, store, first=atom)
        if encoded is None:
            return out  # some atom matches no stored row: no witness at all
        slot_of = dict(backtrack_plan(query, atom)[1])
        out_slots = [slot_of[v] for v in variables]
        bindings: List[Optional[int]] = [None] * slot_count
        depth = len(encoded)

        def probe(level: int) -> Iterable[IntRow]:
            relation, _ops, key_plan, _atom = encoded[level]  # type: ignore[index]
            if key_plan is None:
                return relation.row_index.keys()  # type: ignore[union-attr]
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            return relation.blocks.get(key, ())  # type: ignore[union-attr]

        def backtrack(level: int, candidates: Iterable[IntRow]) -> None:
            ops = encoded[level][1]  # type: ignore[index]
            last = level + 1 == depth
            for row in candidates:
                matched = True
                bound: List[int] = []
                for op, pos, arg in ops:
                    value = row[pos]
                    if op == CHECK_CONST:
                        if value != arg:
                            matched = False
                            break
                    elif op == CHECK_SLOT:
                        if bindings[arg] != value:
                            matched = False
                            break
                    else:
                        bindings[arg] = value
                        bound.append(arg)
                if matched:
                    if last:
                        out.add(tuple(bindings[slot] for slot in out_slots))  # type: ignore[misc]
                    else:
                        backtrack(level + 1, probe(level + 1))
                for slot in bound:
                    bindings[slot] = None

        stored = encoded[0][0].row_index  # type: ignore[union-attr]
        for row in rows:
            if row in stored:
                backtrack(0, (row,))
    return out


def stale_block_keys(
    query: ConjunctiveQuery, store: ColumnarFactStore
) -> List[BlockKey]:
    """Blocks containing some fact outside every witness of *query*.

    Sweeps the store's per-block id arrays against :func:`used_rows` and
    decodes only the stale keys; an empty result means the database is
    already purified relative to *query*.
    """
    used = used_rows(query, store)
    stale: List[BlockKey] = []
    empty: Set[IntRow] = set()
    decode = store.table.decode
    for name, relation in store._relations.items():
        rows_in_use = used.get(name, empty)
        for key, rows in relation.blocks.items():
            for row in rows:
                if row not in rows_in_use:
                    stale.append((name, decode(key)))
                    break
    return stale
