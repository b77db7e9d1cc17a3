"""Integer-encoded execution kernels over the columnar store.

The kernels here are the witness sweeps of the certainty solvers and of
the incremental views: they reuse the compiled slot-based
:func:`~repro.query.evaluation.backtrack_plan` of a query, look its
constants up in the store's intern table once per call, and then run the
backtracking join entirely on integer rows — block probes are dict lookups
on id-tuples, bindings live in one mutable int array, and witness marking
collects id-rows instead of fact objects.

:func:`used_rows` is the purification filter (Lemma 1): the id-rows of a
(sub-)database that participate in some witness ``θ(q) ⊆ db``, which
:func:`~repro.certainty.purify.purify_rows` turns into live rows.
:func:`seeded_bindings` is the views' delta join, and :func:`has_witness`
their candidate garbage collection.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..model.atoms import Atom
from ..model.symbols import Variable, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import CHECK_CONST, CHECK_SLOT, backtrack_plan
from ..query.hypergraph import is_acyclic
from .columnar import ColumnarFactStore, IntRow, LiveRows

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
    encoded: List[_EncodedStep],
    store: ColumnarFactStore,
    allowed: Optional[LiveRows] = None,
) -> List[Set[IntRow]]:
    """Per-level candidate rows after a pairwise semi-join fixpoint.

    Each level starts from the rows (of *allowed*, when given) satisfying
    its atom's constant and repeated-variable checks.  Then, for every pair
    of levels whose atoms share variables, rows whose shared-variable id
    tuple occurs in no candidate row of the other level are dropped; a
    worklist re-filters the partners of every level that shrank, until
    nothing changes.  A dropped row participates in no witness (every
    witness grounds all atoms on a single valuation), so enumerating the
    join over the reduced sets yields exactly the same witnesses.  Levels
    are atom occurrences, so self-joins prune each occurrence on its own.

    The result is pairwise consistent.  For an α-acyclic query that implies
    global consistency (Beeri, Fagin, Maier and Yannakakis, JACM 1983): when
    no level is empty, every remaining row lies on some witness.  For a
    cyclic query it is only a filter.
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
        source: Iterable[IntRow] = (
            relation.row_index.keys()  # type: ignore[union-attr]
            if allowed is None
            else allowed.get(atom.relation.name, ())
        )
        if const_checks or eq_checks:
            rows = {
                row
                for row in source
                if all(row[p] == value for p, value in const_checks)
                and all(row[p] == row[f] for p, f in eq_checks)
            }
        else:
            rows = set(source)
        positions_per_level.append(positions)
        rows_per_level.append(rows)

    # partners[i]: (j, projection of i's rows, projection of j's rows) onto
    # the variables atoms i and j share, in one fixed order.
    partners: List[List[Tuple[int, itemgetter, itemgetter]]] = [[] for _ in encoded]
    for i, own in enumerate(positions_per_level):
        for j in range(i + 1, len(encoded)):
            other = positions_per_level[j]
            shared = [v for v in own if v in other]
            if shared:
                own_get = itemgetter(*[own[v] for v in shared])
                other_get = itemgetter(*[other[v] for v in shared])
                partners[i].append((j, own_get, other_get))
                partners[j].append((i, other_get, own_get))

    pending = list(range(len(encoded)))
    queued = set(pending)
    while pending:
        level = pending.pop()
        queued.discard(level)
        for partner, own_get, partner_get in partners[level]:
            values = set(map(own_get, rows_per_level[level]))
            rows = rows_per_level[partner]
            kept = {row for row in rows if partner_get(row) in values}
            if len(kept) != len(rows):
                rows_per_level[partner] = kept
                if partner not in queued:
                    queued.add(partner)
                    pending.append(partner)
    return rows_per_level


def _enumerate_witnesses(
    encoded: List[_EncodedStep],
    slot_count: int,
    reduced: List[Set[IntRow]],
    emit: Callable[[List[Tuple[str, IntRow]]], None],
) -> None:
    """Call *emit* with the ``(name, id-row)`` list of every valuation image.

    The backtracking join over the reduced per-level rows; block probes
    filter through the level's reduced set.  *emit* must copy what it keeps.
    """
    bindings: List[Optional[int]] = [None] * slot_count
    depth = len(encoded)
    stack: List[Tuple[str, IntRow]] = []

    def backtrack(level: int) -> None:
        if level == depth:
            emit(stack)
            return
        relation, ops, key_plan, _atom = encoded[level]
        allowed = reduced[level]
        if key_plan is not None:
            key = tuple(
                bindings[slot] if constant is None else constant
                for slot, constant in key_plan
            )
            candidates: Iterable[IntRow] = [
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


#: Memoised α-acyclicity test (residual queries repeat across blocks).
_acyclic = lru_cache(maxsize=4096)(is_acyclic)


def used_rows(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    allowed: Optional[LiveRows] = None,
) -> Dict[str, Set[IntRow]]:
    """Per relation, the id-rows used by at least one witness of *query*.

    The id-space counterpart of
    :func:`repro.certainty.purify.relevant_facts`.  *allowed*, when given,
    names the sub-database to read, as in :func:`has_witness`.  For an
    α-acyclic query the reduced candidate rows are exactly the used rows;
    a cyclic query takes the union of its enumerated witnesses.
    """
    encoded, slot_count = _encode_plan(query, store)
    used: Dict[str, Set[IntRow]] = {}
    if encoded is None or not encoded:
        return used
    reduced = _reduced_candidates(encoded, store, allowed)
    if any(not rows for rows in reduced):
        return used
    if _acyclic(query):
        for (_relation, _ops, _key_plan, atom), rows in zip(encoded, reduced):
            name = atom.relation.name
            used[name] = rows | used[name] if name in used else rows
        return used

    def mark(stack: List[Tuple[str, IntRow]]) -> None:
        for name, row in stack:
            used.setdefault(name, set()).add(row)

    _enumerate_witnesses(encoded, slot_count, reduced, mark)
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

    def collect(stack: List[Tuple[str, IntRow]]) -> None:
        image = frozenset(stack)
        if image not in seen:
            seen.add(image)
            out.append(image)

    _enumerate_witnesses(encoded, slot_count, reduced, collect)
    return out


def has_witness(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    allowed: Optional[LiveRows] = None,
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
