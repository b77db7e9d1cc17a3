"""Integer-encoded execution kernels over the columnar store.

Every conjunctive-query join of the engine runs here, on integer rows.  A
query's compiled slot-based :func:`~repro.query.evaluation.backtrack_plan`
is encoded against the store once per call (its constants looked up, never
interned), and the one backtracking loop :func:`_join` walks it: block
probes are dict lookups on id-tuples, bindings live in one mutable int
array, and a witness is a list of ``(name, id-row)`` pairs.  Its callers:

* :func:`used_rows`, the purification filter (Lemma 1): the id-rows on some
  witness ``θ(q) ⊆ db``, which :func:`~repro.certainty.purify.purify_rows`
  turns into live rows;
* :func:`witness_row_sets`, the witnesses of the brute-force repair search;
* :func:`has_witness`, the Theorem 3 base case and the views' candidate
  garbage collection;
* :func:`seeded_bindings`, the views' delta join;
* :func:`answer_rows`, the candidates of ``certain_answers``.

:func:`used_rows`, :func:`witness_row_sets` and :func:`answer_rows` first
shrink each level to the rows of a pairwise semi-join fixpoint
(:func:`_reduced_candidates`); for an α-acyclic query the first and the
last read their result off those rows without joining.  The object-level
loop of :mod:`repro.query.evaluation` runs the same plans over facts; it
serves the object-level APIs and is the reference the tests compare these
kernels against.
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


#: ``emit(bindings, stack)`` of :func:`_join`; a true return stops the join.
_Emit = Callable[[List[Optional[int]], List[Tuple[str, IntRow]]], bool]


def _join(
    encoded: List[_EncodedStep],
    slot_count: int,
    emit: _Emit,
    usable: Optional[Sequence[Set[IntRow]]] = None,
    first: Optional[Iterable[IntRow]] = None,
) -> bool:
    """The backtracking join over the id-rows of a non-empty encoded plan.

    Calls ``emit(bindings, stack)`` with every valuation of the plan: the
    slot array and the ``(name, id-row)`` image, one entry per level.  A
    true return stops the search, and the join then returns ``True``.
    ``usable[level]``, when given, limits that level to those rows of the
    store; *first*, when given, holds the rows level 0 starts from instead.
    A level whose key the earlier levels bind probes its block; any other
    level scans its usable rows, or its whole relation.  *emit* must copy
    what it keeps.
    """
    bindings: List[Optional[int]] = [None] * slot_count
    stack: List[Tuple[str, IntRow]] = []
    last = len(encoded) - 1

    def rows(level: int) -> Iterable[IntRow]:
        relation, _ops, key_plan, _atom = encoded[level]
        allowed = None if usable is None else usable[level]
        if key_plan is None:
            return relation.row_index.keys() if allowed is None else allowed  # type: ignore[union-attr]
        key = tuple(
            bindings[slot] if constant is None else constant
            for slot, constant in key_plan
        )
        block = relation.blocks.get(key, ())  # type: ignore[union-attr]
        return block if allowed is None else [row for row in block if row in allowed]

    def backtrack(level: int, candidates: Iterable[IntRow]) -> bool:
        relation, ops, _key_plan, _atom = encoded[level]
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
                if level == last:
                    stop = emit(bindings, stack)
                else:
                    stop = backtrack(level + 1, rows(level + 1))
                stack.pop()
                if stop:
                    return True
            for slot in bound:
                bindings[slot] = None
        return False

    return backtrack(0, rows(0) if first is None else first)


def _project_into(out: Set[IntRow], slots: Sequence[int]) -> _Emit:
    """An emit adding the id tuple of *slots* to *out*.

    With no slots the tuple is ``()`` whatever the valuation, so the first
    witness completes the projection and stops the join.
    """

    def emit(bindings: List[Optional[int]], _stack: List[Tuple[str, IntRow]]) -> bool:
        out.add(tuple(bindings[slot] for slot in slots))  # type: ignore[misc]
        return not slots

    return emit


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

    def mark(_bindings: List[Optional[int]], stack: List[Tuple[str, IntRow]]) -> bool:
        for name, row in stack:
            used.setdefault(name, set()).add(row)
        return False

    _join(encoded, slot_count, mark, reduced)
    return used


class AtomMatcher:
    """One atom's variable positions, for reading id vectors off its rows.

    The Theorem 3 base case and the pair solver use matchers to partition
    and project id-rows without decoding them back into
    :class:`~repro.model.atoms.Fact` objects.  The rows they read are
    purified, so every one grounds the atom already.
    """

    __slots__ = ("_var_position", "_intern")

    def __init__(self, atom: Atom, store: ColumnarFactStore) -> None:
        self._intern = store.table.intern
        self._var_position: Dict[object, int] = {}
        for position, term in enumerate(atom.terms):
            if not is_constant(term):
                self._var_position.setdefault(term, position)

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

    def collect(_bindings: List[Optional[int]], stack: List[Tuple[str, IntRow]]) -> bool:
        image = frozenset(stack)
        if image not in seen:
            seen.add(image)
            out.append(image)
        return False

    _join(encoded, slot_count, collect, reduced)
    return out


def has_witness(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    allowed: Optional[LiveRows] = None,
) -> bool:
    """Is some witness ``θ(q)`` contained in the (restricted) store?

    *allowed*, when given, maps relation names to the usable id-rows of
    the store — evaluation over a sub-database without materialising it.
    Relations absent from the map contribute no rows (mirroring
    ``satisfies(fact_subset, query)``).
    """
    if query.is_empty:
        return True
    encoded, slot_count = _encode_plan(query, store)
    if encoded is None:
        return False
    if not encoded:
        return True
    usable = None
    if allowed is not None:
        usable = [allowed.get(atom.relation.name, set()) for *_step, atom in encoded]
    return _join(encoded, slot_count, lambda _bindings, _stack: True, usable)


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
        collect = _project_into(out, [slot_of[v] for v in variables])
        stored = encoded[0][0].row_index  # type: ignore[union-attr]
        _join(encoded, slot_count, collect, first=[row for row in rows if row in stored])
    return out


def answer_rows(query: ConjunctiveQuery, store: ColumnarFactStore) -> Set[IntRow]:
    """The id tuples of *query*'s free variables over its witnesses.

    The id-space counterpart of :func:`repro.query.evaluation.answer_tuples`:
    the answers of *query* over the whole store, which are the candidates of
    ``certain_answers``.  A Boolean query yields ``{()}`` exactly when it
    has a witness.  When the query is α-acyclic and one atom holds every
    free variable, the reduced rows of that atom's level all lie on
    witnesses (see :func:`_reduced_candidates`), so projecting them is the
    whole enumeration; otherwise the join runs over the reduced rows.
    """
    encoded, slot_count = _encode_plan(query, store)
    if encoded is None:
        return set()
    if not encoded:
        return {()}
    reduced = _reduced_candidates(encoded, store)
    if any(not rows for rows in reduced):
        return set()
    free = query.free_variables
    if _acyclic(query):
        for (_relation, _ops, _key_plan, atom), rows in zip(encoded, reduced):
            if all(v in atom.terms for v in free):
                positions = [atom.terms.index(v) for v in free]
                return {tuple(row[p] for p in positions) for row in rows}
    slot_of = dict(backtrack_plan(query)[1])
    out: Set[IntRow] = set()
    _join(encoded, slot_count, _project_into(out, [slot_of[v] for v in free]), reduced)
    return out
