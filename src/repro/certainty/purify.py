"""Purification of uncertain databases (Lemma 1).

An uncertain database ``db`` is *purified* relative to a query ``q`` when
every fact of ``db`` occurs in some valuation image ``θ(q) ⊆ db``.  Lemma 1
shows that any database can be purified in polynomial time without changing
membership in ``CERTAINTY(q)``: repeatedly find a fact that participates in
no witness and drop its *entire block* (the falsifier can "spend" that block
on the irrelevant fact, so the block contributes nothing to certainty).

All polynomial solvers in this package purify first; the graph-based
algorithms (Theorem 4 and the weak-cycle pair solver) furthermore rely on
purification for their structural preconditions (every edge of the fact
graph lies on a witness cycle).

Because every polynomial solver funnels through :func:`purify`, the function
is written for the common case of an *already purified* input: nothing is
copied until the first block is actually removed (the input database itself
is returned when no removal happens), and the working fact index is
maintained incrementally across removal sweeps instead of being rebuilt per
sweep.  :func:`purify_copy_count` exposes how many defensive copies were
made, so benchmarks and tests can assert the zero-copy fast path.

The sweeps run on the id-rows of a columnar index
(:func:`~repro.store.kernels.stale_block_keys`).  :func:`relevant_facts`
and :func:`is_purified` transcribe Lemma 1 over fact objects instead; they
are the definition the sweeps are tested against.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..model.atoms import Fact
from ..model.database import UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import FactIndex, iterate_valuations
from ..store.index import ColumnarFactIndex
from ..store.kernels import stale_block_keys
from .context import scratch_index

#: Process-wide count of databases copied by :func:`purify` (diagnostics).
_copy_count = 0
_copy_count_lock = threading.Lock()

#: Process-wide per-class counts of fact indexes *built* by purification
#: (diagnostics: deep peeling recursions should thread indexes instead).
_index_build_counts: Dict[str, int] = {}


def purify_index_build_counts() -> Dict[str, int]:
    """How many fact indexes :func:`purify_with_index` built, per class name.

    An index is *built* when the caller supplied none, or when the first
    block removal forces a private index over the copied database.  The
    peeling recursion threads the returned indexes through its residual
    calls, so deep recursions should show O(levels) builds — not one per
    purify call; the tests assert exactly that, and that every built index
    is columnar.
    """
    with _copy_count_lock:
        return dict(_index_build_counts)


def reset_purify_index_build_counts() -> Dict[str, int]:
    """Reset the per-class index-build counters; returns the previous map."""
    global _index_build_counts
    with _copy_count_lock:
        previous = _index_build_counts
        _index_build_counts = {}
    return previous


def _note_index_build(index_cls: type) -> None:
    name = index_cls.__name__
    with _copy_count_lock:
        _index_build_counts[name] = _index_build_counts.get(name, 0) + 1


def purify_copy_count() -> int:
    """How many times :func:`purify` has copied its input database.

    Already-purified inputs take the zero-copy fast path, so solvers that
    repeatedly re-purify (e.g. the peeling recursion) do not pay O(db) per
    call; this counter lets benchmarks and tests assert exactly that.
    """
    return _copy_count


def reset_purify_copy_count() -> int:
    """Reset the copy counter; returns the previous value."""
    global _copy_count
    with _copy_count_lock:
        previous = _copy_count
        _copy_count = 0
    return previous


def _note_copy() -> None:
    global _copy_count
    with _copy_count_lock:
        _copy_count += 1


def relevant_facts(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    index: Optional[FactIndex] = None,
) -> FrozenSet[Fact]:
    """The facts of *db* that occur in at least one witness ``θ(q) ⊆ db``.

    Lemma 1 by definition, over fact objects and the backtracking evaluator.
    When *index* is given it must be an up-to-date index over the facts of
    *db* (it is then used instead of building a fresh one).
    """
    if index is None:
        index = FactIndex(db.facts)
    used: Set[Fact] = set()
    for valuation in iterate_valuations(query, index):
        for atom in query.atoms:
            used.add(valuation.ground(atom))
    return frozenset(used)


def purify(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    index: Optional[ColumnarFactIndex] = None,
) -> UncertainDatabase:
    """Return a purified database relative to *query* (Lemma 1).

    The loop removes, as long as one exists, the block of a fact that is not
    part of any witness, and repeats (removals can cascade because witnesses
    may lose their support).  Certainty is preserved:
    ``purify(db, q) ∈ CERTAINTY(q)  ⇔  db ∈ CERTAINTY(q)``.

    When no block needs removing, *db itself* is returned unchanged and
    nothing is copied; a copy is made lazily on the first removal, so the
    input database is never mutated.  *index*, when given, must cover
    exactly the facts of *db*; it is read (never mutated) by the witness
    sweeps.  Once a copy exists, the function maintains its own index over
    the copy incrementally — via the database observer hooks — instead of
    rebuilding an index per sweep.
    """
    return purify_with_index(db, query, index=index)[0]


def purify_with_index(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    index: Optional[ColumnarFactIndex] = None,
) -> Tuple[UncertainDatabase, Optional[ColumnarFactIndex]]:
    """:func:`purify`, also returning an index covering the result.

    The returned index is the caller's *index* (or, without one, a private
    index over *db*) when the zero-copy fast path applies, or the
    incrementally maintained private index over the purified copy
    otherwise.  The peeling recursion threads it into its inner purify
    calls instead of rebuilding indexes per level.  Private indexes come
    from :func:`~repro.certainty.context.scratch_index`, so they never grow
    the caller's intern table.  The index is only ``None`` when the query
    is empty and no index was supplied.

    The returned index is detached (not registered as an observer), so it
    stays valid only while the returned database is left unmutated — which
    holds for every solver caller (purified databases are read-only
    intermediates).
    """
    if query.is_empty:
        return db, index
    shared_index = index is not None
    if index is not None:
        current_index = index
    else:
        current_index = scratch_index(db.facts)
        _note_index_build(ColumnarFactIndex)
    current = db
    working: Optional[UncertainDatabase] = None
    try:
        while True:
            # Sweep the per-block id arrays (integer backtracking + integer
            # row sets) and decode only the stale block keys.
            stale_blocks = stale_block_keys(query, current_index.store)
            if not stale_blocks:
                return current, current_index
            if working is None:
                working = db.copy()
                _note_copy()
                if shared_index:
                    # The caller's index must stay untouched: build one
                    # private index over the copy (once — it is maintained
                    # incrementally from here on).
                    current_index = scratch_index(working.facts)
                    _note_index_build(ColumnarFactIndex)
                working.register_observer(current_index)
                current = working
            for block_key in stale_blocks:
                working.remove_block(block_key)
    finally:
        if working is not None:
            working.unregister_observer(current_index)


def is_purified(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """``True`` iff every fact of *db* participates in some witness of *query*."""
    if query.is_empty:
        return True
    used = relevant_facts(db, query)
    return all(fact in used for fact in db.facts)
