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

Purification is a row filter over one columnar store: :func:`purify_rows`
reads a sub-database given as live id-rows and returns the live id-rows of
its purified sub-database, through
:func:`~repro.store.kernels.used_rows`.  Nothing is copied, no index is
built and the store is never mutated, so the peeling recursion and the
Theorem 3/4 solvers purify at every level on the store a decision starts
from.  :func:`purify` is the database-level wrapper: it returns *db itself*
when no block is removed.  :func:`relevant_facts` and :func:`is_purified`
transcribe Lemma 1 over fact objects instead; they are the definition the
row filter is tested against.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from ..model.atoms import Fact
from ..model.database import UncertainDatabase
from ..model.schema import DatabaseSchema
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import FactIndex, iterate_valuations
from ..store.columnar import ColumnarFactStore, LiveRows, scratch_store
from ..store.index import ColumnarFactIndex
from ..store.kernels import used_rows


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


def purify_rows(
    query: ConjunctiveQuery,
    store: ColumnarFactStore,
    live: Optional[LiveRows] = None,
) -> LiveRows:
    """The live id-rows of the sub-database purified relative to *query*.

    *live* names the input sub-database of *store* (default: every row of
    the store); relations absent from it hold no rows.  It is read, never
    mutated.  To a fixpoint, every block holding a live row outside
    :func:`~repro.store.kernels.used_rows` is dropped whole.  The result
    is *live* itself when nothing is dropped, and may share unchanged row
    sets with it otherwise: treat both as read-only.
    """
    if live is None:
        live = {name: set(store.relation_rows(name)) for name in store.relation_names()}
    if query.is_empty:
        return live
    while True:
        used = used_rows(query, store, live)
        kept: LiveRows = {}
        changed = False
        for name, rows in live.items():
            in_use = used.get(name, ())
            if len(in_use) == len(rows):
                kept[name] = rows
                continue
            key_size = store.relation_columns(name).schema.key_size  # type: ignore[union-attr]
            dead = {row[:key_size] for row in rows if row not in in_use}
            kept[name] = {row for row in rows if row[:key_size] not in dead}
            changed = True
        if not changed:
            return live
        live = kept


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

    *index*, when given, must cover exactly the facts of *db*; otherwise a
    scratch store is built.  The rows are filtered by :func:`purify_rows`.
    When no block needs removing, *db itself* is returned; otherwise a new
    database is decoded from the live rows.  Neither *db* nor *index* is
    mutated.
    """
    if query.is_empty:
        return db
    store = index.store if index is not None else scratch_store(db)
    live = purify_rows(query, store)
    if sum(map(len, live.values())) == len(store):
        return db
    decode = store.decode_row
    return UncertainDatabase(
        (
            Fact(store.relation_columns(name).schema, decode(row))  # type: ignore[union-attr]
            for name, rows in live.items()
            for row in rows
        ),
        schema=DatabaseSchema(iter(db.schema)),
    )


def is_purified(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """``True`` iff every fact of *db* participates in some witness of *query*."""
    if query.is_empty:
        return True
    used = relevant_facts(db, query)
    return all(fact in used for fact in db.facts)
