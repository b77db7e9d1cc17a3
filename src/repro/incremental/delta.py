"""Delta enumeration: which *new* candidate answers does an insertion create?

The candidate answers of an open query ``q`` are the tuples of
``answer_tuples(q, db)`` — a monotone conjunctive evaluation.  After a batch
of mutations, every *newly satisfiable* candidate must use at least one
inserted fact in at least one atom position (discards only ever shrink the
candidate set, and a shrunk candidate re-decides to not-certain through its
support anyway).  So instead of re-running the full join per batch, the
incremental view seeds one backtracking join per (inserted fact, matching
atom) pair: the fact's id-row is pinned to that atom, the remaining atoms
are joined against the session's columnar store, and the free-variable ids
of the completed bindings are decoded into the new candidates.

This is the classic delta-join of incremental view maintenance, run by the
id-row kernel :func:`~repro.store.kernels.seeded_bindings` on the join loop
the full enumeration (:func:`~repro.store.kernels.answer_rows`) also uses.
Inserted facts are encoded by lookup only: a constant the intern table does
not know occurs in no stored row, so such a fact seeds nothing and the
table never grows on the view path.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..model.atoms import Fact
from ..query.conjunctive import ConjunctiveQuery
from ..store import ColumnarFactIndex
from ..store.columnar import IntRow
from ..store.kernels import seeded_bindings
from .support import Candidate


def delta_candidates(
    query: ConjunctiveQuery, index: ColumnarFactIndex, added: Iterable[Fact]
) -> Set[Candidate]:
    """Candidate tuples of the witnesses that use at least one *added* fact.

    Every candidate enumerable now but not before the insertion is in the
    result, and every result is enumerable now: the result may include
    candidates that were already enumerable (the caller dedups against its
    known set), never one the current store cannot produce.
    """
    store = index.store
    seeds: List[Tuple[str, IntRow]] = []
    for fact in added:
        row = store.known_row(fact)
        if row is not None:
            seeds.append((fact.relation.name, row))
    decode = store.table.decode
    return {
        decode(ids)
        for ids in seeded_bindings(query, store, seeds, query.free_variables)
    }
