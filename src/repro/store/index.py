"""The columnar fact index every session, solver and compiled plan runs on.

A :class:`ColumnarFactIndex` is a :class:`~repro.query.evaluation.FactIndex`
that *additionally* maintains a
:class:`~repro.store.columnar.ColumnarFactStore` alongside the object-level
dictionaries.  The solvers of every band, the compiled relational plans of
:mod:`repro.fo.compile`, the purify sweep, candidate enumeration and
snapshot shipping read the ``store`` and run on id-rows end-to-end.  The
object mirror still serves the incremental view's delta join
(:mod:`repro.incremental.delta`) and its candidate garbage collection.

The dual maintenance costs one extra encode (a few intern-table lookups)
per mutation; every read on the hot query path is repaid many times over
by integer hashing.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..model.atoms import Fact
from ..query.evaluation import FactIndex
from .columnar import ColumnarFactStore
from .intern import InternTable


class ColumnarFactIndex(FactIndex):
    """A :class:`FactIndex` that mirrors its contents into a columnar store."""

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        table: Optional[InternTable] = None,
    ) -> None:
        self._store = ColumnarFactStore(table=table)
        super().__init__(facts)  # populates through the overridden add()

    @property
    def store(self) -> ColumnarFactStore:
        """The integer-encoded twin of this index (same facts, id-rows)."""
        return self._store

    def add(self, fact: Fact) -> None:
        """Insert a fact into both representations (idempotent)."""
        super().add(fact)
        self._store.add_fact(fact)

    def discard(self, fact: Fact) -> None:
        """Remove a fact from both representations if present."""
        super().discard(fact)
        self._store.discard_fact(fact)

    # The observer-protocol aliases must rebind to the *overridden* methods
    # (the base class aliases point at FactIndex.add/discard).
    fact_added = add
    fact_discarded = discard
