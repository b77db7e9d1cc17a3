"""The columnar fact index every session, solver and compiled plan runs on.

A :class:`ColumnarFactIndex` keeps one
:class:`~repro.store.columnar.ColumnarFactStore` in step with a database:
registered as an observer, it applies every insertion and removal to the
store's id-rows.  The solvers of every band, the compiled relational plans
of :mod:`repro.fo.compile`, the purify sweep, candidate enumeration, the
incremental view's delta join and candidate garbage collection all read the
``store``; there is no object-level copy of the facts.  The textbook
evaluator of :mod:`repro.query.evaluation` keeps its own
:class:`~repro.query.evaluation.FactIndex`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..model.atoms import Fact
from .columnar import ColumnarFactStore
from .intern import InternTable


class ColumnarFactIndex:
    """A columnar store maintained through the database observer protocol."""

    __slots__ = ("_store",)

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        table: Optional[InternTable] = None,
    ) -> None:
        self._store = ColumnarFactStore(facts, table=table)

    @property
    def store(self) -> ColumnarFactStore:
        """The id-rows of the indexed facts."""
        return self._store

    def add(self, fact: Fact) -> None:
        """Insert a fact (idempotent)."""
        self._store.add_fact(fact)

    def discard(self, fact: Fact) -> None:
        """Remove a fact if present."""
        self._store.discard_fact(fact)

    # Observer protocol of UncertainDatabase.
    fact_added = add
    fact_discarded = discard
