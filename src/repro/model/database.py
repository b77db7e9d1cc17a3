"""Uncertain databases, blocks, and consistency.

An *uncertain database* is a finite set of facts in which primary keys need
not be satisfied.  A *block* is a maximal set of key-equal facts.  The
database is *consistent* when every block is a singleton.  A *repair* is a
maximal consistent subset, i.e. it picks exactly one fact from every block.

:class:`UncertainDatabase` stores exactly that: one insertion-ordered set
of facts.  Blocks are derived from it on demand by one grouping pass, in
the order of each block's first surviving fact, so block views and the
repairs drawn from them do not depend on string hashing.  Indexed access
by relation or block belongs to the engine's columnar store
(:mod:`repro.store`), which sessions keep in step through the observer
hooks below.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .atoms import Fact, RelationSchema
from .schema import DatabaseSchema
from .symbols import Constant

#: Identifier of a block: relation name plus the tuple of key constants.
BlockKey = Tuple[str, Tuple[Constant, ...]]


class ChangeSet:
    """The *net* record of a batch of database mutations.

    Recording keeps net semantics relative to the start of the batch: a fact
    added and then discarded inside the same batch cancels out entirely, and
    a fact discarded and re-added likewise leaves no trace.  Observers
    receiving a change set therefore see exactly the difference between the
    database before and after the batch, never the intermediate churn.
    """

    __slots__ = ("_added", "_discarded")

    def __init__(
        self, added: Iterable[Fact] = (), discarded: Iterable[Fact] = ()
    ) -> None:
        # Insertion-ordered dict-sets keep replay deterministic.
        self._added: Dict[Fact, None] = dict.fromkeys(added)
        self._discarded: Dict[Fact, None] = dict.fromkeys(discarded)

    # -- recording (used by UncertainDatabase inside a batch) --------------------

    def record_added(self, fact: Fact) -> None:
        """Record an insertion, cancelling a prior in-batch discard."""
        if fact in self._discarded:
            del self._discarded[fact]
        else:
            self._added[fact] = None

    def record_discarded(self, fact: Fact) -> None:
        """Record a removal, cancelling a prior in-batch insertion."""
        if fact in self._added:
            del self._added[fact]
        else:
            self._discarded[fact] = None

    # -- views -------------------------------------------------------------------

    @property
    def added(self) -> Tuple[Fact, ...]:
        """The facts inserted (net) by the batch."""
        return tuple(self._added)

    @property
    def discarded(self) -> Tuple[Fact, ...]:
        """The facts removed (net) by the batch."""
        return tuple(self._discarded)

    def facts(self) -> Iterator[Fact]:
        """Every fact touched by the batch (added, then discarded)."""
        yield from self._added
        yield from self._discarded

    def touched_blocks(self) -> Set[BlockKey]:
        """The block keys of every touched fact."""
        return {fact.block_key for fact in self.facts()}

    def touched_relations(self) -> Set[str]:
        """The relation names of every touched fact."""
        return {fact.relation.name for fact in self.facts()}

    def __len__(self) -> int:
        return len(self._added) + len(self._discarded)

    def __bool__(self) -> bool:
        return bool(self._added) or bool(self._discarded)

    def __repr__(self) -> str:
        return f"ChangeSet(+{len(self._added)}, -{len(self._discarded)})"


class DatabaseObserver:
    """Protocol for objects notified of database mutations.

    Observers registered with :meth:`UncertainDatabase.register_observer`
    receive ``fact_added(fact)`` after an insertion and
    ``fact_discarded(fact)`` after a removal.  Derived structures (such as
    the engine's shared fact indexes) use the hooks to stay consistent
    incrementally instead of being rebuilt per call.

    Mutations performed inside a :meth:`UncertainDatabase.batch` block are
    delivered as **one** consolidated :meth:`batch_applied` call instead of
    per-fact churn.  The default implementation replays the net changes
    through the per-fact hooks, so plain observers stay correct without
    opting in; batch-aware observers (such as the incremental view manager)
    override it to coalesce their maintenance work.
    """

    def fact_added(self, fact: Fact) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def fact_discarded(self, fact: Fact) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def batch_applied(self, changes: ChangeSet) -> None:
        """One consolidated notification for a whole mutation batch.

        Default: replay the net changes through ``fact_added`` /
        ``fact_discarded`` in recording order.
        """
        for fact in changes.added:
            self.fact_added(fact)
        for fact in changes.discarded:
            self.fact_discarded(fact)


class UncertainDatabase:
    """A finite set of facts over a database schema.

    The database may violate primary keys; facts sharing a relation name and
    a key value form a *block*.  The facts, kept in insertion order, are the
    class's only state: every block view is grouped from them on demand.
    Observers can register for add/discard notifications.
    """

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        schema: Optional[DatabaseSchema] = None,
        mutation_version: Optional[int] = None,
    ) -> None:
        self._schema = schema if schema is not None else DatabaseSchema()
        # Insertion-ordered dict-set: block views follow it, not hashing.
        self._facts: Dict[Fact, None] = {}
        self._observers: List[DatabaseObserver] = []
        self._batch_depth = 0
        self._batch_changes: Optional[ChangeSet] = None
        self._mutation_version = 0
        for fact in facts:
            self.add(fact)
        if mutation_version is not None:
            # Resume a prior counter sequence (crash recovery): the initial
            # facts are state being *restored*, not new mutations, so their
            # add() bumps above are folded into the recovered version.
            if mutation_version < 0:
                raise ValueError("mutation_version must be non-negative")
            self._mutation_version = mutation_version

    @property
    def mutation_version(self) -> int:
        """A counter that advances exactly when the fact set changes.

        Semantics: the version is bumped once per *effective* mutation — an
        ``add`` of a new fact or a ``discard`` of a present fact — and once
        per outermost :meth:`batch` whose net :class:`ChangeSet` is
        non-empty (the bump happens before observers are notified, so a
        ``batch_applied`` handler already sees the post-batch version).
        Idempotent no-ops (re-adding a present fact, discarding an absent
        one, a batch that nets out to nothing) leave it unchanged.

        Two reads returning the same version therefore guarantee the fact
        set is identical, which is what lets
        :class:`~repro.durability.DurableStore` key its changelog records
        and checkpoints by the version and recognise a database it
        recovered with one integer comparison.  Inside a batch the version
        is *not* yet advanced, matching the documented staleness of
        observer-derived structures there.
        """
        return self._mutation_version

    # -- observers --------------------------------------------------------------

    def register_observer(self, observer: DatabaseObserver) -> None:
        """Register an observer for add/discard notifications (idempotent)."""
        if observer not in self._observers:
            self._observers.append(observer)

    def unregister_observer(self, observer: DatabaseObserver) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- mutation ---------------------------------------------------------------

    def add(self, fact: Fact) -> None:
        """Insert a fact (idempotent)."""
        if not isinstance(fact, Fact):
            raise TypeError(f"expected a Fact, got {fact!r}")
        self._schema.add(fact.relation)
        if fact in self._facts:
            return
        self._facts[fact] = None
        if self._batch_changes is not None:
            self._batch_changes.record_added(fact)
        else:
            self._mutation_version += 1
            for observer in self._observers:
                observer.fact_added(fact)

    def add_all(self, facts: Iterable[Fact]) -> None:
        """Insert every fact in *facts*."""
        for fact in facts:
            self.add(fact)

    def discard(self, fact: Fact) -> None:
        """Remove a fact if present."""
        if fact not in self._facts:
            return
        del self._facts[fact]
        if self._batch_changes is not None:
            self._batch_changes.record_discarded(fact)
        else:
            self._mutation_version += 1
            for observer in self._observers:
                observer.fact_discarded(fact)

    def remove_block(self, block_key: BlockKey) -> None:
        """Remove an entire block of key-equal facts (one pass over the facts)."""
        for fact in [f for f in self._facts if f.block_key == block_key]:
            self.discard(fact)

    # -- batched mutation --------------------------------------------------------

    @property
    def in_batch(self) -> bool:
        """``True`` while inside a :meth:`batch` block."""
        return self._batch_depth > 0

    @contextmanager
    def batch(self) -> Iterator["UncertainDatabase"]:
        """Coalesce mutations into one consolidated observer notification.

        Inside the block, ``add``/``discard``/``remove_block`` update the
        fact set immediately, but observers are *not* notified per fact.
        When the outermost batch exits, every observer receives a single
        :meth:`DatabaseObserver.batch_applied` call carrying the net
        :class:`ChangeSet` — plain observers replay it per fact through the
        default implementation, batch-aware observers (incremental views,
        mutation counters) coalesce.

        Batches nest: inner batches merge into the outermost change set.
        If the block raises, mutations already applied are still reported
        (the database *was* changed — observers must not go stale).
        :attr:`mutation_version` advances once per non-empty outermost
        batch, just before the observer fan-out.

        Note that derived observer structures (e.g. a session's fact index)
        are stale *inside* the batch; queries should run outside it.

        >>> with db.batch():                       # doctest: +SKIP
        ...     db.add(f1)
        ...     db.discard(f2)
        ... # one batch_applied(ChangeSet(+1, -1)) fires here
        """
        if self._batch_depth == 0:
            self._batch_changes = ChangeSet()
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                changes = self._batch_changes
                self._batch_changes = None
                if changes:
                    # One version bump per non-empty batch, before the
                    # fan-out: batch-aware observers see the new version.
                    self._mutation_version += 1
                    for observer in list(self._observers):
                        # Observers are duck-typed (e.g. ColumnarFactIndex aliases
                        # fact_added = add); fall back to per-fact replay
                        # for those without a batch hook.
                        handler = getattr(observer, "batch_applied", None)
                        if handler is not None:
                            handler(changes)
                        else:
                            for fact in changes.added:
                                observer.fact_added(fact)
                            for fact in changes.discarded:
                                observer.fact_discarded(fact)

    def bulk_add(self, facts: Iterable[Fact]) -> None:
        """Insert many facts; observers receive one batched notification.

        The fact set is updated per fact exactly as :meth:`add` does, but
        the observer fan-out is deferred to a single consolidated
        :meth:`DatabaseObserver.batch_applied` call.
        """
        with self.batch():
            for fact in facts:
                self.add(fact)

    def bulk_discard(self, facts: Iterable[Fact]) -> None:
        """Remove many facts; observers receive one batched notification."""
        with self.batch():
            for fact in facts:
                self.discard(fact)

    # -- container protocol -------------------------------------------------------

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __bool__(self) -> bool:
        return bool(self._facts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UncertainDatabase) and self._facts == other._facts

    def __repr__(self) -> str:
        return f"UncertainDatabase({len(self._facts)} facts, {self.num_blocks()} blocks)"

    # -- views ---------------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema (relation signatures)."""
        return self._schema

    @property
    def facts(self) -> FrozenSet[Fact]:
        """An immutable snapshot of the facts."""
        return frozenset(self._facts)

    def _grouped(self) -> Dict[BlockKey, List[Fact]]:
        """Every block's facts, keyed in the order of each block's first fact."""
        groups: Dict[BlockKey, List[Fact]] = {}
        for fact in self._facts:
            key = fact.block_key
            group = groups.get(key)
            if group is None:
                groups[key] = [fact]
            else:
                group.append(fact)
        return groups

    def blocks(self) -> List[FrozenSet[Fact]]:
        """All blocks, as frozensets of key-equal facts."""
        return [frozenset(group) for group in self._grouped().values()]

    def block_keys(self) -> List[BlockKey]:
        """The identifiers of all blocks."""
        return list(self._grouped())

    def block(self, block_key: BlockKey) -> FrozenSet[Fact]:
        """The block identified by *block_key* (empty if absent)."""
        return frozenset(f for f in self._facts if f.block_key == block_key)

    def num_blocks(self) -> int:
        """The number of blocks."""
        return len(self._grouped())

    def is_consistent(self) -> bool:
        """``True`` iff every block is a singleton (no key violations)."""
        return self.num_blocks() == len(self._facts)

    def active_domain(self) -> FrozenSet[Constant]:
        """The set of constants occurring in the database."""
        domain: Set[Constant] = set()
        for fact in self._facts:
            domain.update(fact.terms)  # all terms of a fact are constants
        return frozenset(domain)

    def restrict_to_relations(self, names: Iterable[str]) -> "UncertainDatabase":
        """The sub-database containing only facts of the given relations.

        The restricted database keeps the relation signatures of every kept
        relation, including relations that currently have no facts.
        """
        keep = set(names)
        schema = DatabaseSchema(r for r in self._schema if r.name in keep)
        return UncertainDatabase(
            (f for f in self._facts if f.relation.name in keep), schema=schema
        )

    def copy(self) -> "UncertainDatabase":
        """A shallow copy (facts are immutable, so this is a full copy).

        Observers are *not* copied: they track the original database only.
        """
        return UncertainDatabase(self._facts, schema=DatabaseSchema(iter(self._schema)))

    def union(self, other: "UncertainDatabase") -> "UncertainDatabase":
        """The union of two uncertain databases."""
        db = self.copy()
        db.add_all(other.facts)
        return db

    # -- convenience constructors ----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[RelationSchema, Tuple]],
    ) -> "UncertainDatabase":
        """Build a database from ``(relation, value-tuple)`` pairs."""
        db = cls()
        for relation, values in rows:
            db.add(relation.fact(*values))
        return db

    def pretty(self) -> str:
        """A human-readable multi-line rendering grouped by relation and block."""
        lines: List[str] = []
        groups = self._grouped()
        by_relation: Dict[str, List[BlockKey]] = {}
        for key in groups:
            by_relation.setdefault(key[0], []).append(key)
        for name in sorted(by_relation):
            lines.append(f"{name}:")
            for key in sorted(by_relation[name], key=lambda k: tuple(str(c) for c in k[1])):
                rendered = sorted(str(f) for f in groups[key])
                lines.append("  " + " | ".join(rendered))
        return "\n".join(lines)
