"""DurableStore: the persistence tier under the columnar engine.

A :class:`DurableStore` makes an :class:`~repro.model.database.UncertainDatabase`
survive restarts.  What it persists is the paper's object itself — the
set of facts — never the engine's interned ids, so the tier keeps no
store and no intern table of its own.  Two mechanisms cooperate:

**Segment snapshots** (:mod:`repro.durability.segments`)
    :meth:`checkpoint` writes the attached database's facts, dictionary-
    encoded at write time, to one checksummed, atomically-renamed segment
    file.  A segment therefore holds exactly the constants of its facts.

**Write-ahead changelog** (:mod:`repro.durability.changelog`)
    Attached as a database observer, the store appends one framed,
    checksummed record per committed mutation batch: the net
    :class:`~repro.model.database.ChangeSet` as rows of raw values grouped
    per relation, keyed by the database's ``mutation_version`` (the
    natural log sequence number).  The ``sync`` knob picks the
    fsync-on-commit policy.

Recovery (:meth:`open`, or constructing over a non-empty directory) loads
the newest valid segment into per-relation row sets and replays the
changelog tail into them, stopping at the first torn or corrupt record,
so a cold restart reaches exactly the last committed pre-crash state.
:class:`~repro.model.atoms.Fact` objects are built once, for the rows that
survive; :meth:`database` wraps them in a fresh ``UncertainDatabase``
whose ``mutation_version`` continues the pre-crash sequence.

Like the database itself, the writer side assumes a single mutating
thread.  Register the durable store **before** sessions and view managers
(``attach`` does this for you when called first), so a subscriber-triggered
mutation can never reach the log ahead of the mutation that caused it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..model.atoms import Fact, RelationSchema
from ..model.database import ChangeSet, DatabaseObserver, UncertainDatabase
from ..model.schema import DatabaseSchema
from ..model.symbols import Constant
from .changelog import (
    ChangelogWriter,
    RowGroups,
    read_changelog,
    truncate_changelog,
)
from .segments import SegmentCorruption, read_segment, write_segment


class DurabilityError(RuntimeError):
    """A committed batch could not be made durable.

    Raised by the write path when a changelog append fails even after the
    WAL was re-opened.  The batch was **not acknowledged**: it is applied
    to the in-memory database (so a later
    :meth:`DurableStore.checkpoint` can still persist it), but it is not
    in the log, and recovery before that checkpoint lands on the last
    acknowledged state.  Once raised, further commits keep raising until
    ``checkpoint()`` re-establishes a durable baseline.
    """


class DurabilityStats:
    """Counters describing one durable store's lifetime."""

    __slots__ = (
        "commits",
        "log_bytes_appended",
        "checkpoints",
        "replayed_records",
        "skipped_segments",
        "torn_tail_bytes",
        "wal_reopens",
        "failed_commits",
        "failed_checkpoints",
        "tmp_files_swept",
    )

    def __init__(self) -> None:
        self.commits = 0
        self.log_bytes_appended = 0
        self.checkpoints = 0
        self.replayed_records = 0
        self.skipped_segments = 0
        self.torn_tail_bytes = 0
        self.wal_reopens = 0
        self.failed_commits = 0
        self.failed_checkpoints = 0
        self.tmp_files_swept = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"DurabilityStats({inner})"


class DurableStore(DatabaseObserver):
    """Segment snapshots + write-ahead changelog for one database.

    Parameters
    ----------
    directory:
        Where segments and changelogs live (created if missing).  A
        non-empty directory is **recovered on construction**: the newest
        valid segment is loaded and the changelog tail replayed, after
        which :meth:`facts` and :attr:`mutation_version` describe the last
        committed state.
    sync:
        Changelog durability policy — ``"commit"`` (fsync per batch,
        default), ``"flush"``, or ``"never"``; see
        :class:`~repro.durability.changelog.ChangelogWriter`.
    """

    def __init__(self, directory, sync: str = "commit") -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._sync = sync
        self._version = 0
        #: The committed facts while no database is attached.
        self._facts: Tuple[Fact, ...] = ()
        self._db: Optional[UncertainDatabase] = None
        self._log: Optional[ChangelogWriter] = None
        self._log_path: Optional[Path] = None
        self._log_valid_bytes = 0
        self._closed = False
        self._failed = False  # a commit could not be logged; checkpoint heals
        self.stats = DurabilityStats()
        self._recover()

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(cls, directory, **kwargs) -> "DurableStore":
        """Recover the committed state persisted under *directory*.

        Alias of the constructor, named for the read side: the returned
        store's :meth:`facts` hold the snapshot + replayed changelog tail,
        and :meth:`database` wraps them in a live ``UncertainDatabase``.
        Call :meth:`attach` on that database to resume appending where the
        pre-crash process stopped.
        """
        return cls(directory, **kwargs)

    # -- views -------------------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def mutation_version(self) -> int:
        """The log sequence number of the last committed batch."""
        return self._version

    @property
    def attached(self) -> bool:
        return self._db is not None

    @property
    def failed(self) -> bool:
        """``True`` while an unrecoverable append blocks further commits.

        Entered when a changelog append fails even after a WAL re-open;
        cleared by the next successful :meth:`checkpoint`.
        """
        return self._failed

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("attached" if self.attached else "idle")
        return (
            f"DurableStore({str(self._dir)!r}, v{self._version}, "
            f"{len(self.facts())} facts, {state})"
        )

    def facts(self) -> Tuple[Fact, ...]:
        """The committed facts: the attached database's, else the recovered ones."""
        return tuple(self._db) if self._db is not None else self._facts

    def database(self, schema: Optional[DatabaseSchema] = None) -> UncertainDatabase:
        """A fresh ``UncertainDatabase`` holding the committed state.

        The database's ``mutation_version`` is restored to the recovered
        log sequence number, so changelog records appended after a
        re-:meth:`attach` continue the pre-crash numbering.
        """
        return UncertainDatabase(
            self.facts(),
            schema=schema,
            mutation_version=self._version,
        )

    # -- attaching ---------------------------------------------------------------

    def attach(self, db: UncertainDatabase) -> "DurableStore":
        """Observe *db*, appending every committed batch to the changelog.

        Two supported shapes: a database built from this store's own
        :meth:`database` (recovery — appends resume on the recovered log),
        or any other database (fresh start — an initial checkpoint of its
        facts establishes the segment baseline).  Attach **before**
        creating sessions or view managers over *db*, so the changelog
        observer runs first in the notification order.
        """
        self._check_open()
        if self._db is not None:
            raise RuntimeError("this DurableStore is already attached")
        resume = (
            self._log_path is not None
            and db.mutation_version == self._version
            and len(db) == len(self._facts)
        )
        self._db = db
        self._facts = ()  # the database holds the committed facts from here on
        db.register_observer(self)
        if resume:
            # Recovery path: resume appending to the existing changelog,
            # dropping any torn tail left by the crash first.
            truncate_changelog(self._log_path, self._log_valid_bytes)
            self._log = ChangelogWriter(self._log_path, sync=self._sync)
        else:
            # Fresh start: adopt the database's current contents as the
            # new baseline and checkpoint immediately so recovery always
            # has a segment to stand on.
            self._version = db.mutation_version
            self.checkpoint()
        return self

    def detach(self) -> None:
        """Stop observing the attached database (no-op when idle)."""
        if self._db is not None:
            self._db.unregister_observer(self)
            self._facts = tuple(self._db)
            self._db = None

    def close(self) -> None:
        """Flush and close the changelog, detaching first (idempotent)."""
        if self._closed:
            return
        self.detach()
        if self._log is not None:
            self._log.close()
            self._log = None
        self._closed = True

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def simulate_crash(self) -> None:
        """Abandon the writer as a crash would: no final flush under
        ``sync="never"``, no checkpoint, no clean close.  The on-disk
        state is exactly what the chosen sync policy guaranteed so far —
        tests and benchmarks recover from it with :meth:`open`."""
        self.detach()
        if self._log is not None and self._sync == "never":
            # A real crash loses the user-space buffer; drop it by closing
            # the raw descriptor without flushing Python's buffer.
            import os

            try:
                os.close(self._log._fh.fileno())  # noqa: SLF001 - test hook
            except OSError:
                pass
            try:
                self._log._fh.close()
            except (OSError, ValueError):
                pass
        elif self._log is not None:
            self._log.close()
        self._log = None
        self._closed = True

    # -- observer protocol -------------------------------------------------------

    def fact_added(self, fact: Fact) -> None:
        self._commit(ChangeSet(added=(fact,)))

    def fact_discarded(self, fact: Fact) -> None:
        self._commit(ChangeSet(discarded=(fact,)))

    def batch_applied(self, changes: ChangeSet) -> None:
        self._commit(changes)

    def _commit(self, changes: ChangeSet) -> None:
        """Append one committed batch's changelog record.

        **Never acknowledges an uncommitted batch**: the record is counted
        as a commit only after the changelog append (including its fsync)
        succeeded.  On an append ``OSError`` the WAL is re-opened — the
        broken handle is closed, any torn partial frame is truncated back
        to the last valid byte, and the append retried on a fresh writer.
        If that retry also fails, :class:`DurabilityError` propagates to
        the mutating caller, the batch stays applied-but-unlogged, and
        the store refuses further commits until :meth:`checkpoint`
        re-establishes a durable baseline.
        """
        if not changes or self._closed:
            return
        if self._log is None:
            raise RuntimeError(
                "DurableStore received a mutation before attach() opened "
                "its changelog"
            )
        version = self._db.mutation_version if self._db is not None else self._version + 1
        if self._failed:
            # Nothing is acknowledged as durable, but the database keeps
            # every batch, so a checkpoint can still persist it.
            self._version = version
            self.stats.failed_commits += 1
            raise DurabilityError(
                "durable store is in a failed state after an unrecoverable "
                "changelog append; checkpoint() to restore durability"
            )
        record = (version, _row_groups(changes.added), _row_groups(changes.discarded))
        try:
            size = self._log.append(record)
        except OSError:
            try:
                size = self._retry_append(record)
            except DurabilityError:
                self._version = version
                self.stats.failed_commits += 1
                raise
        self._version = version
        self.stats.commits += 1
        self.stats.log_bytes_appended += size
        self._log_valid_bytes += size

    def _retry_append(self, record) -> int:
        """Re-open the WAL after a failed append and retry the record once.

        A failed append may have left a torn partial frame on disk;
        re-opening truncates back to ``_log_valid_bytes`` (the end of the
        last acknowledged record) first, so the retried record never lands
        after garbage.  A second failure marks the store failed and raises
        :class:`DurabilityError`.
        """
        self.stats.wal_reopens += 1
        if self._log is not None:
            try:
                self._log.close()
            except OSError:
                pass
        truncate_changelog(self._log_path, self._log_valid_bytes)
        self._log = ChangelogWriter(self._log_path, sync=self._sync)
        try:
            return self._log.append(record)
        except OSError as exc:
            self._failed = True
            raise DurabilityError(
                "changelog append failed twice (WAL re-open did not help); "
                "the batch is NOT durable"
            ) from exc

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Write a segment snapshot of :meth:`facts` and start a fresh changelog.

        Returns a summary dict (segment path, version, segment bytes, fact
        count).  Failure-contained: stale ``*.tmp`` files from a failed
        write are swept before the error propagates, and the previous
        segment and changelog stay in place.  A successful checkpoint
        clears the failed-commit state: the new segment is a complete
        durable baseline, including any applied-but-unlogged batches.
        """
        self._check_open()
        facts = self.facts()
        segment_path = self._segment_path(self._version)
        try:
            segment_bytes = write_segment(segment_path, facts, self._version)
        except Exception:
            self.stats.failed_checkpoints += 1
            self._sweep_tmp_files()
            raise
        if self._log is not None:
            self._log.close()
        self._log_path = self._wal_path(self._version)
        # A stale log from an earlier checkpoint at this exact version
        # would replay twice; start clean.
        if self._log_path.exists():
            self._log_path.unlink()
        self._log = ChangelogWriter(self._log_path, sync=self._sync)
        self._log_valid_bytes = 0
        self._prune_older_than(segment_path, self._log_path)
        self._failed = False
        self.stats.checkpoints += 1
        return {
            "segment": str(segment_path),
            "mutation_version": self._version,
            "segment_bytes": segment_bytes,
            "facts": len(facts),
        }

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Load the newest valid segment, then replay its changelog tail."""
        # A crash between a checkpoint's tmp write and its atomic rename
        # leaves an orphaned *.tmp; it was never part of the committed
        # state, so sweep it before recovery even looks at segments.
        self._sweep_tmp_files()
        for candidate in sorted(self._dir.glob("segment-*.seg"), reverse=True):
            try:
                segment = read_segment(candidate)
            except (SegmentCorruption, OSError):
                self.stats.skipped_segments += 1
                continue
            break
        else:
            return  # empty (or unrecoverable) directory: genesis state
        rows = segment.rows()
        self._version = segment.mutation_version
        self._log_path = self._wal_path(segment.mutation_version)
        records, valid_bytes, torn = read_changelog(self._log_path)
        if torn:
            self.stats.torn_tail_bytes = (
                self._log_path.stat().st_size - valid_bytes
            )
        self._log_valid_bytes = valid_bytes
        for version, added, discarded in records:
            for name, arity, key_size, group in added:
                rows.setdefault(RelationSchema(name, arity, key_size), set()).update(group)
            for name, arity, key_size, group in discarded:
                rows.get(RelationSchema(name, arity, key_size), set()).difference_update(group)
            self._version = version
            self.stats.replayed_records += 1
        self._facts = tuple(
            Fact(schema, tuple(map(Constant, values)))
            for schema, group in rows.items()
            for values in group
        )

    # -- paths and pruning -------------------------------------------------------

    def _segment_path(self, version: int) -> Path:
        return self._dir / f"segment-{version:012d}.seg"

    def _wal_path(self, version: int) -> Path:
        return self._dir / f"wal-{version:012d}.log"

    def _sweep_tmp_files(self) -> int:
        """Delete orphaned ``*.tmp`` files (interrupted checkpoint writes)."""
        swept = 0
        for candidate in self._dir.glob("*.tmp"):
            try:
                candidate.unlink()
                swept += 1
            except OSError:
                pass
        self.stats.tmp_files_swept += swept
        return swept

    def _prune_older_than(self, segment_path: Path, log_path: Path) -> None:
        """Delete superseded segments and changelogs (the new pair stays)."""
        keep = {segment_path.name, log_path.name}
        for pattern in ("segment-*.seg", "wal-*.log", "segment-*.seg.tmp"):
            for candidate in self._dir.glob(pattern):
                if candidate.name not in keep:
                    try:
                        candidate.unlink()
                    except OSError:
                        pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this DurableStore is closed")


def _row_groups(facts: Tuple[Fact, ...]) -> RowGroups:
    """Group net added or discarded facts into per-relation value rows."""
    grouped: Dict[RelationSchema, List[Tuple]] = {}
    for fact in facts:
        grouped.setdefault(fact.relation, []).append(fact.values)
    return tuple(
        (schema.name, schema.arity, schema.key_size, tuple(rows))
        for schema, rows in grouped.items()
    )
