"""The write-ahead changelog: framed, checksummed commit records.

Every committed mutation batch of an observed database becomes exactly
one appended record — the durable twin of the net
:class:`~repro.model.database.ChangeSet`, as rows of raw values grouped
per relation.  A record decodes on its own: it needs no dictionary and
no earlier record.  Frame layout::

    [u32 payload length][u32 payload CRC-32][payload]

The payload is a pickled :class:`ChangelogRecord` tuple.  The reader
walks frames front to back and **stops at the first damaged one** — a
truncated length prefix, a payload cut short by a torn write, or a
checksum mismatch all mark the end of the committed history; everything
before the damage replays, everything after is discarded.  This is what
lets crash recovery land exactly on the last committed batch.

Durability policy is the writer's ``sync`` knob:

``"commit"`` (default)
    every append is flushed *and* fsynced — a record returned from
    :meth:`ChangelogWriter.append` survives an OS crash;
``"flush"``
    appends are flushed to the OS (they survive the *process* dying but
    not the machine losing power);
``"never"``
    appends ride the stdio buffer until :meth:`flush`/:meth:`close` —
    the fastest option, for workloads where the checkpoint cadence
    bounds acceptable loss.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, List, Tuple

from ..faults import InjectedFault, fire as _fire_fault

_FRAME = struct.Struct("<II")

#: One side of a batch: ``(relation_name, arity, key_size, rows)`` groups,
#: each row the raw values of one fact (:attr:`~repro.model.atoms.Fact.values`).
RowGroups = Tuple[Tuple[str, int, int, Tuple[Tuple[Any, ...], ...]], ...]

#: One committed batch: ``(mutation_version, added, discarded)``.
ChangelogRecord = Tuple[int, RowGroups, RowGroups]

SYNC_POLICIES = ("commit", "flush", "never")


class ChangelogWriter:
    """Appends framed, checksummed records to one changelog file."""

    def __init__(self, path: Path, sync: str = "commit") -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}: use one of {SYNC_POLICIES}"
            )
        self._path = Path(path)
        self._sync = sync
        self._fh = open(self._path, "ab")
        self._bytes_written = 0
        self._records_written = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def sync(self) -> str:
        return self._sync

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    @property
    def records_written(self) -> int:
        return self._records_written

    def append(self, record: ChangelogRecord) -> int:
        """Append one commit record; returns the framed size in bytes.

        Raises ``OSError`` when the write or fsync fails — the record is
        then **not** committed (a prefix of it may be on disk; the caller
        must truncate back to the last valid byte before retrying, which
        is what :meth:`DurableStore._commit` does).
        """
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        blob = frame + payload
        fault = _fire_fault("wal.write")
        if fault is not None and fault.kind == "torn":
            # A torn write: only a prefix of the frame lands, exactly as a
            # crash mid-write would leave the file, then the append fails.
            self._fh.write(blob[: max(1, len(blob) // 2)])
            self._fh.flush()
            raise InjectedFault("injected torn changelog write")
        self._fh.write(blob)
        if self._sync != "never":
            self._fh.flush()
            if self._sync == "commit":
                if _fire_fault("wal.fsync") is not None:
                    raise InjectedFault("injected changelog fsync failure")
                os.fsync(self._fh.fileno())
        size = len(blob)
        self._bytes_written += size
        self._records_written += 1
        return size

    def flush(self) -> None:
        """Flush (and, under ``"commit"``, fsync) buffered appends."""
        self._fh.flush()
        if self._sync == "commit":
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "ChangelogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_changelog(path: Path) -> Tuple[List[ChangelogRecord], int, bool]:
    """Read the committed prefix of a changelog file.

    Returns ``(records, valid_bytes, torn)``: the records up to the first
    damaged frame, the byte offset where the committed history ends, and
    whether trailing damage (a torn or corrupt tail) was found after it.
    A missing file reads as empty.  Re-opening the file for append must
    first truncate it to ``valid_bytes`` so new records never follow
    garbage — :meth:`DurableStore.attach` does exactly that.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, False
    data = path.read_bytes()
    records: List[ChangelogRecord] = []
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > len(data):
            break  # torn write: the final record never fully landed
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # corrupted record: stop at the last good one
        try:
            record = pickle.loads(payload)
        except Exception:
            break  # checksum collision on garbage — treat as damage
        records.append(record)
        offset = end
    return records, offset, offset != len(data)


def truncate_changelog(path: Path, valid_bytes: int) -> None:
    """Drop a torn/corrupt tail so appends resume after the last commit."""
    path = Path(path)
    if not path.exists():
        return
    if path.stat().st_size > valid_bytes:
        with open(path, "rb+") as fh:
            fh.truncate(valid_bytes)
            fh.flush()
            os.fsync(fh.fileno())


__all__ = [
    "ChangelogRecord",
    "ChangelogWriter",
    "RowGroups",
    "SYNC_POLICIES",
    "read_changelog",
    "truncate_changelog",
]
