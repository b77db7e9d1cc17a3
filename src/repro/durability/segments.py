"""Segment files: checksummed on-disk snapshots of a columnar store.

A *segment* is one immutable file holding the full committed state of a
:class:`~repro.store.columnar.ColumnarFactStore` plus the intern-table
values its ids decode through.  Layout::

    [header]  magic  format  epoch  mutation_version  meta_len  body_crc
    [body]    meta blob  ·  per relation, per position: [u64 n][n × int64]

The header is a fixed :mod:`struct` record; ``body_crc`` is the CRC-32 of
the entire body, so any torn or bit-flipped write is detected at read time
(:class:`SegmentCorruption`).  The meta blob carries the relation
signatures (name, arity, key size, row count) and the intern-table values
**in id order** — position ``i`` is the value of id ``i`` — so a reader
rebuilds an id-aligned :class:`~repro.store.intern.InternTable` and adopts
the raw columns without re-encoding a single fact.  Column payloads are
length-prefixed native ``array('q')`` bytes: writing is one ``tobytes``
per column, reading one ``frombytes`` — a memcpy, not a parse.

Segments are written to a temporary name and atomically renamed into
place, so a crash mid-checkpoint never damages the previous segment.
Only raw values and ids are stored — never object hashes — so segments
are safe across ``PYTHONHASHSEED`` boundaries.  Byte order is the
writer's native one (durability is a single-machine concern).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from array import array
from pathlib import Path
from typing import Any, List, Sequence, Tuple

from ..faults import InjectedFault, fire as _fire_fault
from ..model.atoms import RelationSchema
from ..store.columnar import ColumnarFactStore

#: Segment header: magic, format version, epoch, mutation version,
#: pickled-meta length, CRC-32 of the whole body.
_HEADER = struct.Struct("<4sIQQQI")
_COUNT = struct.Struct("<Q")
_MAGIC = b"WJSG"
_FORMAT_VERSION = 1


class SegmentCorruption(Exception):
    """The segment file is truncated, torn, or fails its checksum."""


class SegmentData:
    """A decoded segment: epoch, version, values, and raw relation columns."""

    __slots__ = ("epoch", "mutation_version", "values", "relations")

    def __init__(
        self,
        epoch: int,
        mutation_version: int,
        values: Tuple[Any, ...],
        relations: List[Tuple[RelationSchema, Tuple[array, ...]]],
    ) -> None:
        self.epoch = epoch
        self.mutation_version = mutation_version
        self.values = values
        self.relations = relations

    def fact_count(self) -> int:
        return sum(
            len(columns[0]) if columns else 0 for _, columns in self.relations
        )

    def __repr__(self) -> str:
        return (
            f"SegmentData(epoch={self.epoch}, v{self.mutation_version}, "
            f"{self.fact_count()} facts, {len(self.values)} constants)"
        )


def write_segment(
    path: Path,
    store: ColumnarFactStore,
    values: Sequence[Any],
    epoch: int,
    mutation_version: int,
) -> int:
    """Write *store*'s contents as a segment file; returns bytes written.

    *values* must be the **full** intern-table value list in id order
    (:meth:`~repro.store.intern.InternTable.snapshot`), so every id in the
    columns decodes on read.  The file is written to ``<path>.tmp``,
    fsynced, and atomically renamed onto *path*.
    """
    meta_relations = []
    column_chunks: List[bytes] = []
    for name in store.relation_names():
        rel = store.relation_columns(name)
        schema = rel.schema
        n_rows = len(rel)
        meta_relations.append((name, schema.arity, schema.key_size, n_rows))
        for column in rel.columns:
            raw = column.tobytes()
            column_chunks.append(_COUNT.pack(len(column)))
            column_chunks.append(raw)
    meta_blob = pickle.dumps(
        (tuple(meta_relations), tuple(values)), protocol=pickle.HIGHEST_PROTOCOL
    )
    body = meta_blob + b"".join(column_chunks)
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        epoch,
        mutation_version,
        len(meta_blob),
        zlib.crc32(body) & 0xFFFFFFFF,
    )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.flush()
        if _fire_fault("segment.fsync") is not None:
            raise InjectedFault(f"injected segment fsync failure for {path.name}")
        os.fsync(fh.fileno())
    if _fire_fault("segment.rename") is not None:
        # The checkpoint-interruption window: the tmp file is fully
        # written but never renamed — exactly what a crash here leaves.
        # The orphan stays on disk on purpose; DurableStore sweeps it.
        raise InjectedFault(
            f"injected checkpoint interruption before renaming {tmp.name}"
        )
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return len(header) + len(body)


def read_segment(path: Path) -> SegmentData:
    """Decode a segment file, raising :class:`SegmentCorruption` on damage."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise SegmentCorruption(f"{path}: shorter than the segment header")
    magic, fmt, epoch, mutation_version, meta_len, body_crc = _HEADER.unpack_from(
        data
    )
    if magic != _MAGIC:
        raise SegmentCorruption(f"{path}: bad magic {magic!r}")
    if fmt != _FORMAT_VERSION:
        raise SegmentCorruption(f"{path}: unsupported format version {fmt}")
    body = data[_HEADER.size :]
    if len(body) < meta_len:
        raise SegmentCorruption(f"{path}: truncated before the meta blob ends")
    if zlib.crc32(body) & 0xFFFFFFFF != body_crc:
        raise SegmentCorruption(f"{path}: body checksum mismatch")
    try:
        meta_relations, values = pickle.loads(body[:meta_len])
    except Exception as exc:  # checksum passed but the blob will not parse
        raise SegmentCorruption(f"{path}: undecodable meta blob: {exc}") from exc
    offset = meta_len
    itemsize = array("q").itemsize
    relations: List[Tuple[RelationSchema, Tuple[array, ...]]] = []
    for name, arity, key_size, n_rows in meta_relations:
        columns = []
        for _ in range(arity):
            if offset + _COUNT.size > len(body):
                raise SegmentCorruption(f"{path}: truncated column prefix")
            (count,) = _COUNT.unpack_from(body, offset)
            offset += _COUNT.size
            if count != n_rows:
                raise SegmentCorruption(
                    f"{path}: column of {name!r} holds {count} rows, "
                    f"expected {n_rows}"
                )
            end = offset + count * itemsize
            if end > len(body):
                raise SegmentCorruption(f"{path}: truncated column payload")
            column = array("q")
            column.frombytes(body[offset:end])
            offset += count * itemsize
            columns.append(column)
        relations.append((RelationSchema(name, arity, key_size), tuple(columns)))
    return SegmentData(epoch, mutation_version, values, relations)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
