"""Segment files: checksummed on-disk snapshots of a database's facts.

A *segment* is one immutable file holding the committed facts of a
database, dictionary-encoded at write time: each distinct constant value
gets a code in first-seen order, and each relation is stored as one code
column per position.  Layout::

    [header]  magic  format  mutation_version  meta_len  body_crc
    [body]    meta blob  ·  per relation, per position: [u64 n][n × int64]

The header is a fixed :mod:`struct` record; ``body_crc`` is the CRC-32 of
the entire body, so any torn or bit-flipped write is detected at read time
(:class:`SegmentCorruption`).  The meta blob carries the relation
signatures (name, arity, key size, row count) and the value dictionary
**in code order** — position ``i`` is the value of code ``i``.  The
dictionary is built from the facts being written, so a segment holds
exactly the constants of its facts, whatever churn came before.  Column
payloads are length-prefixed native ``array('q')`` bytes: writing is one
``tobytes`` per column, reading one ``frombytes``.

Segments are written to a temporary name and atomically renamed into
place, so a crash mid-checkpoint never damages the previous segment.
Only raw values and codes are stored — never object hashes — so segments
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
from typing import Any, Dict, Iterable, List, Set, Tuple

from ..faults import InjectedFault, fire as _fire_fault
from ..model.atoms import Fact, RelationSchema

#: Segment header: magic, format version, mutation version, pickled-meta
#: length, CRC-32 of the whole body.
_HEADER = struct.Struct("<4sIQQI")
_COUNT = struct.Struct("<Q")
_MAGIC = b"WJSG"
_FORMAT_VERSION = 2


class SegmentCorruption(Exception):
    """The segment file is truncated, torn, or fails its checksum."""


class SegmentData:
    """A decoded segment: version, value dictionary, and code columns."""

    __slots__ = ("mutation_version", "values", "relations")

    def __init__(
        self,
        mutation_version: int,
        values: Tuple[Any, ...],
        relations: List[Tuple[RelationSchema, Tuple[array, ...]]],
    ) -> None:
        self.mutation_version = mutation_version
        self.values = values
        self.relations = relations

    def rows(self) -> Dict[RelationSchema, Set[Tuple[Any, ...]]]:
        """Each relation's rows of raw values, decoded through :attr:`values`."""
        values = self.values
        return {
            schema: set(zip(*([values[code] for code in column] for column in columns)))
            for schema, columns in self.relations
        }

    def fact_count(self) -> int:
        return sum(len(columns[0]) for _, columns in self.relations)

    def __repr__(self) -> str:
        return (
            f"SegmentData(v{self.mutation_version}, "
            f"{self.fact_count()} facts, {len(self.values)} constants)"
        )


def write_segment(path: Path, facts: Iterable[Fact], mutation_version: int) -> int:
    """Write *facts* as a segment file; returns bytes written.

    The value dictionary is built from *facts* alone.  The file is written
    to ``<path>.tmp``, fsynced, and atomically renamed onto *path*.
    """
    codes: Dict[Any, int] = {}
    grouped: Dict[RelationSchema, List[array]] = {}
    for fact in facts:
        columns = grouped.get(fact.relation)
        if columns is None:
            columns = [array("q") for _ in range(fact.relation.arity)]
            grouped[fact.relation] = columns
        for column, value in zip(columns, fact.values):
            column.append(codes.setdefault(value, len(codes)))
    meta_relations = tuple(
        (schema.name, schema.arity, schema.key_size, len(columns[0]))
        for schema, columns in grouped.items()
    )
    column_chunks: List[bytes] = []
    for columns in grouped.values():
        for column in columns:
            column_chunks.append(_COUNT.pack(len(column)))
            column_chunks.append(column.tobytes())
    meta_blob = pickle.dumps(
        (meta_relations, tuple(codes)), protocol=pickle.HIGHEST_PROTOCOL
    )
    body = meta_blob + b"".join(column_chunks)
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
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
    magic, fmt, mutation_version, meta_len, body_crc = _HEADER.unpack_from(data)
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
    return SegmentData(mutation_version, values, relations)


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
