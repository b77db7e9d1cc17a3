"""Global constant interning: ``Constant`` ↔ dense integer term ids.

Every hot kernel of the engine — hash joins, anti-joins, block probes,
purify sweeps — ultimately performs set and dict operations on tuples of
terms.  A :class:`~repro.model.symbols.Constant` hashes by building (and
hashing) a ``("Constant", value)`` tuple on *every* call and compares
through an ``isinstance`` check, so object-tuple keys pay a large constant
factor per operation.  Interning maps each distinct constant to a small
dense ``int`` exactly once; from then on every kernel runs on integer
tuples, whose hashing and equality are the cheapest CPython offers.

Interning invariants
--------------------

1. **Injective and stable**: each distinct constant value receives exactly
   one id, ids are dense (``0, 1, 2, ...`` in first-intern order), and an
   id is never reassigned or reused for the lifetime of the table.  Code
   may therefore cache ids freely (compiled plans, columnar rows, block
   keys) — two ids are equal iff the underlying constants are equal.
2. **Append-only**: constants are never removed, even when every fact
   using them is discarded.  The table is a process-lifetime dictionary;
   its memory footprint is bounded by the number of *distinct* constants
   ever seen (see :meth:`InternTable.memory_stats`).  Nothing compacts
   it: a tenant's table grows with the distinct constants the tenant has
   seen, and dropping the tenant releases it whole.
3. **Total over the execution**: every id that appears in a columnar row,
   a probe key, or a decoded answer was produced by this table, so
   decoding (:meth:`InternTable.constant`) is always defined.
4. **Serialization ships values, not hashes**: pickling (and
   :meth:`InternTable.snapshot`) transports the raw wrapped values in id
   order.  The receiving process rebuilds constants — and their hashes —
   locally, so tables cross ``PYTHONHASHSEED`` boundaries safely (the same
   guarantee :class:`~repro.model.atoms.Atom` makes for facts).

A process-wide default table (:func:`global_intern_table`) is shared by
every :class:`~repro.store.columnar.ColumnarFactStore` unless a private
table is supplied, so term ids agree across sessions, stores, and plans
inside one process.  Shard worker processes rebuild their stores from
shipped deltas and intern against their own table; ids are process-local and
never compared across processes (portable data — facts, candidates, read
sets — is decoded before it crosses).
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..model.symbols import Constant


class InternTable:
    """A bidirectional, append-only ``Constant`` ↔ dense ``int`` id mapping.

    Thread-safe: lookups take the GIL-atomic dict fast path; inserts are
    double-checked under a lock so concurrent interning of the same
    constant always yields the same id.
    """

    __slots__ = ("_ids", "_constants", "_lock")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._ids: Dict[Constant, int] = {}
        self._constants: List[Constant] = []
        self._lock = threading.Lock()
        for value in values:
            self.intern(value if isinstance(value, Constant) else Constant(value))

    # -- interning ---------------------------------------------------------------

    def intern(self, constant: Constant) -> int:
        """The id of *constant*, assigning the next dense id on first sight."""
        term_id = self._ids.get(constant)
        if term_id is not None:
            return term_id
        with self._lock:
            term_id = self._ids.get(constant)
            if term_id is None:
                term_id = len(self._constants)
                self._constants.append(constant)
                self._ids[constant] = term_id
            return term_id

    def intern_many(self, constants: Iterable[Constant]) -> Tuple[int, ...]:
        """Intern a sequence of constants into a tuple of ids."""
        return tuple(self.intern(c) for c in constants)

    def id_of(self, constant: Constant) -> Optional[int]:
        """The id of *constant* if already interned, else ``None``."""
        return self._ids.get(constant)

    # -- decoding ----------------------------------------------------------------

    def constant(self, term_id: int) -> Constant:
        """The constant with the given id (raises ``IndexError`` if unknown)."""
        return self._constants[term_id]

    def decode(self, ids: Iterable[int]) -> Tuple[Constant, ...]:
        """Decode a row of ids back into constants."""
        constants = self._constants
        return tuple(constants[i] for i in ids)

    # -- views -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._constants)

    def __contains__(self, constant: object) -> bool:
        return constant in self._ids

    def __repr__(self) -> str:
        return f"InternTable({len(self._constants)} constants)"

    def memory_stats(self) -> Dict[str, int]:
        """Approximate memory footprint of the table, in bytes.

        Counts the two container objects plus every wrapped value once
        (Constants in the list and dict are the same objects).
        """
        values_bytes = sum(
            sys.getsizeof(c) + sys.getsizeof(c.value) for c in self._constants
        )
        return {
            "constants": len(self._constants),
            "values_bytes": values_bytes,
            "forward_dict_bytes": sys.getsizeof(self._ids),
            "reverse_list_bytes": sys.getsizeof(self._constants),
            "total_bytes": (
                values_bytes
                + sys.getsizeof(self._ids)
                + sys.getsizeof(self._constants)
            ),
        }

    # -- serialization -----------------------------------------------------------

    def values_since(self, base: int) -> Tuple[Any, ...]:
        """The raw values of the ids assigned since *base*, in id order.

        The table is append-only, so ``values_since(base)`` is exactly the
        suffix a mirror table holding ids ``0..base-1`` needs to catch up:
        position ``i`` of the result is the value of id ``base + i``.  This
        is the intern-table *delta* of the sharded runtime's wire format —
        only newly-interned constant values ship to long-lived workers,
        never the whole table.
        """
        with self._lock:
            return tuple(c.value for c in self._constants[base:])

    def extend_values(self, base: int, values: Iterable[Any]) -> None:
        """Append *values* as ids ``base, base+1, ...`` (mirror-table catch-up).

        Raises ``ValueError`` when *base* does not equal the current table
        size — a mirror that misses a delta must never silently skew its id
        space, because every id shipped afterwards would decode wrongly.
        """
        if base != len(self._constants):
            raise ValueError(
                f"intern delta starts at id {base} but the mirror holds "
                f"{len(self._constants)} ids"
            )
        for value in values:
            self.intern(Constant(value))

    def snapshot(self) -> Tuple[Any, ...]:
        """The raw wrapped values in id order (a stable, compact wire format).

        Position ``i`` of the snapshot is the value of the constant with id
        ``i``; :meth:`from_snapshot` rebuilds an equivalent table in any
        process regardless of its hash salt.
        """
        with self._lock:
            return tuple(c.value for c in self._constants)

    @classmethod
    def from_snapshot(cls, values: Iterable[Any]) -> "InternTable":
        """Rebuild a table from :meth:`snapshot` output (ids preserved)."""
        return cls(values)

    # Pickle ships raw values only: Constant hashes are salted per process
    # (PYTHONHASHSEED) and must be recomputed on the receiving side.
    def __getstate__(self) -> Tuple[Any, ...]:
        return self.snapshot()

    def __setstate__(self, values: Tuple[Any, ...]) -> None:
        self._ids = {}
        self._constants = []
        self._lock = threading.Lock()
        for value in values:
            self.intern(Constant(value))


#: The process-wide intern table shared by default-constructed stores.
_GLOBAL_TABLE = InternTable()


def global_intern_table() -> InternTable:
    """The process-wide intern table (one id space per process)."""
    return _GLOBAL_TABLE
