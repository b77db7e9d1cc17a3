"""The interned columnar fact store: relations as rows of term ids.

A :class:`ColumnarFactStore` holds each relation as a set of *rows of term
ids* — an O(1) row index plus per-block slices — over a shared
:class:`~repro.store.intern.InternTable`.  It is the integer-encoded twin of the fact dictionaries the engine
historically ran on: every hot kernel (hash joins, anti-joins, block
probes, purify sweeps, candidate enumeration) operates on small-int tuples
instead of :class:`~repro.model.symbols.Constant` objects.

Storage invariants
------------------

* one :class:`_RelationColumns` per relation name, with a single fixed
  signature (the engine only ever builds a store over one database, whose
  :class:`~repro.model.schema.DatabaseSchema` already enforces this);
* ``row_index`` is an insertion-ordered dict whose keys are the
  relation's id-rows (its values are unused ``None``); every kernel
  iterates rows in that order, so scans and searches visit rows in
  insertion order, minus deletions;
* ``blocks`` maps the id-tuple of the primary-key positions of each
  non-empty block to its rows, and agrees with ``row_index`` row for row;
  each *live* block also has a dense integer **block id**, interned in the
  store-level block table.  Block ids are append-only: they survive the
  block emptying out (and are also assigned to *probed but absent* blocks
  when a read-set recorder asks), so a read set recorded against a block id
  still matches a later insertion into that block.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..model.atoms import Fact, RelationSchema
from ..model.symbols import Constant
from .intern import InternTable, global_intern_table

#: A row of term ids — one per relation position.
IntRow = Tuple[int, ...]

#: The id-tuple of a row's primary-key positions.
IntKey = Tuple[int, ...]

#: A sub-database of a store: relation name -> the id-rows it keeps.
LiveRows = Dict[str, Set[IntRow]]

#: The object-space identifier of a block (mirrors ``model.database.BlockKey``).
BlockKey = Tuple[str, Tuple[Constant, ...]]

_EMPTY_BLOCK: Tuple[IntRow, ...] = ()


class _RelationColumns:
    """One relation of the store: its id-rows plus the block index."""

    __slots__ = ("schema", "row_index", "blocks")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        #: The id-rows in insertion order (O(1) membership; values unused).
        self.row_index: Dict[IntRow, None] = {}
        #: key-id-tuple -> the rows of that block (the per-block slice).
        self.blocks: Dict[IntKey, List[IntRow]] = {}

    def __len__(self) -> int:
        return len(self.row_index)


class ColumnarFactStore:
    """Facts as integer rows: the execution-layer storage of the engine.

    Parameters
    ----------
    table:
        The intern table term ids are drawn from.  Defaults to the
        process-wide :func:`~repro.store.intern.global_intern_table`, so
        every store in a process shares one id space.
    """

    __slots__ = ("_table", "_relations", "_block_ids", "_block_keys", "_size", "_block_lock")

    def __init__(self, facts: Sequence[Fact] = (), table: Optional[InternTable] = None) -> None:
        self._table = table if table is not None else global_intern_table()
        self._relations: Dict[str, _RelationColumns] = {}
        #: (name, key ids) -> dense block id; append-only (ids outlive blocks).
        self._block_ids: Dict[Tuple[str, IntKey], int] = {}
        self._block_keys: List[Tuple[str, IntKey]] = []
        self._block_lock = threading.Lock()
        self._size = 0
        for fact in facts:
            self.add_fact(fact)

    # -- views -------------------------------------------------------------------

    @property
    def table(self) -> InternTable:
        """The intern table this store encodes through."""
        return self._table

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"ColumnarFactStore({self._size} facts, {len(self._relations)} relations)"

    def relation_columns(self, name: str) -> Optional[_RelationColumns]:
        """The rows and blocks of relation *name* (``None`` when never populated)."""
        return self._relations.get(name)

    def relation_names(self) -> Tuple[str, ...]:
        """Every relation name ever populated, in first-insert order."""
        return tuple(self._relations)

    def relation_rows(self, name: str) -> Sequence[IntRow]:
        """All id-rows of relation *name* (a live view; do not mutate)."""
        rel = self._relations.get(name)
        return rel.row_index.keys() if rel is not None else _EMPTY_BLOCK  # type: ignore[return-value]

    def block_rows(self, name: str, key: IntKey) -> Sequence[IntRow]:
        """The id-rows of one block (empty when the block is absent)."""
        rel = self._relations.get(name)
        if rel is None:
            return _EMPTY_BLOCK
        return rel.blocks.get(key, _EMPTY_BLOCK)

    # -- block ids ---------------------------------------------------------------

    def block_id(self, name: str, key: IntKey) -> int:
        """The dense id of block ``(name, key)``, interning on first use.

        Also used by read-set recorders for *probed but absent* blocks: the
        id must exist so a later insertion into the block can be matched
        against recorded read sets.
        """
        full = (name, key)
        bid = self._block_ids.get(full)
        if bid is not None:
            return bid
        with self._block_lock:
            bid = self._block_ids.get(full)
            if bid is None:
                bid = len(self._block_keys)
                self._block_keys.append(full)
                self._block_ids[full] = bid
            return bid

    def known_block_id(self, name: str, key_constants: Tuple[Constant, ...]) -> Optional[int]:
        """The block id for object-space ``(name, key constants)``, if any.

        ``None`` means no fact of the block was ever stored *and* no
        execution ever probed it — so no recorded read set can depend on it.
        """
        id_of = self._table.id_of
        key: List[int] = []
        for constant in key_constants:
            term_id = id_of(constant)
            if term_id is None:
                return None
            key.append(term_id)
        return self._block_ids.get((name, tuple(key)))

    def decode_block_key(self, block_id: int) -> BlockKey:
        """The object-space :data:`BlockKey` of a block id."""
        name, key = self._block_keys[block_id]
        return (name, self._table.decode(key))

    # -- mutation ----------------------------------------------------------------

    def _relation_for(self, schema: RelationSchema) -> _RelationColumns:
        """The (possibly new) entry of *schema*'s relation, signature-checked."""
        name = schema.name
        rel = self._relations.get(name)
        if rel is None:
            rel = _RelationColumns(schema)
            self._relations[name] = rel
        elif (rel.schema.arity, rel.schema.key_size) != (schema.arity, schema.key_size):
            raise ValueError(
                f"relation {name!r} already stored with signature "
                f"[{rel.schema.arity},{rel.schema.key_size}], cannot store "
                f"[{schema.arity},{schema.key_size}] rows"
            )
        return rel

    def add_fact(self, fact: Fact) -> Optional[IntRow]:
        """Insert a fact; returns its id-row, or ``None`` if already present."""
        intern = self._table.intern
        row = tuple(intern(t) for t in fact.terms)
        return row if self.add_row(fact.relation, row) else None

    def add_row(self, schema: RelationSchema, row: IntRow) -> bool:
        """Insert an already-interned id-row; ``False`` when already present.

        The id-space twin of :meth:`add_fact` — every id of *row* must have
        been produced by this store's intern table.
        """
        rel = self._relation_for(schema)
        if row in rel.row_index:
            return False
        rel.row_index[row] = None
        key = row[: schema.key_size]
        block = rel.blocks.get(key)
        if block is None:
            rel.blocks[key] = [row]
            self.block_id(schema.name, key)  # assign (or reuse) the dense block id
        else:
            block.append(row)
        self._size += 1
        return True

    def known_row(self, fact: Fact) -> Optional[IntRow]:
        """The id-row of *fact* without interning, or ``None``.

        ``None`` means some term was never interned, so no stored row can
        hold the fact.  Read paths encode through here, which keeps them
        from growing the intern table.
        """
        id_of = self._table.id_of
        ids: List[int] = []
        for term in fact.terms:
            term_id = id_of(term)
            if term_id is None:
                return None
            ids.append(term_id)
        return tuple(ids)

    def discard_fact(self, fact: Fact) -> Optional[IntRow]:
        """Remove a fact; returns its id-row, or ``None`` if absent."""
        row = self.known_row(fact)
        if row is None or not self.discard_row(fact.relation.name, row):
            return None
        return row

    def discard_row(self, name: str, row: IntRow) -> bool:
        """Remove an id-row from relation *name*; ``False`` when absent."""
        rel = self._relations.get(name)
        if rel is None or row not in rel.row_index:
            return False
        del rel.row_index[row]
        key = row[: rel.schema.key_size]
        block = rel.blocks.get(key)
        if block is not None:
            block.remove(row)
            if not block:
                del rel.blocks[key]  # the block id stays interned
        self._size -= 1
        return True

    def contains_fact(self, fact: Fact) -> bool:
        """O(1) membership through the row index."""
        rel = self._relations.get(fact.relation.name)
        if rel is None:
            return False
        return self.known_row(fact) in rel.row_index

    # -- decoding ----------------------------------------------------------------

    def decode_row(self, row: IntRow) -> Tuple[Constant, ...]:
        """Decode an id-row back into constants."""
        return self._table.decode(row)

    def decode_facts(self) -> Iterator[Fact]:
        """Decode the whole store back into fact objects."""
        decode = self._table.decode
        for rel in self._relations.values():
            schema = rel.schema
            for row in rel.row_index:
                yield Fact(schema, decode(row))

    # -- diagnostics -------------------------------------------------------------

    def memory_stats(self) -> Dict[str, int]:
        """Approximate per-component byte counts of the store."""
        row_index_bytes = 0
        block_bytes = 0
        for rel in self._relations.values():
            row_index_bytes += sys.getsizeof(rel.row_index)
            block_bytes += sys.getsizeof(rel.blocks)
        return {
            "facts": self._size,
            "relations": len(self._relations),
            "blocks_interned": len(self._block_keys),
            "row_index_bytes": row_index_bytes,
            "block_index_bytes": block_bytes,
        }


def scratch_store(facts: Iterable[Fact]) -> ColumnarFactStore:
    """A private store over *facts*, on a fresh intern table.

    Every decision made without a session store runs on one of these: the
    one-shot solvers, and compiled formulas evaluated against a bare
    database.  The fresh table keeps such throwaway stores from growing the
    process-wide table or a session's table, both append-only; the table
    dies with the store.
    """
    return ColumnarFactStore(facts, table=InternTable())
