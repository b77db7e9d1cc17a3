"""Exponential but always-correct CERTAINTY solvers.

``CERTAINTY(q)`` is in coNP for first-order ``q``: a "no" certificate is a
repair falsifying the query.  Two solvers live here:

* :func:`certain_by_enumeration` — the definition itself: enumerate every
  repair and check that each one satisfies ``q``.  It is the oracle the
  test suite checks every other solver against, on small instances;
* :func:`certain_brute_force` — the pruned search for a falsifying repair,
  running on the id-rows of a columnar store.  It is the engine's solver
  for queries classified coNP-complete or open.

Two optimisations keep the pruned search usable on small-to-medium
instances without affecting correctness:

* witnesses (valuation images ``θ(q) ⊆ db``) are computed once; a repair
  satisfies ``q`` iff it fully contains one of them;
* the search branches only over blocks that intersect some witness, and
  prunes a branch as soon as every witness is already broken (a falsifying
  repair exists) or some witness is already fully selected (this branch can
  never falsify).

Witness bookkeeping is *incremental*: instead of rescanning every witness at
every search node, each witness carries two counters — the number of its
blocks still undecided and the number of decided blocks that rejected one of
its rows — updated in O(witnesses-per-block) when a block choice is made or
undone, alongside global broken/complete tallies that make the pruning
checks O(1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..model.atoms import Fact
from ..model.database import BlockKey, UncertainDatabase
from ..model.repairs import enumerate_repairs
from ..query.conjunctive import ConjunctiveQuery
from ..query.evaluation import satisfies
from ..store.columnar import ColumnarFactStore, IntKey, IntRow, scratch_store
from ..store.kernels import witness_row_sets

#: A block of the searched store: relation name plus its key ids.
_BlockId = Tuple[str, IntKey]


class BruteForceResult:
    """Outcome of a brute-force certainty check."""

    def __init__(self, certain: bool, falsifying_repair: Optional[FrozenSet[Fact]]) -> None:
        self.certain = certain
        self.falsifying_repair = falsifying_repair

    def __bool__(self) -> bool:
        return self.certain

    def __repr__(self) -> str:
        return f"BruteForceResult(certain={self.certain})"


def certain_by_enumeration(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide certainty by enumerating every repair (no pruning).

    Exponential in the number of conflicting blocks: the most literal
    transcription of the definition, and the oracle of the test suite on
    tiny inputs.  It reads fact objects only, sharing no code with the
    columnar solvers it checks.
    """
    return all(satisfies(repair, query) for repair in enumerate_repairs(db))


def certain_brute_force(db: UncertainDatabase, query: ConjunctiveQuery) -> bool:
    """Decide ``db ∈ CERTAINTY(q)`` with the pruned witness-based search.

    Searches one scratch store through :func:`certain_brute_force_rows`.
    """
    return certain_brute_force_rows(scratch_store(db), query)


def certain_brute_force_rows(store: ColumnarFactStore, query: ConjunctiveQuery) -> bool:
    """:func:`certain_brute_force` on every row of *store*.

    The search runs on id-rows alone; unlike
    :func:`brute_force_with_certificate`, a "no" answer decodes no facts.
    """
    return query.is_empty or _falsifying_choice(store, query) is None


def brute_force_with_certificate(
    db: UncertainDatabase, query: ConjunctiveQuery
) -> BruteForceResult:
    """Decide certainty and, when the answer is "no", exhibit a falsifying repair.

    The search is :func:`certain_brute_force`'s; on a "no" answer its
    choice of rows is decoded back to fact objects and completed with the
    least fact (by text) of every block it left open.
    """
    if query.is_empty:
        return BruteForceResult(True, None)
    store = scratch_store(db)
    partial = _falsifying_choice(store, query)
    if partial is None:
        return BruteForceResult(True, None)
    repair: Set[Fact] = set()
    decoded_keys: Set[BlockKey] = set()
    for (name, key), row in partial.items():
        schema = store.relation_columns(name).schema  # type: ignore[union-attr]
        repair.add(Fact(schema, store.decode_row(row)))
        decoded_keys.add((name, store.table.decode(key)))
    for block in db.blocks():
        block_key = next(iter(block)).block_key
        if block_key not in decoded_keys:
            repair.add(sorted(block, key=str)[0])
    return BruteForceResult(False, frozenset(repair))


def _falsifying_choice(
    store: ColumnarFactStore, query: ConjunctiveQuery
) -> Optional[Dict[_BlockId, IntRow]]:
    """A choice of rows of *store* that breaks every witness of *query*.

    The witness computation and the entire repair search run on the
    store's id-rows: witnesses are frozensets of ``(name, id-row)`` pairs,
    blocks are ``(name, key ids)`` and per-block choices iterate the
    store's block slices.  The choice is ``None`` when every repair
    satisfies *query*, and empty when no witness exists (then any repair
    falsifies it).
    """
    witness_sets = witness_row_sets(query, store)
    if not witness_sets:
        return {}

    key_sizes: Dict[str, int] = {}

    def block_of(name: str, row: IntRow) -> _BlockId:
        key_size = key_sizes.get(name)
        if key_size is None:
            key_size = store.relation_columns(name).schema.key_size  # type: ignore[union-attr]
            key_sizes[name] = key_size
        return (name, row[:key_size])

    # Blocks that contain at least one row used by some witness.
    relevant_blocks: List[_BlockId] = []
    seen_blocks: Set[_BlockId] = set()
    for witness in witness_sets:
        for name, row in witness:
            block = block_of(name, row)
            if block not in seen_blocks:
                seen_blocks.add(block)
                relevant_blocks.append(block)
    relevant_blocks.sort()

    choice: Dict[_BlockId, IntRow] = {}

    # Per-witness counters, updated incrementally on block choice/unchoice:
    # ``undecided[w]`` blocks of witness w not yet decided, ``broken[w]``
    # decided blocks that rejected one of w's rows.  ``block_witnesses``
    # maps each block to the witnesses it intersects (with the rows of that
    # witness inside the block — a self-join witness can hold several).
    block_witnesses: Dict[_BlockId, List[Tuple[int, List[IntRow]]]] = {}
    undecided: List[int] = []
    broken: List[int] = []
    for w_index, witness in enumerate(witness_sets):
        per_block: Dict[_BlockId, List[IntRow]] = {}
        for name, row in witness:
            per_block.setdefault(block_of(name, row), []).append(row)
        undecided.append(len(per_block))
        broken.append(0)
        for key, rows in per_block.items():
            block_witnesses.setdefault(key, []).append((w_index, rows))

    total = len(witness_sets)
    num_broken = 0  # witnesses with broken[w] > 0
    num_complete = 0  # witnesses with broken[w] == 0 and undecided[w] == 0

    def choose(block: _BlockId, chosen: IntRow) -> None:
        nonlocal num_broken, num_complete
        for w_index, rows in block_witnesses.get(block, ()):
            undecided[w_index] -= 1
            if any(row != chosen for row in rows):
                broken[w_index] += 1
                if broken[w_index] == 1:
                    num_broken += 1
            elif undecided[w_index] == 0 and broken[w_index] == 0:
                num_complete += 1

    def unchoose(block: _BlockId, chosen: IntRow) -> None:
        nonlocal num_broken, num_complete
        for w_index, rows in block_witnesses.get(block, ()):
            if any(row != chosen for row in rows):
                broken[w_index] -= 1
                if broken[w_index] == 0:
                    num_broken -= 1
            elif undecided[w_index] == 0 and broken[w_index] == 0:
                num_complete -= 1
            undecided[w_index] += 1

    def search(position: int) -> Optional[Dict[_BlockId, IntRow]]:
        if num_complete:
            return None  # some witness fully selected: this branch satisfies q
        if num_broken == total:
            return dict(choice)  # every witness destroyed: falsifying repair found
        if position == len(relevant_blocks):
            return dict(choice)
        block = relevant_blocks[position]
        for row in sorted(store.block_rows(*block)):
            choice[block] = row
            choose(block, row)
            found = search(position + 1)
            if found is not None:
                return found
            unchoose(block, row)
            del choice[block]
        return None

    return search(0)
