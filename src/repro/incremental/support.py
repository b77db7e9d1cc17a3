"""The support index: which candidates does a mutated block dirty?

A :class:`~repro.incremental.view.MaterializedCertainView` decides each
candidate answer once and remembers the :class:`~repro.fo.compile.ReadSet`
of the decision — every block the compiled certain rewriting probed and
every relation it scanned.  The :class:`SupportIndex` inverts those read
sets: given the :class:`~repro.model.database.ChangeSet` of a mutation
batch, it returns exactly the candidates whose verdict may have changed.

Soundness rests on the determinism argument documented on ``ReadSet``: a
decision whose read set is disjoint from the touched blocks/relations
re-executes identically, so its verdict is unchanged and need not be
re-decided.  Compiled plans never read the active domain, so there is no
global support: no candidate is dirtied by every mutation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from ..fo.compile import KeyMask, ReadSet
from ..model.database import ChangeSet
from ..model.symbols import Constant

#: A candidate answer: one constant per free variable (``()`` for Boolean).
Candidate = Tuple[Constant, ...]

#: Entries of the inverted block map: the dense ``int`` block ids of the
#: deciding session's store, the only key space a session's read sets use.
SupportKey = int

#: Maps ``(relation name, key constants)`` to the columnar block id that a
#: read set would have recorded for the block, or ``None`` when no stored
#: fact and no recorded probe ever touched it (so nothing can depend on it).
BlockIdResolver = Callable[[str, Tuple[Constant, ...]], Optional[int]]

_EMPTY: Set[Candidate] = set()


class SupportIndex:
    """Inverted dependency index from blocks/relations to candidate answers.

    Maintains, for every tracked candidate, the read set of its most recent
    decision, plus the inverted maps used by :meth:`dirty_for`.  The two
    directions are kept consistent by construction; :meth:`check_invariants`
    verifies this exhaustively (used by the test suite).

    Read sets captured by a session name their blocks by dense integer block
    ids (``ReadSet.block_ids``); the *block_id_resolver* (the
    :meth:`~repro.store.columnar.ColumnarFactStore.known_block_id` of the
    deciding session's store) translates the touched blocks of a mutation
    batch into that id space.
    """

    def __init__(self, block_id_resolver: BlockIdResolver) -> None:
        self._reads: Dict[Candidate, ReadSet] = {}
        self._by_block: Dict[SupportKey, Set[Candidate]] = {}
        self._by_relation: Dict[str, Set[Candidate]] = {}
        #: relation name -> key mask -> candidates whose (static) support
        #: includes the mask; matched per touched fact in :meth:`dirty_for`.
        self._by_key_mask: Dict[str, Dict[KeyMask, Set[Candidate]]] = {}
        self._block_id_resolver = block_id_resolver

    # -- maintenance -------------------------------------------------------------

    def set(self, candidate: Candidate, read_set: ReadSet) -> None:
        """Record (or replace) the read set supporting *candidate*."""
        self.remove(candidate)
        self._reads[candidate] = read_set
        for block_id in read_set.block_ids:
            self._by_block.setdefault(block_id, set()).add(candidate)
        for name in read_set.relations:
            self._by_relation.setdefault(name, set()).add(candidate)
        for name, mask in read_set.key_masks:
            self._by_key_mask.setdefault(name, {}).setdefault(mask, set()).add(
                candidate
            )

    def remove(self, candidate: Candidate) -> None:
        """Forget *candidate* (no-op if untracked)."""
        read_set = self._reads.pop(candidate, None)
        if read_set is None:
            return
        for block_id in read_set.block_ids:
            members = self._by_block.get(block_id)
            if members is not None:
                members.discard(candidate)
                if not members:
                    del self._by_block[block_id]
        for name in read_set.relations:
            members = self._by_relation.get(name)
            if members is not None:
                members.discard(candidate)
                if not members:
                    del self._by_relation[name]
        for name, mask in read_set.key_masks:
            masks = self._by_key_mask.get(name)
            if masks is None:
                continue
            members = masks.get(mask)
            if members is not None:
                members.discard(candidate)
                if not members:
                    del masks[mask]
                    if not masks:
                        del self._by_key_mask[name]

    def clear(self) -> None:
        """Forget every candidate."""
        self._reads.clear()
        self._by_block.clear()
        self._by_relation.clear()
        self._by_key_mask.clear()

    # -- queries -----------------------------------------------------------------

    def read_set(self, candidate: Candidate) -> Optional[ReadSet]:
        """The recorded read set of *candidate* (``None`` if untracked)."""
        return self._reads.get(candidate)

    def candidates(self) -> Iterable[Candidate]:
        """Every tracked candidate."""
        return self._reads.keys()

    def candidates_for_block(self, block_id: SupportKey) -> Set[Candidate]:
        """Candidates whose decision probed block *block_id*."""
        return set(self._by_block.get(block_id, _EMPTY))

    def dirty_for(self, changes: ChangeSet) -> Set[Candidate]:
        """The candidates whose verdict may be changed by *changes*.

        The union of the candidates that probed a touched block (the
        resolver maps each touched block to its block id), the candidates
        holding a key mask that some touched fact's key constants match, and
        the candidates that scanned a touched relation.
        """
        dirty: Set[Candidate] = set()
        resolver = self._block_id_resolver
        for block in changes.touched_blocks():
            block_id = resolver(block[0], block[1])
            if block_id is not None:
                dirty |= self._by_block.get(block_id, _EMPTY)
            masks = self._by_key_mask.get(block[0])
            if masks:
                key = block[1]
                for mask, members in masks.items():
                    if len(mask) == len(key) and all(
                        m is None or m == k for m, k in zip(mask, key)
                    ):
                        dirty |= members
        for name in changes.touched_relations():
            dirty |= self._by_relation.get(name, _EMPTY)
        return dirty

    def __len__(self) -> int:
        return len(self._reads)

    def __contains__(self, candidate: object) -> bool:
        return candidate in self._reads

    def __repr__(self) -> str:
        masks = sum(len(m) for m in self._by_key_mask.values())
        return (
            f"SupportIndex({len(self._reads)} candidates, "
            f"{len(self._by_block)} blocks, {masks} masks, "
            f"{len(self._by_relation)} relations)"
        )

    # -- invariants (exercised by the test suite) --------------------------------

    def check_invariants(self) -> None:
        """Verify the forward and inverted maps agree; raise on corruption."""
        for candidate, read_set in self._reads.items():
            for block_id in read_set.block_ids:
                assert candidate in self._by_block.get(block_id, _EMPTY), (
                    f"{candidate} missing from block-id entry {block_id}"
                )
            for name in read_set.relations:
                assert candidate in self._by_relation.get(name, _EMPTY), (
                    f"{candidate} missing from relation entry {name}"
                )
            for name, mask in read_set.key_masks:
                assert candidate in self._by_key_mask.get(name, {}).get(mask, _EMPTY), (
                    f"{candidate} missing from key-mask entry {(name, mask)}"
                )
        for block_id, members in self._by_block.items():
            assert members, f"empty block entry {block_id} not pruned"
            for candidate in members:
                read_set = self._reads.get(candidate)
                assert read_set is not None and block_id in read_set.block_ids, (
                    f"stale block entry {block_id} -> {candidate}"
                )
        for name, members in self._by_relation.items():
            assert members, f"empty relation entry {name} not pruned"
            for candidate in members:
                read_set = self._reads.get(candidate)
                assert read_set is not None and name in read_set.relations, (
                    f"stale relation entry {name} -> {candidate}"
                )
        for name, masks in self._by_key_mask.items():
            assert masks, f"empty key-mask relation entry {name} not pruned"
            for mask, members in masks.items():
                assert members, f"empty key-mask entry {(name, mask)} not pruned"
                for candidate in members:
                    read_set = self._reads.get(candidate)
                    assert read_set is not None and (name, mask) in read_set.key_masks, (
                        f"stale key-mask entry {(name, mask)} -> {candidate}"
                    )
