"""Streaming mutation workloads for the incremental view subsystem.

A *mutation stream* is a deterministic sequence of batches of database
operations tailored to a query: insertions (fresh facts, witness-completing
facts, and key-conflicting facts that grow blocks), discards of existing
facts, and whole-block removals.  It is the workload shape the
:mod:`repro.incremental` subsystem is built for — sustained mutation-heavy
traffic against a database serving certain-answer views — and drives both
the differential tests and the ``incremental_views`` benchmark suite.

The generator is *live*: each step inspects the database as it currently
is, so the caller applies each yielded batch before requesting the next
(discards always name facts that exist, block removals name blocks that
exist).  All randomness flows from the explicit seed.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple, Union

from ..model.atoms import Fact
from ..model.database import BlockKey, UncertainDatabase
from ..query.conjunctive import ConjunctiveQuery

#: One mutation: ``("add", fact)``, ``("discard", fact)``, or
#: ``("remove_block", block_key)``.
MutationOp = Tuple[str, Union[Fact, BlockKey]]


def apply_mutation(db: UncertainDatabase, op: MutationOp) -> None:
    """Apply one mutation op to *db*."""
    kind, payload = op
    if kind == "add":
        db.add(payload)  # type: ignore[arg-type]
    elif kind == "discard":
        db.discard(payload)  # type: ignore[arg-type]
    elif kind == "remove_block":
        db.remove_block(payload)  # type: ignore[arg-type]
    else:
        raise ValueError(f"unknown mutation op {kind!r}")


def apply_batch(db: UncertainDatabase, batch: List[MutationOp]) -> None:
    """Apply a batch of ops inside one ``db.batch()`` block.

    Observers receive a single consolidated notification, so an incremental
    view refreshes once for the whole batch.
    """
    with db.batch():
        for op in batch:
            apply_mutation(db, op)


def mutation_stream(
    query: ConjunctiveQuery,
    db: UncertainDatabase,
    steps: int,
    seed: int = 0,
    domain_size: Optional[int] = None,
    p_add: float = 0.55,
    p_discard: float = 0.30,
    p_conflict: float = 0.5,
    batch_range: Tuple[int, int] = (1, 1),
) -> Iterator[List[MutationOp]]:
    """Yield *steps* batches of mutations tailored to *query* over *db*.

    Parameters
    ----------
    query:
        Insertions target this query's relations (other relations would
        never change an answer).
    db:
        The database the stream runs against.  **Live contract**: apply
        each yielded batch (e.g. via :func:`apply_batch`) before pulling
        the next — later steps pick discard victims and block targets from
        the then-current contents.
    steps:
        Number of batches to yield.
    seed:
        Seed of the private RNG; streams are fully deterministic.
    domain_size:
        Constant pool for fresh facts (default: scales with ``len(db)``).
    p_add / p_discard:
        Probabilities of an insertion / a discard per op; the remainder is
        a whole-block removal.  Empty databases force insertions.
    p_conflict:
        Fraction of insertions that reuse an existing block's key (growing
        a block — the actual source of uncertainty) rather than drawing a
        fresh random fact.
    batch_range:
        Inclusive ``(lo, hi)`` bounds on ops per batch.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    size = domain_size if domain_size is not None else max(8, len(db) // 4)
    domain = [f"c{i}" for i in range(size)]

    def random_fact() -> Fact:
        relation = rng.choice(relations)
        return relation.fact(*[rng.choice(domain) for _ in range(relation.arity)])

    def conflicting_fact(keys: List[BlockKey]) -> Optional[Fact]:
        """A fact reusing an existing block's key with fresh non-key values."""
        blocks = [key for relation in relations for key in keys if key[0] == relation.name]
        if not blocks:
            return None
        name, key_values = rng.choice(blocks)
        relation = next(r for r in relations if r.name == name)
        rest = [rng.choice(domain) for _ in range(relation.arity - relation.key_size)]
        return relation.fact(*([c.value for c in key_values] + rest))

    for _ in range(steps):
        batch: List[MutationOp] = []
        # The database does not change while a batch is staged, so its
        # block keys are grouped, and its facts sorted, at most once per batch.
        keys: Optional[List[BlockKey]] = None
        facts: Optional[List[Fact]] = None
        for _ in range(rng.randint(*batch_range)):
            roll = rng.random()
            if roll < p_add or not db:
                fact = None
                if rng.random() < p_conflict:
                    keys = keys if keys is not None else _sorted_block_keys(db)
                    fact = conflicting_fact(keys)
                batch.append(("add", fact if fact is not None else random_fact()))
            elif roll < p_add + p_discard:
                facts = facts if facts is not None else sorted(db, key=str)
                if facts:
                    batch.append(("discard", rng.choice(facts)))
            else:
                keys = keys if keys is not None else _sorted_block_keys(db)
                if keys:
                    batch.append(("remove_block", rng.choice(keys)))
        yield batch


def _sorted_block_keys(db: UncertainDatabase) -> List[BlockKey]:
    """The block keys of *db*, by relation name, then by key constants' text."""
    return sorted(db.block_keys(), key=lambda k: (k[0],) + tuple(str(c) for c in k[1]))
