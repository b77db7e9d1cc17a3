"""Synthetic uncertain-database generators.

The paper has no data sets of its own (it is a theory paper), so the
experiments run on synthetic databases.  The generators below are
parameterised by the quantities that drive the behaviour of CERTAINTY
solvers:

* the *active domain size*, which controls join selectivity;
* the number of *witness valuations* planted (random valuations of the
  query variables whose atom images are inserted), which controls how much
  evidence for the query exists;
* the number of *noise facts* per relation, which controls how much
  irrelevant data the purification step has to strip;
* the *conflict rate*, which controls block sizes — the actual source of
  uncertainty.

All generators take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..model.atoms import Fact
from ..model.database import UncertainDatabase
from ..model.symbols import Constant
from ..model.valuation import Valuation
from ..query.conjunctive import ConjunctiveQuery
from .streaming import MutationOp


def _domain(size: int, prefix: str = "c") -> List[str]:
    return [f"{prefix}{i}" for i in range(size)]


def random_valuation(
    query: ConjunctiveQuery, domain: Sequence[str], rng: random.Random
) -> Valuation:
    """A uniformly random valuation of the query variables over *domain*."""
    # Sorted: the RNG draws must not follow hash order, or one seed would
    # yield different valuations under different PYTHONHASHSEEDs.
    return Valuation(
        {v: Constant(rng.choice(domain)) for v in sorted(query.variables, key=str)}
    )


def synthetic_instance(
    query: ConjunctiveQuery,
    seed: int = 0,
    domain_size: int = 6,
    witnesses: int = 4,
    noise_per_relation: int = 4,
    conflict_rate: float = 0.4,
) -> UncertainDatabase:
    """A random uncertain database tailored to *query*.

    The database mixes planted witnesses (full images of random valuations),
    uniform noise facts, and extra key-conflicting facts controlled by
    *conflict_rate*.
    """
    rng = random.Random(seed)
    domain = _domain(domain_size)
    db = UncertainDatabase()

    for _ in range(witnesses):
        valuation = random_valuation(query, domain, rng)
        for atom in query.atoms:
            db.add(valuation.ground(atom))

    for atom in query.atoms:
        relation = atom.relation
        for _ in range(noise_per_relation):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))

    # Add conflicting facts: same key, fresh non-key values.  Sorted, as in
    # random_valuation, so the draws do not follow hash order.
    for fact in sorted(db.facts, key=str):
        relation = fact.relation
        if relation.is_all_key or rng.random() >= conflict_rate:
            continue
        key_values = [c.value for c in fact.key_terms]
        rest = [rng.choice(domain) for _ in range(relation.arity - relation.key_size)]
        db.add(relation.fact(*(key_values + rest)))
    return db


def uniform_random_instance(
    query: ConjunctiveQuery,
    seed: int = 0,
    domain_size: int = 4,
    facts_per_relation: int = 6,
) -> UncertainDatabase:
    """Fully random facts per relation, with no planted structure."""
    rng = random.Random(seed)
    domain = _domain(domain_size)
    db = UncertainDatabase()
    for atom in query.atoms:
        relation = atom.relation
        for _ in range(facts_per_relation):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return db


def planted_certain_instance(
    query: ConjunctiveQuery,
    seed: int = 0,
    domain_size: int = 6,
    noise_per_relation: int = 5,
    conflict_rate: float = 0.4,
) -> UncertainDatabase:
    """A database guaranteed to be in ``CERTAINTY(q)``.

    A reserved witness (over constants outside the noise domain) is planted
    with singleton blocks; since every repair contains all singleton blocks,
    the query is certain regardless of the surrounding noise.
    """
    rng = random.Random(seed)
    db = synthetic_instance(
        query,
        seed=seed + 1,
        domain_size=domain_size,
        witnesses=2,
        noise_per_relation=noise_per_relation,
        conflict_rate=conflict_rate,
    )
    reserved = Valuation({v: Constant(f"planted_{v.name}") for v in query.variables})
    for atom in query.atoms:
        db.add(reserved.ground(atom))
    return db


def _zipf_weights(n: int, skew: float) -> List[float]:
    """Unnormalised Zipf weights ``1/rank^skew`` for ranks ``1..n``."""
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


def zipfian_instance(
    query: ConjunctiveQuery,
    seed: int = 0,
    domain_size: int = 32,
    facts_per_relation: int = 64,
    skew: float = 1.1,
    conflict_rate: float = 0.4,
) -> UncertainDatabase:
    """A random instance whose *block keys* follow a Zipfian distribution.

    Key positions draw from a rank-weighted domain (weight ``1/rank^skew``),
    so a handful of hot keys own most blocks while the tail is sparse — the
    adversarial shape for anything that partitions by block key: hash
    shards inherit the imbalance, and hot blocks grow deep with conflicts.
    Non-key positions stay uniform (skew there would only shrink the value
    domain, not concentrate blocks).
    """
    rng = random.Random(seed)
    domain = _domain(domain_size)
    weights = _zipf_weights(domain_size, skew)
    db = UncertainDatabase()
    for atom in query.atoms:
        relation = atom.relation
        for _ in range(facts_per_relation):
            key = rng.choices(domain, weights, k=relation.key_size)
            rest = [
                rng.choice(domain)
                for _ in range(relation.arity - relation.key_size)
            ]
            db.add(relation.fact(*(key + rest)))
            if not relation.is_all_key and rng.random() < conflict_rate:
                conflicting = [
                    rng.choice(domain)
                    for _ in range(relation.arity - relation.key_size)
                ]
                db.add(relation.fact(*(key + conflicting)))
    return db


def bursty_mutation_stream(
    query: ConjunctiveQuery,
    db: UncertainDatabase,
    steps: int,
    seed: int = 0,
    domain_size: Optional[int] = None,
    skew: float = 1.1,
    p_burst: float = 0.25,
    burst_range: Tuple[int, int] = (8, 24),
    quiet_range: Tuple[int, int] = (1, 2),
    p_discard: float = 0.3,
) -> Iterator[List[MutationOp]]:
    """Yield *steps* batches alternating quiet trickle and hot-key bursts.

    Complements :func:`~repro.workloads.streaming.mutation_stream` (same
    **live contract**: apply each yielded batch before pulling the next)
    with the write pattern that stresses delta shipping: most steps are a
    small uniform trickle, but with probability *p_burst* a step hammers a
    single Zipf-hot block key — a burst of key-conflicting insertions and
    discards concentrated on one block, of size drawn from *burst_range*.
    Under block-hash sharding an entire burst lands on one shard, so the
    other shards' deltas stay near-empty while one grows deep.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    size = domain_size if domain_size is not None else max(8, len(db) // 4)
    domain = [f"c{i}" for i in range(size)]
    weights = _zipf_weights(size, skew)

    def uniform_fact() -> "Fact":
        relation = rng.choice(relations)
        return relation.fact(*[rng.choice(domain) for _ in range(relation.arity)])

    def hot_block_fact(relation, hot_key: List[str]) -> "Fact":
        rest = [rng.choice(domain) for _ in range(relation.arity - relation.key_size)]
        return relation.fact(*(hot_key + rest))

    for _ in range(steps):
        batch: List[MutationOp] = []
        if rng.random() < p_burst:
            relation = rng.choice(relations)
            hot_key = rng.choices(domain, weights, k=relation.key_size)
            block_key = (relation.name, tuple(Constant(v) for v in hot_key))
            # The database does not change while a batch is staged.
            victims = sorted(db.block(block_key), key=str)
            for _ in range(rng.randint(*burst_range)):
                if victims and rng.random() < p_discard:
                    batch.append(("discard", rng.choice(victims)))
                else:
                    batch.append(("add", hot_block_fact(relation, hot_key)))
            # The burst's ops are staged against the pre-batch database, so
            # a staged discard may name a fact a staged add re-creates —
            # db.batch() nets that out, which is exactly the point.
        else:
            # The database does not change while a batch is staged, so its
            # facts are sorted at most once per batch.
            facts: Optional[List[Fact]] = None
            for _ in range(rng.randint(*quiet_range)):
                if db and rng.random() < p_discard:
                    facts = facts if facts is not None else sorted(db, key=str)
                    batch.append(("discard", rng.choice(facts)))
                else:
                    batch.append(("add", uniform_fact()))
        yield batch


def scaling_instances(
    query: ConjunctiveQuery,
    sizes: Sequence[int],
    seed: int = 0,
    conflict_rate: float = 0.4,
) -> List[Tuple[int, UncertainDatabase]]:
    """A family of instances of growing size (for the scaling benchmarks).

    Each entry plants ``size`` witnesses over a domain of ``2 * size``
    constants and ``size`` noise facts per relation, so the number of facts
    grows linearly with ``size``.
    """
    out = []
    for i, size in enumerate(sizes):
        db = synthetic_instance(
            query,
            seed=seed + i,
            domain_size=max(2, 2 * size),
            witnesses=size,
            noise_per_relation=size,
            conflict_rate=conflict_rate,
        )
        out.append((size, db))
    return out
