"""Tests for the delta-shipped shard runtime.

Two contracts under test.  *Exact equivalence*: for every complexity band
and every shard count, ``ShardedCertaintySession`` returns what the
sequential session returns — before, during, and after mutation streams;
ownership validation must catch every cross-shard decision.  *Delta shipping*: mutations between
dispatches reach the long-lived workers as O(delta) payloads, never as
pool rebuilds or full snapshots.
"""

import random

import pytest

from repro import (
    ShardedCertaintySession,
    UncertainDatabase,
    certain_answers,
    certain_answers_sharded,
    parse_facts,
    parse_query,
    shard_of_key,
)
from repro.engine.shards import DeadlineExceeded, _read_set_is_local
from repro.fo.compile import ReadSet
from repro.model.symbols import Constant
from repro.query import figure2_q1, figure4_query
from repro.query.families import path_query
from repro.workloads import (
    apply_batch,
    bursty_mutation_stream,
    mutation_stream,
    synthetic_instance,
    zipfian_instance,
)
from tests.helpers import open_variant

SHARD_COUNTS = (1, 2, 4)


def band_workloads():
    """(query, allow_exponential, instance kwargs) per complexity band."""
    selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
    return [
        pytest.param(
            open_variant(path_query(3), "x1"),
            False,
            dict(domain_size=6, witnesses=12, noise_per_relation=8, conflict_rate=0.5),
            id="fo-band",
        ),
        pytest.param(
            open_variant(figure4_query(), "x"),
            False,
            dict(domain_size=4, witnesses=6, noise_per_relation=3, conflict_rate=0.4),
            id="ptime-not-fo-band",
        ),
        pytest.param(
            open_variant(figure2_q1(), "z"),
            True,
            dict(domain_size=3, witnesses=4, noise_per_relation=2, conflict_rate=0.4),
            id="conp-band-allow-exponential",
        ),
        pytest.param(
            selfjoin,
            True,
            dict(domain_size=4, witnesses=6, noise_per_relation=4, conflict_rate=0.5),
            id="self-join-per-grounding",
        ),
    ]


def distinct_shard_values(n_shards, count=2):
    """Constant values provably owned by *count* different shards."""
    by_shard = {}
    for i in range(1000):
        value = f"v{i}"
        shard = shard_of_key((Constant(value),), n_shards)
        by_shard.setdefault(shard, value)
        if len(by_shard) >= count:
            return [by_shard[s] for s in sorted(by_shard)[:count]]
    raise AssertionError("hash unexpectedly constant")  # pragma: no cover


class TestShardOfKey:
    def test_deterministic_and_in_range(self):
        keys = [(Constant(f"v{i}"), Constant(i)) for i in range(50)]
        for n in SHARD_COUNTS:
            owners = [shard_of_key(k, n) for k in keys]
            assert owners == [shard_of_key(k, n) for k in keys]
            assert all(0 <= s < n for s in owners)
        assert len({shard_of_key(k, 4) for k in keys}) > 1

    def test_single_shard_owns_everything(self):
        assert shard_of_key((Constant("x"),), 1) == 0
        assert shard_of_key((), 1) == 0

    def test_value_based_not_object_based(self):
        # Two distinct Constant objects wrapping equal values hash alike
        # (the hash reads values, never salted object hashes) ...
        assert shard_of_key((Constant("a"),), 4) == shard_of_key((Constant("a"),), 4)
        # ... while a str and an int of equal repr length still differ.
        assert repr("7") != repr(7)
        spread = {shard_of_key((Constant(f"k{i}"),), 4) for i in range(64)}
        assert len(spread) == 4


class TestReadSetValidation:
    def test_single_shard_is_always_local(self):
        rs = ReadSet(relations=frozenset({"R"}))
        assert _read_set_is_local(rs, 0, 1)

    def test_global_reads_are_never_local(self):
        assert not _read_set_is_local(ReadSet(relations=frozenset({"R"})), 0, 2)

    def test_blocks_must_hash_home(self):
        a, b = distinct_shard_values(2)
        key_a, key_b = (Constant(a),), (Constant(b),)
        home = shard_of_key(key_a, 2)
        rs = ReadSet(blocks=frozenset({("R", key_a)}))
        assert _read_set_is_local(rs, home, 2)
        assert not _read_set_is_local(rs, 1 - home, 2)
        both = ReadSet(blocks=frozenset({("R", key_a), ("S", key_b)}))
        assert not _read_set_is_local(both, home, 2)

    def test_wildcard_masks_are_never_local(self):
        key = (Constant("a"),)
        home = shard_of_key(key, 2)
        pinned = ReadSet(key_masks=frozenset({("R", key)}))
        assert _read_set_is_local(pinned, home, 2)
        wild = ReadSet(key_masks=frozenset({("R", (None,))}))
        assert not _read_set_is_local(wild, home, 2)


class TestShardedEqualsSequential:
    @pytest.mark.parametrize("query,allow,kwargs", band_workloads())
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_randomized_workloads(self, query, allow, kwargs, n_shards):
        for seed in range(2):
            db = synthetic_instance(query, seed=seed, **kwargs)
            expected = certain_answers(db, query, allow_exponential=allow)
            with ShardedCertaintySession(
                db,
                n_shards=n_shards,
                min_shard_candidates=1,
                allow_exponential=allow,
            ) as session:
                assert session.certain_answers(query) == expected

    @pytest.mark.parametrize("query,allow,kwargs", band_workloads())
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_under_mutation_streams(self, query, allow, kwargs, n_shards):
        db = synthetic_instance(query, seed=5, **kwargs)
        with ShardedCertaintySession(
            db,
            n_shards=n_shards,
            min_shard_candidates=1,
            allow_exponential=allow,
        ) as session:
            assert session.certain_answers(query) == certain_answers(
                db, query, allow_exponential=allow
            )
            stream = mutation_stream(
                query, db, steps=6, seed=17, batch_range=(1, 4)
            )
            for batch in stream:
                apply_batch(db, batch)
                assert session.certain_answers(query) == certain_answers(
                    db, query, allow_exponential=allow
                ), f"diverged at {n_shards} shards after {batch}"
            # The long-lived pool never rebuilt for any of those mutations.
            assert session.stats.bootstraps == 1
            assert session.stats.worker_restarts == 0

    def test_one_shot_wrapper(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=11, domain_size=6, witnesses=12)
        assert certain_answers_sharded(db, query, n_shards=2) == certain_answers(
            db, query
        )

    def test_shard_partition_is_exact(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=3, domain_size=6, witnesses=12)
        with ShardedCertaintySession(db, n_shards=4, min_shard_candidates=1) as s:
            s.certain_answers(query)
            counts = s.shard_fact_counts()
            assert sum(counts) == len(db)
            for fact in db.facts:
                assert counts[s.owner_of(fact.key_terms)] > 0


class TestShardRoutingEdgeCases:
    def _setup(self, n_shards):
        query = parse_query("R(x | y), S(x | z)", free=["x"])
        schema = query.schema()
        rng = random.Random(23)
        db = UncertainDatabase(schema=schema)
        values = [f"v{i}" for i in range(12)]
        for _ in range(40):
            db.add(schema["R"].fact(rng.choice(values), rng.choice(values)))
            db.add(schema["S"].fact(rng.choice(values), rng.choice(values)))
        session = ShardedCertaintySession(
            db, n_shards=n_shards, min_shard_candidates=1
        )
        return query, schema, db, session

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_block_emptied_then_refilled(self, n_shards):
        query, schema, db, session = self._setup(n_shards)
        with session:
            session.certain_answers(query)
            victim = sorted(
                db.block_keys(), key=lambda k: (k[0],) + tuple(str(c) for c in k[1])
            )[0]
            refill = sorted(db.block(victim), key=str)
            db.remove_block(victim)
            assert session.certain_answers(query) == certain_answers(db, query)
            for fact in refill:
                db.add(fact)
            assert session.certain_answers(query) == certain_answers(db, query)
            assert sum(session.shard_fact_counts()) == len(db)

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_constants_interned_after_pool_start(self, n_shards):
        query, schema, db, session = self._setup(n_shards)
        with session:
            session.certain_answers(query)  # pool is up, wire table frozen
            # Certain witness over constants the wire table has never seen:
            # singleton blocks survive every repair.
            db.add(schema["R"].fact("fresh_x", "fresh_y"))
            db.add(schema["S"].fact("fresh_x", "fresh_z"))
            answers = session.certain_answers(query)
            assert answers == certain_answers(db, query)
            assert (Constant("fresh_x"),) in answers
            assert session.stats.bootstraps == 1

    def test_cross_shard_candidates_fall_back(self):
        # A join whose atoms key on *different* constants: pick a pair of
        # values provably owned by different shards, so the candidate's
        # support cannot be shard-local and validation must reroute it.
        emp, dept = distinct_shard_values(2)
        query = parse_query("Emp(name | dept), Dept(dept | city)")
        schema = query.schema()
        db = UncertainDatabase(
            parse_facts(
                [
                    f"Emp('{emp}' | '{dept}')",
                    f"Dept('{dept}' | 'Mons')",
                ],
                schema=schema,
            )
        )
        open_query = parse_query(
            "Emp(name | dept), Dept(dept | 'Mons')", free=["name"], schema=schema
        )
        with ShardedCertaintySession(db, n_shards=2, min_shard_candidates=1) as s:
            answers = s.certain_answers(open_query)
            assert answers == certain_answers(db, open_query)
            assert s.stats.cross_shard_fallbacks >= 1
            # Fallbacks learn: the candidate routes to the parent now, so a
            # mutation that dirties no routing re-asks without falling back.
            before = s.stats.cross_shard_fallbacks
            db.add(schema["Dept"].fact(dept, "Paris"))  # no new candidates
            assert s.certain_answers(open_query) == certain_answers(db, open_query)
            routed = s._routing[open_query]
            assert routed[(Constant(emp),)] == -1
            assert s.stats.cross_shard_fallbacks == before

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_same_key_join_stays_shard_local(self, n_shards):
        query, schema, db, session = self._setup(n_shards)
        with session:
            answers = session.certain_answers(query)
            assert answers == certain_answers(db, query)
            # R and S blocks of one candidate share the key x, so
            # co-partitioning keeps every FO decision on its own shard.
            assert session.stats.cross_shard_fallbacks == 0
            assert session.stats.parent_decides == 0


class TestDeltaShipping:
    def test_deltas_stay_below_snapshot_bytes(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(
            query, seed=2, domain_size=10, witnesses=40, noise_per_relation=30
        )
        with ShardedCertaintySession(db, n_shards=2, min_shard_candidates=1) as s:
            s.certain_answers(query)
            # The bootstrap shipped the whole partitioned database in the
            # same wire format the deltas use: the full-snapshot yardstick.
            snapshot_bytes = s.stats.bootstrap_bytes_shipped
            for batch in mutation_stream(query, db, steps=5, seed=9, batch_range=(1, 3)):
                apply_batch(db, batch)
                s.certain_answers(query)
            assert s.stats.bootstraps == 1 and s.stats.worker_restarts == 0
            assert s.stats.delta_flushes > 0
            assert 0 < s.stats.max_flush_bytes < snapshot_bytes
            # Steady state ships the delta, not the database: even the sum
            # of every post-bootstrap flush stays below one full snapshot.
            assert s.stats.delta_bytes_shipped < snapshot_bytes

    def test_net_cancellation_ships_nothing(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=2, domain_size=6, witnesses=12)
        with ShardedCertaintySession(db, n_shards=2, min_shard_candidates=1) as s:
            s.certain_answers(query)
            fact = next(iter(db.facts))
            with db.batch():  # add/discard net out inside the batch already
                db.discard(fact)
                db.add(fact)
            # ...and an add/discard pair across two unbatched notifications
            # nets out in the pending delta instead (the freshly interned
            # constant values may still ship — rows must not).
            relation = fact.relation
            fresh = relation.fact(*(["zz"] * relation.arity))
            db.add(fresh)
            db.discard(fresh)
            s.certain_answers(query)
            assert s.stats.delta_facts_shipped == 0


class TestSkewedGenerators:
    def test_zipfian_instance_is_deterministic_and_skewed(self):
        query = open_variant(path_query(3), "x1")
        a = zipfian_instance(query, seed=7, domain_size=32, facts_per_relation=64)
        b = zipfian_instance(query, seed=7, domain_size=32, facts_per_relation=64)
        assert a.facts == b.facts
        assert zipfian_instance(query, seed=8).facts != a.facts
        # Skew: hot key values accumulate far more facts (their blocks grow
        # deep with conflicts) than the median key value.
        from collections import Counter

        per_value = Counter(fact.key_terms[0].value for fact in a.facts)
        counts = sorted(per_value.values(), reverse=True)
        assert counts[0] >= 3 * counts[len(counts) // 2]

    def test_bursty_stream_live_contract_and_determinism(self):
        query = open_variant(path_query(3), "x1")
        db1 = zipfian_instance(query, seed=3, domain_size=16, facts_per_relation=24)
        db2 = zipfian_instance(query, seed=3, domain_size=16, facts_per_relation=24)
        batches1, batches2 = [], []
        for batch in bursty_mutation_stream(query, db1, steps=20, seed=5):
            batches1.append(list(batch))
            apply_batch(db1, batch)
        for batch in bursty_mutation_stream(query, db2, steps=20, seed=5):
            batches2.append(list(batch))
            apply_batch(db2, batch)
        assert batches1 == batches2
        assert db1.facts == db2.facts
        sizes = [len(b) for b in batches1]
        assert max(sizes) >= 8, "no burst fired in 20 steps"
        assert min(sizes) <= 2, "no quiet step in 20 steps"

    def test_bursty_stream_discards_name_existing_facts(self):
        query = open_variant(path_query(3), "x1")
        db = zipfian_instance(query, seed=4, domain_size=16, facts_per_relation=24)
        for batch in bursty_mutation_stream(query, db, steps=15, seed=6):
            staged = set(db.facts)
            for kind, payload in batch:
                if kind == "discard":
                    assert payload in staged
            apply_batch(db, batch)


class TestLifecycle:
    def test_close_is_idempotent_and_refuses_afterwards(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=1, domain_size=6, witnesses=12)
        session = ShardedCertaintySession(db, n_shards=2, min_shard_candidates=1)
        session.certain_answers(query)
        assert session.pool_started
        session.close()
        session.close()
        assert session.closed and not session.pool_started
        with pytest.raises(RuntimeError):
            session.certain_answers(query)
        # The observer detached: mutations after close must not error.
        db.add(query.atoms[0].relation.fact("a", "b"))

    def test_killed_worker_recovers_on_the_next_call(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=1, domain_size=6, witnesses=12)
        with ShardedCertaintySession(
            db, n_shards=2, min_shard_candidates=1, restart_backoff=0.0
        ) as s:
            expected = certain_answers(db, query)
            assert s.certain_answers(query) == expected
            for worker in s._workers:
                worker.process.terminate()
                worker.process.join(timeout=5)
            db.add(query.atoms[0].relation.fact("post_crash", "b"))
            expected = certain_answers(db, query)
            # The dead shards are detected, their candidates serve from the
            # parent inline, and the supervisor schedules restarts.
            assert s.certain_answers(query) == expected
            assert s.stats.worker_failures >= 1
            db.add(query.atoms[0].relation.fact("post_recovery", "c"))
            # The next dispatch restarts the dead shards individually —
            # no full-pool re-bootstrap — and serves sharded again.
            assert s.certain_answers(query) == certain_answers(db, query)
            assert s.stats.worker_restarts >= 1
            assert s.stats.bootstraps == 1
            assert all(w is not None for w in s._workers)

    def test_heartbeat_counts_sweeps_not_workers(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=1, domain_size=6, witnesses=12)
        with ShardedCertaintySession(db, n_shards=4, min_shard_candidates=1) as s:
            s.certain_answers(query)
            assert s.heartbeat() == [True] * 4
            assert s.stats.heartbeats == 1  # one sweep, not one per worker
            s.heartbeat()
            assert s.stats.heartbeats == 2

    def test_injected_clock_governs_request_deadlines(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=1, domain_size=6, witnesses=12)
        fake_now = [1e9]  # far beyond any plausible time.monotonic()
        with ShardedCertaintySession(
            db, n_shards=2, min_shard_candidates=1, clock=lambda: fake_now[0]
        ) as s:
            # A deadline in the fake timeline's future is honoured even
            # though the real clock passed it long ago...
            assert s.certain_answers(query, deadline=2e9) == certain_answers(
                db, query
            )
            # ...and one in the fake past expires immediately.
            with pytest.raises(DeadlineExceeded):
                s.certain_answers(query, deadline=fake_now[0] - 1.0)

    def test_boolean_queries_are_rejected(self):
        query = path_query(3)
        db = synthetic_instance(query, seed=1)
        with ShardedCertaintySession(db, n_shards=2) as s:
            with pytest.raises(ValueError):
                s.certain_answers(query)
            # solve/is_certain delegate inline instead.
            assert isinstance(s.is_certain(query), bool)
            assert s.solve(query).certain == s.is_certain(query)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedCertaintySession(UncertainDatabase(), n_shards=0)
