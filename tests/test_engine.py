"""Tests for the compiled-plan certainty engine.

Covers the three behaviours the engine adds on top of the solvers:

* plan compilation and the bounded LRU plan cache (hits, misses, evictions);
* incremental fact-index maintenance through the database observer hooks
  (``add`` / ``discard`` / ``remove_block``);
* ``CertaintySession`` equivalence with the one-shot APIs on the paper's
  Figure 1 / Figure 2 / Figure 4 query families, plus the batched
  ``certain_answers`` classifying the query shape only once.
"""

import random
import threading
import time

import pytest

from repro import (
    CertaintySession,
    PlanCache,
    UncertainDatabase,
    certain_answers,
    compile_plan,
    is_certain,
    parse_facts,
    parse_query,
    solve,
)
from repro.core import ComplexityBand, classify_invocations, reset_classify_invocations
from repro.query import (
    answer_tuples,
    figure2_q1,
    figure4_query,
    kolaitis_pema_q0,
)
from repro.store import ColumnarFactIndex, scratch_store
from repro.workloads import figure1_database, figure1_query
from repro.workloads.generators import synthetic_instance

from helpers import random_instance


def employee_setup():
    query = parse_query("Emp(name | dept), Dept(dept | city)")
    schema = query.schema()
    db = UncertainDatabase(
        parse_facts(
            [
                "Emp('ada' | 'db')",
                "Emp('bob' | 'os')",
                "Emp('bob' | 'net')",
                "Dept('db' | 'Mons')",
                "Dept('os' | 'Mons')",
                "Dept('net' | 'Paris')",
                "Dept('net' | 'Lille')",
            ],
            schema=schema,
        )
    )
    open_query = parse_query(
        "Emp(name | dept), Dept(dept | 'Mons')", free=["name"], schema=schema
    )
    return db, query, open_query


class TestQueryPlan:
    def test_compile_fixes_band_and_method(self):
        plan = compile_plan(figure1_query())
        assert plan.band is ComplexityBand.FO
        assert plan.method == "fo-rewriting"

    def test_compile_nonboolean_uses_representative_grounding(self):
        _, _, open_query = employee_setup()
        plan = compile_plan(open_query)
        assert plan.source_query is open_query
        assert plan.query.is_boolean
        assert plan.band is ComplexityBand.FO

    def test_execute_matches_one_shot_solve(self):
        db = figure1_database()
        query = figure1_query()
        plan = compile_plan(query)
        outcome = plan.execute(scratch_store(db))
        reference = solve(db, query)
        assert outcome.certain == reference.certain
        assert outcome.method == reference.method

    def test_brute_force_plan_requires_opt_in(self):
        q1 = figure2_q1()
        plan = compile_plan(q1)
        assert plan.method == "brute-force"
        db = random_instance(q1, random.Random(0))
        with pytest.raises(Exception):
            plan.execute(scratch_store(db))  # coNP-complete without allow_exponential
        assert plan.execute(scratch_store(db), allow_exponential=True).certain in (True, False)


class TestPlanCache:
    def test_hit_after_miss(self):
        cache = PlanCache(maxsize=4)
        q = figure1_query()
        first = cache.get_or_compile(q)
        second = cache.get_or_compile(q)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_semantically_equal_queries_share_a_plan(self):
        cache = PlanCache(maxsize=4)
        q = parse_query("R(x | y), S(y | z)")
        reordered = parse_query("S(y | z), R(x | y)")
        assert cache.get_or_compile(q) is cache.get_or_compile(reordered)

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        q1, q2, q3 = figure1_query(), figure2_q1(), kolaitis_pema_q0()
        cache.get_or_compile(q1)
        cache.get_or_compile(q2)
        cache.get_or_compile(q1)  # refresh q1: q2 becomes LRU
        cache.get_or_compile(q3)  # evicts q2
        assert q1 in cache and q3 in cache and q2 not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_compile(figure1_query())
        cache.clear()
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions, stats.size) == (0, 0, 0, 0)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestPlanCacheConcurrency:
    """The cache must be safe (and non-redundant) under thread contention."""

    def test_eight_thread_stress_no_duplicate_compiles(self):
        """8 threads hammering get_or_compile: consistent stats, one compile
        per distinct query, and every thread sees the same plan object."""
        from repro.engine.plan import compile_plan
        from repro.workloads import random_acyclic_query

        cache = PlanCache(maxsize=256)
        queries = [random_acyclic_query(seed=s, atoms=3) for s in range(12)]
        compiled = []
        compile_lock = threading.Lock()

        def slow_counting_compiler(query):
            with compile_lock:
                compiled.append(query)
            time.sleep(0.002)  # widen the race window
            return compile_plan(query)

        calls_per_thread = 120
        plans_seen = [dict() for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            for i in range(calls_per_thread):
                query = queries[(i + slot) % len(queries)]
                plan = cache.get_or_compile(query, compiler=slow_counting_compiler)
                previous = plans_seen[slot].setdefault(query, plan)
                assert previous is plan

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # No query was compiled twice — concurrent misses single-flight.
        assert len(compiled) == len(set(compiled)) == len(queries)
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * calls_per_thread
        assert stats.misses == stats.compiles == len(queries)
        assert stats.size == len(queries)
        # All threads converged on identical plan objects per query.
        for query in queries:
            owners = {id(seen[query]) for seen in plans_seen}
            assert len(owners) == 1

    def test_failed_compile_releases_the_single_flight(self):
        cache = PlanCache(maxsize=4)
        query = figure1_query()

        calls = []

        def flaky_compiler(q):
            calls.append(q)
            if len(calls) == 1:
                raise RuntimeError("transient failure")
            from repro.engine.plan import compile_plan

            return compile_plan(q)

        with pytest.raises(RuntimeError):
            cache.get_or_compile(query, compiler=flaky_compiler)
        # The in-flight marker is gone: the next call compiles successfully.
        plan = cache.get_or_compile(query, compiler=flaky_compiler)
        assert plan is cache.get_or_compile(query)
        assert len(calls) == 2

    def test_concurrent_mixed_get_put_is_consistent(self):
        cache = PlanCache(maxsize=8)
        queries = [figure1_query(), figure2_q1(), kolaitis_pema_q0()]

        def worker():
            for _ in range(300):
                for query in queries:
                    cache.get_or_compile(query)
                    cache.get(query)
                    len(cache)
                    cache.stats

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats
        assert stats.size == len(queries)
        assert stats.compiles == stats.misses


def assert_index_consistent(index: ColumnarFactIndex, db: UncertainDatabase) -> None:
    """The incremental index's store must hold exactly the database's facts."""
    store = index.store
    assert len(store) == len(db)
    assert set(store.decode_facts()) == set(db.facts)
    for fact in db.facts:
        assert store.contains_fact(fact)
        key = store.known_row(fact)[: fact.relation.key_size]
        block = store.block_rows(fact.relation.name, key)
        assert {store.decode_row(row) for row in block} == {
            f.terms for f in db.block(fact.block_key)
        }


class TestIncrementalIndex:
    def test_add_discard_remove_block(self):
        db, _, _ = employee_setup()
        session = CertaintySession(db)
        emp = db.schema["Emp"]
        assert_index_consistent(session.index, db)

        db.add(emp.fact("cyn", "db"))
        db.add(emp.fact("cyn", "os"))  # conflicting block for cyn
        assert_index_consistent(session.index, db)

        db.discard(emp.fact("cyn", "os"))
        assert_index_consistent(session.index, db)

        db.remove_block(emp.fact("bob", "os").block_key)
        assert_index_consistent(session.index, db)

        # Discarding an absent fact is a no-op for the index too.
        db.discard(emp.fact("zz", "zz"))
        assert_index_consistent(session.index, db)

        session.close()
        db.add(emp.fact("dan", "db"))
        # After close, the index is detached and no longer updated.
        assert not session.store.contains_fact(emp.fact("dan", "db"))

    def test_closed_session_refuses_queries(self):
        db, query, _ = employee_setup()
        session = CertaintySession(db)
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError):
            session.is_certain(query)


FAMILIES = [
    ("figure1", figure1_query()),
    ("figure2-q1", figure2_q1()),
    ("figure4", figure4_query()),
    ("kolaitis-pema-q0", kolaitis_pema_q0()),
]


class TestSessionEquivalence:
    @pytest.mark.parametrize("name,query", FAMILIES, ids=[n for n, _ in FAMILIES])
    def test_session_matches_one_shot(self, name, query):
        for seed in range(3):
            db = synthetic_instance(query, seed=seed, domain_size=4, witnesses=3,
                                    noise_per_relation=3, conflict_rate=0.5)
            expected = is_certain(db, query, allow_exponential=True)
            with CertaintySession(db, allow_exponential=True) as session:
                assert session.is_certain(query) == expected
                outcome = session.solve(query)
                assert outcome.certain == expected
                assert outcome.method == solve(db, query, allow_exponential=True).method

    def test_session_tracks_mutation(self):
        db = figure1_database()
        query = figure1_query()
        with CertaintySession(db) as session:
            assert session.is_certain(query) == is_certain(db, query)
            # Resolve the uncertainty that made the query non-certain.
            ranking = db.schema["R"]
            db.discard(ranking.fact("PODS", "B"))
            assert session.is_certain(query) == is_certain(db, query)

    def test_certain_answers_equivalence(self):
        db, _, open_query = employee_setup()
        with CertaintySession(db) as session:
            assert session.certain_answers(open_query) == certain_answers(db, open_query)

    def test_boolean_query_rejected_by_certain_answers(self):
        db, query, _ = employee_setup()
        with CertaintySession(db) as session:
            with pytest.raises(ValueError):
                session.certain_answers(query)


class TestSelfJoinGroundings:
    def test_repeated_constants_collapse_atoms(self):
        """Self-join plans must re-classify per grounding.

        For ``q(x, y) :- R(x | 'c'), R(y | 'c')`` the candidate tuple
        ``('a', 'a')`` collapses the two atoms into one, turning an
        unsupported self-join shape into a plain FO query — a
        representative-grounding plan compiled from distinct placeholders
        would wrongly dispatch it to brute force.
        """
        query = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
        schema = query.schema()
        db = UncertainDatabase(parse_facts(["R('a' | 'c')"], schema=schema))
        plan = compile_plan(query)
        assert plan.per_grounding

        answers = certain_answers(db, query)  # must not raise
        values = {tuple(c.value for c in t) for t in answers}
        assert ("a", "a") in values

        with CertaintySession(db) as session:
            assert session.certain_answers(query) == answers


class TestBatchedClassification:
    def test_certain_answers_classifies_shape_once(self):
        """A 10-candidate workload must not classify once per candidate."""
        query = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
        schema = query.schema()
        rows = []
        for i in range(10):
            rows.append(f"Emp('e{i}' | 'd{i % 3}')")
        for j in range(3):
            rows.append(f"Dept('d{j}' | 'city{j}')")
        db = UncertainDatabase(parse_facts(rows, schema=schema))

        with CertaintySession(db, plan_cache=PlanCache(maxsize=8)) as session:
            candidates = len(answer_tuples(query, db.facts))
            assert candidates == 10
            reset_classify_invocations()
            answers = session.certain_answers(query)
            calls = classify_invocations()
        assert len(answers) == 10  # consistent db: every candidate is certain
        # At most one classification for the shape (zero when classify_cached
        # already knows it); the seed behaviour was >= 10.
        assert calls <= candidates / 2
        assert calls <= 1


class TestSessionIndexCoherence:
    """Differential tests: a long-lived session must agree with a fresh one.

    The session's incrementally maintained index is its single point of
    truth for candidate enumeration; after arbitrary interleavings of
    ``add`` / ``discard`` / ``remove_block`` it must produce exactly the
    answers a freshly built session (and the one-shot API) produces.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_interleaved_mutations_match_fresh_session(self, seed):
        from repro.query.families import path_query
        from repro.model.symbols import Variable
        from repro.query import ConjunctiveQuery

        base = path_query(3)
        query = ConjunctiveQuery(base.atoms, free_variables=[Variable("x1")])
        rng = random.Random(seed)
        db = synthetic_instance(
            query, seed=seed, domain_size=5, witnesses=8,
            noise_per_relation=6, conflict_rate=0.6,
        )
        relations = [atom.relation for atom in query.atoms]
        with CertaintySession(db) as session:
            for step in range(12):
                action = rng.choice(("add", "discard", "remove_block"))
                if action == "add":
                    relation = rng.choice(relations)
                    values = [f"c{rng.randrange(5)}" for _ in range(relation.arity)]
                    db.add(relation.fact(*values))
                elif action == "discard" and len(db):
                    db.discard(rng.choice(sorted(db.facts, key=str)))
                elif action == "remove_block" and db.block_keys():
                    db.remove_block(rng.choice(sorted(
                        db.block_keys(), key=lambda k: (k[0], tuple(str(c) for c in k[1]))
                    )))
                live = session.certain_answers(query)
                with CertaintySession(db) as fresh:
                    assert live == fresh.certain_answers(query), f"step {step}"
                assert live == certain_answers(db, query)
                assert_index_consistent(session.index, db)

    def test_mutations_visible_to_boolean_solve(self):
        db, query, _ = employee_setup()
        schema = db.schema
        with CertaintySession(db) as session:
            before = session.is_certain(query)
            assert before == is_certain(db, query)
            # Remove a whole conflicting block, then add it back.
            db.remove_block(("Dept", (schema["Dept"].fact("net", "x").key_terms)))
            assert session.is_certain(query) == is_certain(db, query)
            db.add(schema["Dept"].fact("net", "Paris"))
            assert session.is_certain(query) == is_certain(db, query)
