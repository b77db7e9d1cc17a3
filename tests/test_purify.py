"""Tests for Lemma 1 purification."""

import random


from repro import CertaintySession
from repro.certainty import (
    certain_by_enumeration,
    is_purified,
    peel_certain,
    purify,
    relevant_facts,
)
from repro.certainty.peeling import empty_base_case
from repro.model import RelationSchema, UncertainDatabase
from repro.query import ConjunctiveQuery, figure4_query, parse_query
from repro.store import ColumnarFactStore
from repro.workloads import figure6_database, ring_instance, synthetic_instance
from repro.query.families import cycle_query_ac, path_query

from tests.helpers import constructions, random_instance

R = RelationSchema("R", 2, 1)
S = RelationSchema("S", 2, 1)


class TestPurify:
    def test_example1_from_the_paper(self):
        """{R(a,b), S(b,a), S(b,c)} is not purified for {R(x|y), S(y|x)}."""
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("b", "c")]
        )
        assert not is_purified(db, q)
        purified = purify(db, q)
        assert is_purified(purified, q)

    def test_example1_removes_the_whole_block(self):
        """Purification removes block(S(b,c)) entirely, i.e. both S-facts."""
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("b", "c")]
        )
        purified = purify(db, q)
        assert schema["S"].fact("b", "c") not in purified
        assert schema["S"].fact("b", "a") not in purified

    def test_purified_database_unchanged(self):
        db = figure6_database()
        q = cycle_query_ac(3)
        assert is_purified(db, q)
        assert purify(db, q).facts == db.facts

    def test_empty_query_keeps_everything(self):
        db = UncertainDatabase([R.fact("a", 1)])
        q = ConjunctiveQuery([])
        assert purify(db, q).facts == db.facts

    def test_no_witness_empties_database(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b")])
        assert len(purify(db, q)) == 0

    def test_relevant_facts_subset(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("zzz", "q")]
        )
        relevant = relevant_facts(db, q)
        assert schema["R"].fact("a", "b") in relevant
        assert schema["S"].fact("zzz", "q") not in relevant

    def test_purify_is_idempotent(self, rng):
        q = parse_query("A(x | y), B(y | x)")
        for _ in range(10):
            db = random_instance(q, rng, domain_size=3, facts_per_relation=5)
            once = purify(db, q)
            assert purify(once, q).facts == once.facts

    def test_purify_preserves_certainty(self, rng):
        """Lemma 1: db ∈ CERTAINTY(q) ⇔ purify(db, q) ∈ CERTAINTY(q)."""
        q = parse_query("A(x | y), B(y | x)")
        for _ in range(15):
            db = random_instance(q, rng, domain_size=3, facts_per_relation=5)
            assert certain_by_enumeration(db, q) == certain_by_enumeration(purify(db, q), q)

    def test_purify_does_not_mutate_input(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b")])
        purify(db, q)
        assert len(db) == 1


class TestPurifyFastPath:
    """The hot-path contract: already-purified inputs come back unchanged."""

    def test_purified_input_returns_the_same_object(self):
        db = figure6_database()
        q = cycle_query_ac(3)
        assert is_purified(db, q)
        result = purify(db, q)
        assert result is db  # no copy at all: the input is returned unchanged

    def test_empty_query_takes_the_fast_path(self):
        db = UncertainDatabase([R.fact("a", 1)])
        assert purify(db, ConjunctiveQuery([])) is db

    def test_impure_input_returns_a_new_database(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("b", "c")]
        )
        purified = purify(db, q)
        assert purified is not db
        assert len(db) == 3  # input untouched

    def test_caller_supplied_index_is_never_mutated(self):
        from repro.store import ColumnarFactIndex

        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("b", "c")]
        )
        index = ColumnarFactIndex(db.facts)
        purified = purify(db, q, index=index)
        assert len(purified) < len(db)
        # The shared index still covers exactly the original facts.
        assert set(index.store.decode_facts()) == set(db.facts)
        assert len(index.store) == len(db)

    def test_cascading_sweeps_with_shared_index(self, rng):
        """Multi-sweep removals agree with the no-index result."""
        from repro.store import ColumnarFactIndex

        q = parse_query("A(x | y), B(y | z), C(z | x)")
        for seed in range(10):
            db = random_instance(q, random.Random(seed), domain_size=3, facts_per_relation=4)
            index = ColumnarFactIndex(db.facts)
            with_index = purify(db, q, index=index)
            without_index = purify(db, q)
            assert with_index.facts == without_index.facts
            assert set(index.store.decode_facts()) == set(db.facts)

    def test_returned_copy_tracks_no_hidden_observer(self):
        """Mutating purify's result must not corrupt later purify calls."""
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "a"), schema["S"].fact("b", "c")]
        )
        purified = purify(db, q)
        purified.add(schema["R"].fact("zz", "qq"))  # must not raise
        again = purify(purified, q)
        assert schema["R"].fact("zz", "qq") not in again


class TestZeroCopyDecide:
    """Session decides purify by filtering rows of the session's store.

    Each decide below purifies impure (sub-)databases, yet none may
    construct an :class:`UncertainDatabase` or a :class:`ColumnarFactStore`.
    """

    @staticmethod
    def _decide_without_copies(db, query, decide):
        assert not is_purified(db, query)  # purification has rows to drop
        with CertaintySession(db) as session:
            with constructions(UncertainDatabase, ColumnarFactStore) as built:
                decide(session)
        assert built == {"UncertainDatabase": 0, "ColumnarFactStore": 0}
        return session

    def test_theorem3_decide_on_a_noisy_figure4_instance(self):
        query = figure4_query()
        db = synthetic_instance(
            query, seed=31, domain_size=32, witnesses=16, noise_per_relation=16, conflict_rate=0.4
        )
        session = self._decide_without_copies(
            db, query, lambda session: session.is_certain(query)
        )
        assert session.plan_for(query).method == "theorem3-terminal-cycles"

    def test_theorem4_decide_on_a_chorded_ring(self):
        query, db = ring_instance(3, copies=16, chords=4, with_sk=False, seed=7)
        session = self._decide_without_copies(
            db, query, lambda session: session.is_certain(query)
        )
        assert session.plan_for(query).method == "theorem4-cycle-query"

    def test_deep_peel_on_the_session_index(self):
        query = path_query(4)
        db = synthetic_instance(
            query, seed=0, domain_size=5, witnesses=6, noise_per_relation=5, conflict_rate=0.5
        )
        self._decide_without_copies(
            db,
            query,
            lambda session: peel_certain(db, query, empty_base_case, index=session.index),
        )
