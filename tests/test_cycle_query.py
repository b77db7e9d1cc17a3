"""Tests for the Theorem 4 solver (AC(k)/C(k)) and the Lemma 9 reduction."""

import pytest

from repro.certainty import (
    UnsupportedQueryError,
    certain_brute_force,
    certain_ck_via_reduction,
    certain_cycle_query,
    lemma9_expand,
)
from repro.model import UncertainDatabase
from repro.query import ConjunctiveQuery, cycle_query_ac, cycle_query_c, parse_query, satisfies
from repro.query.families import cycle_query_shape
from repro.model.repairs import is_repair
from repro.workloads import figure6_database, figure7_falsifying_repairs, ring_instance

from tests.helpers import random_instance


class TestFigure6:
    def test_not_certain(self):
        assert not certain_cycle_query(figure6_database(), cycle_query_ac(3))

    def test_oracle_agrees(self):
        db = figure6_database()
        q = cycle_query_ac(3)
        assert certain_cycle_query(db, q) == certain_brute_force(db, q)

    def test_figure7_repairs_falsify(self):
        db = figure6_database()
        q = cycle_query_ac(3)
        for repair in figure7_falsifying_repairs():
            assert is_repair(db, repair)
            assert not satisfies(repair, q)

    def test_certain_after_encoding_the_missing_triangle(self):
        """Encoding the fourth triangle (a, b, c) in S3 removes Case 1 but the
        long 6-cycle still falsifies the query."""
        db = figure6_database()
        q = cycle_query_ac(3)
        s3 = q.schema()["S3"]
        db.add(s3.fact("a", "b", "c"))
        assert certain_cycle_query(db, q) == certain_brute_force(db, q)


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [2, 3])
    def test_ack_random_agreement(self, k, rng):
        query = cycle_query_ac(k)
        for _ in range(20):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=5)
            assert certain_cycle_query(db, query) == certain_brute_force(db, query)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ck_random_agreement(self, k, rng):
        query = cycle_query_c(k)
        for _ in range(15):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            assert certain_cycle_query(db, query) == certain_brute_force(db, query)

    def test_ring_instances(self):
        for seed in range(6):
            query, db = ring_instance(3, copies=2, chords=2, encoded_fraction=0.7, seed=seed)
            assert certain_cycle_query(db, query) == certain_brute_force(db, query)

    def test_ring_instances_ck(self):
        for seed in range(6):
            query, db = ring_instance(3, copies=2, chords=1, seed=seed, with_sk=False)
            assert certain_cycle_query(db, query) == certain_brute_force(db, query)

    def test_empty_database_not_certain(self):
        assert not certain_cycle_query(UncertainDatabase(), cycle_query_ac(3))

    def test_single_encoded_cycle_certain(self):
        query = cycle_query_ac(3)
        schema = query.schema()
        db = UncertainDatabase(
            [
                schema["R1"].fact("a", "b"),
                schema["R2"].fact("b", "c"),
                schema["R3"].fact("c", "a"),
                schema["S3"].fact("a", "b", "c"),
            ]
        )
        assert certain_cycle_query(db, query)

    def test_single_unencoded_cycle_not_certain(self):
        query = cycle_query_ac(3)
        schema = query.schema()
        db = UncertainDatabase(
            [
                schema["R1"].fact("a", "b"),
                schema["R2"].fact("b", "c"),
                schema["R3"].fact("c", "a"),
            ]
        )
        # Without the S3 fact there is no witness at all.
        assert not certain_cycle_query(db, query)

    def test_rejects_non_cycle_query(self):
        with pytest.raises(UnsupportedQueryError):
            certain_cycle_query(UncertainDatabase(), parse_query("R(x | y), S(y | z)"))


class TestLemma9:
    def test_expand_adds_full_all_key_relation(self):
        c3 = cycle_query_c(3)
        ac3_like = cycle_query_shape(c3)
        db = random_instance(c3, __import__("random").Random(0), domain_size=2, facts_per_relation=2)
        from repro.model.atoms import RelationSchema

        sk = RelationSchema("SK", 3, 3)
        target = ConjunctiveQuery(list(c3.atoms) + [sk.atom(*ac3_like.variables)])
        expanded = lemma9_expand(db, target, c3)
        domain_size = len(db.active_domain())
        assert sum(f.relation.name == "SK" for f in expanded.facts) == domain_size**3

    def test_expand_requires_all_key_extras(self):
        c2 = cycle_query_c(2)
        bigger = parse_query("R1(x | y), R2(y | x), Extra(x | y)")
        with pytest.raises(UnsupportedQueryError):
            lemma9_expand(UncertainDatabase(), bigger, c2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_reduction_agrees_with_direct_algorithm(self, k, rng):
        query = cycle_query_c(k)
        for _ in range(8):
            db = random_instance(query, rng, domain_size=2, facts_per_relation=3)
            direct = certain_cycle_query(db, query)
            reduced = certain_ck_via_reduction(db, query)
            oracle = certain_brute_force(db, query)
            assert direct == reduced == oracle

    def test_reduction_rejects_ack(self):
        with pytest.raises(UnsupportedQueryError):
            certain_ck_via_reduction(UncertainDatabase(), cycle_query_ac(2))
