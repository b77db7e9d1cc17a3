"""Tests for the probabilistic-database bridge (Section 7): BID, IsSafe, Pr(q)."""

from fractions import Fraction

import pytest

from repro.counting import (
    certainty_from_counts,
    count_falsifying_repairs,
    count_satisfying_repairs,
    counting_summary,
    repair_frequency,
)
from repro.certainty import certain_by_enumeration
from repro.model import RelationSchema, UncertainDatabase
from repro.probability import (
    BIDDatabase,
    FrontierComparison,
    UnsafeQueryError,
    certainty_via_probability,
    compare_frontiers,
    frontier_comparison_table,
    is_safe,
    probability,
    probability_by_worlds,
    probability_safe_plan,
    proposition1_holds,
    safety_trace,
)
from repro.query import (
    ConjunctiveQuery,
    cycle_query_ac,
    figure2_q1,
    fuxman_miller_cfree_example,
    kolaitis_pema_q0,
    parse_query,
)
from repro.workloads import figure1_database, figure1_query

from tests.helpers import random_instance

R = RelationSchema("R", 2, 1)


class TestBIDDatabase:
    def test_uniform_repairs_probabilities(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2), R.fact("b", 1)])
        bid = BIDDatabase.uniform_repairs(db)
        assert bid.probability(R.fact("a", 1)) == Fraction(1, 2)
        assert bid.probability(R.fact("b", 1)) == Fraction(1)

    def test_block_sum_validation(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        with pytest.raises(ValueError):
            BIDDatabase(db, {R.fact("a", 1): Fraction(3, 4), R.fact("a", 2): Fraction(1, 2)})

    def test_missing_probability_rejected(self):
        db = UncertainDatabase([R.fact("a", 1)])
        with pytest.raises(ValueError):
            BIDDatabase(db, {})

    def test_out_of_range_rejected(self):
        db = UncertainDatabase([R.fact("a", 1)])
        with pytest.raises(ValueError):
            BIDDatabase(db, {R.fact("a", 1): Fraction(3, 2)})

    def test_world_probabilities_sum_to_one(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2), R.fact("b", 1)])
        bid = BIDDatabase(
            db,
            {R.fact("a", 1): Fraction(1, 3), R.fact("a", 2): Fraction(1, 3), R.fact("b", 1): Fraction(1, 2)},
        )
        total = sum(probability for _, probability in bid.worlds())
        assert total == 1

    def test_uniform_repair_worlds_are_repairs(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        bid = BIDDatabase.uniform_repairs(db)
        worlds = list(bid.worlds())
        assert len(worlds) == 2
        assert all(probability == Fraction(1, 2) for _, probability in worlds)

    def test_restrict_to_certain_blocks(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2), R.fact("b", 1)])
        bid = BIDDatabase(
            db,
            {R.fact("a", 1): Fraction(1, 4), R.fact("a", 2): Fraction(1, 4), R.fact("b", 1): 1},
        )
        restricted = bid.restrict_to_certain_blocks()
        assert restricted.facts == frozenset({R.fact("b", 1)})

    def test_world_probability_requires_member_facts(self):
        db = UncertainDatabase([R.fact("a", 1)])
        bid = BIDDatabase.uniform_repairs(db)
        with pytest.raises(ValueError):
            bid.world_probability([R.fact("zzz", 9)])


class TestIsSafe:
    def test_single_atom_is_safe(self):
        assert is_safe(parse_query("Single(x | y)"))

    def test_all_key_single_atom_is_safe(self):
        assert is_safe(parse_query("AllKey(x, y)"))

    def test_ground_query_is_safe(self):
        assert is_safe(parse_query("G('a' | 'b'), H('c' | 'd')"))

    def test_q0_is_unsafe(self):
        assert not is_safe(kolaitis_pema_q0())

    def test_fm_query_is_unsafe(self):
        assert not is_safe(fuxman_miller_cfree_example())

    def test_q1_is_unsafe(self):
        assert not is_safe(figure2_q1())

    def test_disconnected_safe_components(self):
        assert is_safe(parse_query("A(x | y), B(u | v)"))

    def test_common_key_variable_makes_join_safe(self):
        assert is_safe(parse_query("A(x | y), B(x | z)"))

    def test_trace_records_rules(self):
        verdict, trace = safety_trace(parse_query("A(x | y), B(x | z)"))
        assert verdict and any(step.startswith("R3") or step.startswith("R2") for step in trace)

    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            is_safe(parse_query("A(x | y), A(y | z)"))


class TestProbabilityEvaluation:
    def test_single_fact_probability(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        bid = BIDDatabase.uniform_repairs(db)
        q = ConjunctiveQuery([R.atom("x", "y")])
        assert probability_safe_plan(bid, q) == probability_by_worlds(bid, q) == 1

    def test_constant_selection_probability(self):
        from repro.model import Constant, Variable

        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        bid = BIDDatabase.uniform_repairs(db)
        q = ConjunctiveQuery([R.atom(Variable("x"), Constant(1))])
        assert probability_safe_plan(bid, q) == Fraction(1, 2)
        assert probability_by_worlds(bid, q) == Fraction(1, 2)

    @pytest.mark.parametrize(
        "text",
        ["Single(x | y)", "A(x | y), B(x | z)", "A(x | y), B(u | v)"],
        ids=["single-atom", "shared-key", "disconnected"],
    )
    def test_safe_plan_matches_world_enumeration(self, text, rng):
        query = parse_query(text)
        assert is_safe(query)
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            bid = BIDDatabase.uniform_repairs(db)
            assert probability_safe_plan(bid, query) == probability_by_worlds(bid, query)

    def test_unsafe_query_raises(self):
        db = UncertainDatabase([R.fact("a", 1)])
        bid = BIDDatabase.uniform_repairs(db)
        with pytest.raises(UnsafeQueryError):
            probability_safe_plan(bid, fuxman_miller_cfree_example())

    def test_probability_dispatcher_falls_back_to_worlds(self, rng):
        query = fuxman_miller_cfree_example()
        db = random_instance(query, rng, domain_size=2, facts_per_relation=3)
        bid = BIDDatabase.uniform_repairs(db)
        assert probability(bid, query) == probability_by_worlds(bid, query)

    def test_empty_query_has_probability_one(self):
        db = UncertainDatabase([R.fact("a", 1)])
        bid = BIDDatabase.uniform_repairs(db)
        assert probability(bid, ConjunctiveQuery([])) == 1


class TestBridge:
    def test_proposition1_on_figure1(self):
        bid = BIDDatabase.uniform_repairs(figure1_database())
        assert proposition1_holds(bid, figure1_query())

    def test_proposition1_random(self, rng):
        query = fuxman_miller_cfree_example()
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=3)
            assert proposition1_holds(BIDDatabase.uniform_repairs(db), query)

    def test_certainty_via_probability_uniform_repairs(self, rng):
        """With uniform repair probabilities, Pr(q)=1 ⇔ db ∈ CERTAINTY(q)."""
        query = fuxman_miller_cfree_example()
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=3)
            bid = BIDDatabase.uniform_repairs(db)
            assert certainty_via_probability(bid, query) == certain_by_enumeration(db, query)

    def test_theorem6_on_named_queries(self):
        comparisons = compare_frontiers(
            [parse_query("Single(x | y)"), fuxman_miller_cfree_example(), figure2_q1(), cycle_query_ac(2)]
        )
        assert all(c.consistent_with_theorem6 for c in comparisons)

    def test_comparison_table_renders(self):
        table = frontier_comparison_table(compare_frontiers([figure2_q1()]))
        assert "CONP_COMPLETE" in table and "unsafe" in table

    def test_frontier_comparison_flags(self):
        comparison = FrontierComparison(parse_query("Single(x | y)"))
        assert comparison.probability_tractable and comparison.certainty_fo


class TestCounting:
    def test_figure1_counts(self):
        db = figure1_database()
        q = figure1_query()
        assert count_satisfying_repairs(db, q) == 3
        assert count_falsifying_repairs(db, q) == 1
        assert repair_frequency(db, q) == Fraction(3, 4)
        assert not certainty_from_counts(db, q)

    def test_counting_summary(self):
        satisfying, total, frequency = counting_summary(figure1_database(), figure1_query())
        assert (satisfying, total, frequency) == (3, 4, Fraction(3, 4))

    def test_counts_consistent_with_certainty(self, rng):
        query = fuxman_miller_cfree_example()
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=3)
            assert certainty_from_counts(db, query) == certain_by_enumeration(db, query)

    def test_uniform_probability_equals_repair_frequency(self, rng):
        query = fuxman_miller_cfree_example()
        for _ in range(6):
            db = random_instance(query, rng, domain_size=2, facts_per_relation=3)
            bid = BIDDatabase.uniform_repairs(db)
            assert probability_by_worlds(bid, query) == repair_frequency(db, query)

    def test_empty_query_counts_all_repairs(self):
        db = figure1_database()
        assert count_satisfying_repairs(db, ConjunctiveQuery([])) == 4
