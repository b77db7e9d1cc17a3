"""Tests for the top-level dispatcher (solve / is_certain / certain_answers)."""

import pytest

from repro.certainty import (
    IntractableQueryError,
    UnsupportedQueryError,
    certain_answers,
    certain_by_enumeration,
    is_certain,
    solve,
)
from repro.core import ComplexityBand
from repro.model import Constant
from repro.query import (
    cycle_query_ac,
    cycle_query_c,
    figure2_q1,
    figure4_query,
    fuxman_miller_cfree_example,
    parse_query,
)
from repro.workloads import figure1_database, figure1_query, figure6_database

from tests.helpers import random_instance


class TestDispatch:
    def test_fo_band_uses_rewriting(self):
        outcome = solve(figure1_database(), figure1_query())
        assert outcome.method == "fo-rewriting"
        assert outcome.classification.band is ComplexityBand.FO
        assert not outcome.certain

    def test_terminal_cycles_band(self, rng):
        query = cycle_query_c(2)
        db = random_instance(query, rng)
        outcome = solve(db, query)
        assert outcome.method == "theorem3-terminal-cycles"

    def test_cycle_query_band(self):
        outcome = solve(figure6_database(), cycle_query_ac(3))
        assert outcome.method == "theorem4-cycle-query"
        assert not outcome.certain

    def test_conp_requires_opt_in(self, rng):
        query = figure2_q1()
        db = random_instance(query, rng, facts_per_relation=3)
        with pytest.raises(IntractableQueryError):
            solve(db, query)
        outcome = solve(db, query, allow_exponential=True)
        assert outcome.method == "brute-force"
        assert outcome.certain == certain_by_enumeration(db, query)

    def test_unsupported_requires_opt_in(self, rng):
        query = parse_query("R(x | y, w), S(y | z, w), T(z | x, w)")
        db = random_instance(query, rng, facts_per_relation=3)
        with pytest.raises(UnsupportedQueryError):
            solve(db, query)
        assert solve(db, query, allow_exponential=True).certain == certain_by_enumeration(db, query)

    def test_is_certain_boolean_wrapper(self, rng):
        query = fuxman_miller_cfree_example()
        db = random_instance(query, rng)
        assert is_certain(db, query) == certain_by_enumeration(db, query)

    def test_outcome_bool_protocol(self, rng):
        query = fuxman_miller_cfree_example()
        db = random_instance(query, rng)
        outcome = solve(db, query)
        assert bool(outcome) == outcome.certain

    @pytest.mark.parametrize(
        "query",
        [fuxman_miller_cfree_example(), cycle_query_c(2), cycle_query_ac(2), figure4_query(include_r0=False)],
        ids=lambda q: str(q)[:30],
    )
    def test_polynomial_paths_agree_with_oracle(self, query, rng):
        for _ in range(10):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            assert is_certain(db, query) == certain_by_enumeration(db, query)


class TestCertainAnswers:
    def test_figure1_open_query(self):
        """Which conferences certainly host in Rome?  None, but KDD is a certain
        answer of 'which conferences have rank A and host somewhere'."""
        db = figure1_database()
        rome_query = parse_query("C(x, y | 'Rome'), R(x | 'A')", free=["x"])
        assert certain_answers(db, rome_query) == set()

        rank_query = parse_query("R(x | 'A')", free=["x"])
        answers = certain_answers(db, rank_query)
        assert answers == {(Constant("PODS"),)}

    def test_certain_answers_subset_of_possible_answers(self, rng):
        query = parse_query("A(x | y), B(y | z)", free=["x"])
        from repro.query import answer_tuples

        for _ in range(10):
            db = random_instance(query.as_boolean(), rng, domain_size=3, facts_per_relation=4)
            certain = certain_answers(db, query)
            possible = answer_tuples(query, db.facts)
            assert certain <= possible

    def test_certain_answers_match_brute_force_groundings(self, rng):
        from repro.query.substitution import ground_free_variables
        from repro.query import answer_tuples

        query = parse_query("A(x | y), B(y | z)", free=["x"])
        for _ in range(8):
            db = random_instance(query.as_boolean(), rng, domain_size=3, facts_per_relation=4)
            computed = certain_answers(db, query)
            expected = set()
            for candidate in answer_tuples(query, db.facts):
                grounded = ground_free_variables(query, [c.value for c in candidate])
                if certain_by_enumeration(db, grounded):
                    expected.add(candidate)
            assert computed == expected

    def test_certain_answers_requires_free_variables(self):
        with pytest.raises(ValueError):
            certain_answers(figure1_database(), figure1_query())
