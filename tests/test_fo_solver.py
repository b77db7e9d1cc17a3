"""Tests for the FO-case solver (unattacked-atom peeling) and its rewriting."""

import pytest

from repro.certainty import UnsupportedQueryError, certain_by_enumeration, certain_fo, is_fo_expressible
from repro.fo import certain_rewriting, evaluate_sentence, formula_size
from repro.fo.formulas import Exists
from repro.model import UncertainDatabase
from repro.query import (
    ConjunctiveQuery,
    cycle_query_c,
    figure2_q1,
    fuxman_miller_cfree_example,
    parse_query,
    path_query,
)
from repro.workloads import figure1_database, figure1_query

from tests.helpers import random_instance

FO_QUERIES = [
    fuxman_miller_cfree_example(),
    path_query(3),
    figure1_query(),
    parse_query("A(x | y), B(x, y | w), D(w, x | v)"),
    parse_query("R(x | y, 'a'), S(y | z), T(y, z | u)"),
    parse_query("A(x | y), B(y | y, w)"),
    parse_query("Lonely(x | y)"),
]


class TestFOExpressibility:
    def test_acyclic_attack_graphs_are_fo(self):
        for query in FO_QUERIES:
            assert is_fo_expressible(query)

    def test_cyclic_attack_graph_not_fo(self):
        assert not is_fo_expressible(figure2_q1())
        assert not is_fo_expressible(cycle_query_c(2))

    def test_fo_solver_rejects_non_fo_query(self):
        db = UncertainDatabase()
        with pytest.raises(UnsupportedQueryError):
            certain_fo(db, cycle_query_c(2))

    def test_empty_query_fo(self):
        assert is_fo_expressible(ConjunctiveQuery([]))
        assert certain_fo(UncertainDatabase(), ConjunctiveQuery([]))


class TestFOSolverAgainstOracle:
    def test_figure1(self):
        assert certain_fo(figure1_database(), figure1_query()) is False

    @pytest.mark.parametrize("query", FO_QUERIES, ids=lambda q: str(q)[:40])
    def test_random_agreement(self, query, rng):
        for _ in range(12):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            assert certain_fo(db, query) == certain_by_enumeration(db, query)

    def test_planted_witness_certain(self):
        q = fuxman_miller_cfree_example()
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b"), schema["S"].fact("b", "c")])
        assert certain_fo(db, q)

    def test_conflicting_block_breaks_certainty(self):
        q = fuxman_miller_cfree_example()
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["R"].fact("a", "z"), schema["S"].fact("b", "c")]
        )
        assert not certain_fo(db, q)

    def test_certain_despite_conflicts(self):
        """Both choices of the conflicting R-block lead to a witness."""
        q = fuxman_miller_cfree_example()
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R"].fact("a", "b"),
                schema["R"].fact("a", "z"),
                schema["S"].fact("b", "c"),
                schema["S"].fact("z", "c"),
            ]
        )
        assert certain_fo(db, q)


class TestCertainRewriting:
    def test_rewriting_rejects_cyclic_attack_graph(self):
        with pytest.raises(UnsupportedQueryError):
            certain_rewriting(figure2_q1())

    def test_rewriting_structure(self):
        formula = certain_rewriting(fuxman_miller_cfree_example())
        assert isinstance(formula, Exists)
        assert formula.free_variables() == frozenset()
        assert formula_size(formula) > 5

    def test_rewriting_of_empty_query_is_true(self):
        formula = certain_rewriting(ConjunctiveQuery([]))
        assert evaluate_sentence(UncertainDatabase(), formula)

    @pytest.mark.parametrize("query", FO_QUERIES[:5], ids=lambda q: str(q)[:40])
    def test_rewriting_agrees_with_oracle(self, query, rng):
        formula = certain_rewriting(query)
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            assert evaluate_sentence(db, formula) == certain_by_enumeration(db, query)

    def test_rewriting_on_figure1(self):
        formula = certain_rewriting(figure1_query())
        assert evaluate_sentence(figure1_database(), formula) is False
