"""Tests for the Theorem 3 solver (weak terminal cycles)."""

import pytest

from repro.certainty import UnsupportedQueryError, certain_by_enumeration, certain_terminal_cycles
from repro.certainty.terminal_cycles import applies_to
from repro.model import UncertainDatabase
from repro.query import (
    cycle_query_ac,
    cycle_query_c,
    figure2_q1,
    figure4_query,
    fuxman_miller_cfree_example,
    parse_query,
)
from repro.workloads import synthetic_instance

from tests.helpers import random_instance


class TestApplicability:
    def test_applies_to_weak_terminal_queries(self):
        assert applies_to(figure4_query())
        assert applies_to(figure4_query(include_r0=False))
        assert applies_to(cycle_query_c(2))
        assert applies_to(fuxman_miller_cfree_example())

    def test_does_not_apply_to_strong_or_nonterminal(self):
        assert not applies_to(figure2_q1())
        assert not applies_to(cycle_query_ac(3))

    def test_solver_rejects_unsupported(self):
        with pytest.raises(UnsupportedQueryError):
            certain_terminal_cycles(UncertainDatabase(), figure2_q1())

    def test_does_not_apply_to_self_join(self):
        assert not applies_to(parse_query("R(x | y), R(y | x)"))


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "query",
        [cycle_query_c(2), figure4_query(include_r0=False), figure4_query()],
        ids=["C(2)", "fig4-cycles-only", "fig4-with-R0"],
    )
    def test_random_agreement(self, query, rng):
        for seed in range(12):
            db = synthetic_instance(
                query, seed=seed, domain_size=3, witnesses=2, noise_per_relation=2, conflict_rate=0.5
            )
            assert certain_terminal_cycles(db, query) == certain_by_enumeration(db, query)

    def test_uniform_random_agreement_c2(self, rng):
        query = cycle_query_c(2)
        for _ in range(25):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=5)
            assert certain_terminal_cycles(db, query) == certain_by_enumeration(db, query)

    def test_two_disjoint_cycle_pairs(self, rng):
        """A query whose base case has two independent weak cycles."""
        query = parse_query("A(x, u | v), B(x, v | u), E(y, p | q), F(y, q | p)")
        assert applies_to(query)
        for _ in range(15):
            db = random_instance(query, rng, domain_size=2, facts_per_relation=3)
            assert certain_terminal_cycles(db, query) == certain_by_enumeration(db, query)

    def test_empty_database(self):
        assert not certain_terminal_cycles(UncertainDatabase(), figure4_query())

    def test_planted_witness_certain(self):
        query = figure4_query(include_r0=False)
        db = UncertainDatabase()
        values = {"x": "x0", "y": "y0", "z": "z0", "u1": "1", "u2": "2", "u3": "3", "u4": "4", "u5": "5", "u6": "6"}
        for atom in query.atoms:
            db.add(atom.relation.fact(*[values[t.name] for t in atom.terms]))
        assert certain_terminal_cycles(db, query)
        assert certain_by_enumeration(db, query)

    def test_partitioning_separates_vectors(self):
        """Facts with different shared-variable vectors are decided independently."""
        query = parse_query("A(x, u | v), B(x, v | u), E(x, p | q), F(x, q | p)")
        assert applies_to(query)
        schema = query.schema()
        db = UncertainDatabase(
            [
                # Partition x=c1: consistent witness for the A/B cycle and E/F cycle.
                schema["A"].fact("c1", "u1", "v1"),
                schema["B"].fact("c1", "v1", "u1"),
                schema["E"].fact("c1", "p1", "q1"),
                schema["F"].fact("c1", "q1", "p1"),
                # Partition x=c2: broken (no F partner), so it certifies nothing.
                schema["A"].fact("c2", "u2", "v2"),
                schema["B"].fact("c2", "v2", "u2"),
                schema["E"].fact("c2", "p2", "q2"),
            ]
        )
        assert certain_terminal_cycles(db, query) == certain_by_enumeration(db, query)
