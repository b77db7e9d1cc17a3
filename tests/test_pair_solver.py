"""Tests for the two-atom solver (Kolaitis–Pema coverage).

The oracle is repair enumeration (:func:`certain_by_enumeration`), the
paper's definition of certainty.
"""

import pytest

from repro.certainty import (
    IntractableQueryError,
    UnsupportedQueryError,
    certain_by_enumeration,
    certain_cycle_query,
    certain_terminal_cycles,
    certain_two_atom,
    certain_weak_cycle_pair,
    is_two_atom_query,
)
from repro.model import UncertainDatabase
from repro.query import cycle_query_c, figure2_q1, fuxman_miller_cfree_example, kolaitis_pema_q0, parse_query

from tests.helpers import random_instance

WEAK_CYCLE_PAIRS = [
    cycle_query_c(2),
    parse_query("R(x | y), S(y | x)"),
    parse_query("R(x | y, u), S(y | x, v)"),
    parse_query("R(x | y, z), S(y | x, z)"),
    parse_query("R(x, y | z), S(x, z | y)"),
    parse_query("R(x | y, y), S(y | x)"),
]


class TestDispatch:
    def test_is_two_atom_query(self):
        assert is_two_atom_query(cycle_query_c(2))
        assert not is_two_atom_query(figure2_q1())
        assert not is_two_atom_query(parse_query("R(x | y), R(y | z)"))

    def test_rejects_wrong_atom_count(self):
        with pytest.raises(UnsupportedQueryError):
            certain_two_atom(UncertainDatabase(), figure2_q1())

    def test_strong_cycle_raises_intractable(self):
        with pytest.raises(IntractableQueryError):
            certain_two_atom(UncertainDatabase(), kolaitis_pema_q0())

    def test_acyclic_pair_uses_fo_path(self, rng):
        q = fuxman_miller_cfree_example()
        for _ in range(10):
            db = random_instance(q, rng)
            assert certain_two_atom(db, q) == certain_by_enumeration(db, q)

    def test_weak_cycle_pair_rejects_bad_shape(self):
        with pytest.raises(UnsupportedQueryError):
            certain_weak_cycle_pair(UncertainDatabase(), kolaitis_pema_q0())


class TestWeakCyclePairs:
    @pytest.mark.parametrize("query", WEAK_CYCLE_PAIRS, ids=lambda q: str(q)[:40])
    def test_agreement_with_oracle(self, query, rng):
        for _ in range(25):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=5)
            assert certain_two_atom(db, query) == certain_by_enumeration(db, query)

    @pytest.mark.parametrize("query", WEAK_CYCLE_PAIRS[:3], ids=lambda q: str(q)[:40])
    def test_agreement_with_oracle_larger_domain(self, query, rng):
        for _ in range(10):
            db = random_instance(query, rng, domain_size=4, facts_per_relation=7)
            assert certain_two_atom(db, query) == certain_by_enumeration(db, query)

    def test_empty_database_not_certain(self):
        assert not certain_two_atom(UncertainDatabase(), cycle_query_c(2))

    def test_single_mutual_witness_certain(self):
        q = cycle_query_c(2)
        schema = q.schema()
        db = UncertainDatabase([schema["R1"].fact("a", "b"), schema["R2"].fact("b", "a")])
        assert certain_two_atom(db, q)

    def test_conflicting_block_with_two_witnesses_is_certain(self):
        """Both choices of the conflicted R1-block complete a witness pair."""
        q = cycle_query_c(2)
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R1"].fact("a", "b"),
                schema["R1"].fact("a", "b2"),
                schema["R2"].fact("b", "a"),
                schema["R2"].fact("b2", "a"),
            ]
        )
        assert certain_two_atom(db, q)
        assert certain_by_enumeration(db, q)

    def test_long_cycle_lets_the_falsifier_escape(self):
        """The complete bipartite 2×2 instance admits a falsifying repair that
        marks the 4-cycle a → b' → a' → b → a (Theorem 4's "Case 2" for k=2)."""
        q = cycle_query_c(2)
        schema = q.schema()
        facts = []
        for source in ("a", "a2"):
            for target in ("b", "b2"):
                facts.append(schema["R1"].fact(source, target))
                facts.append(schema["R2"].fact(target, source))
        db = UncertainDatabase(facts)
        assert not certain_two_atom(db, q)
        assert not certain_by_enumeration(db, q)

    def test_forced_component_is_certain(self):
        """A component whose only cycles are witness 2-cycles forces the query."""
        q = cycle_query_c(2)
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R1"].fact("a", "b"),
                schema["R2"].fact("b", "a"),
                schema["R1"].fact("a2", "b2"),
                schema["R1"].fact("a2", "b3"),
                schema["R2"].fact("b2", "a2"),
                schema["R2"].fact("b3", "a2"),
            ]
        )
        assert certain_two_atom(db, q)
        assert certain_by_enumeration(db, q)

    def test_extra_shared_variable_blocks_join(self):
        """Anti-parallel facts that disagree on a shared non-key variable do not join."""
        q = parse_query("R(x | y, z), S(y | x, z)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b", 1), schema["S"].fact("b", "a", 2)]
        )
        # The two facts do not agree on z, hence there is no witness at all and
        # after purification the database is empty.
        assert not certain_two_atom(db, q)
        assert not certain_by_enumeration(db, q)

    def test_mismatched_labels_let_the_falsifier_escape(self):
        """An anti-parallel pair of blocks whose facts carry labels 1 and 2:
        the repair picking ``R(a | b, 1)`` and ``S(b | a, 2)`` completes no
        join pair, so this non-witness 2-cycle falsifies the query."""
        q = parse_query("R(x | y, z), S(y | x, z)")
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R"].fact("a", "b", 1),
                schema["R"].fact("a", "b", 2),
                schema["S"].fact("b", "a", 1),
                schema["S"].fact("b", "a", 2),
            ]
        )
        assert not certain_by_enumeration(db, q)
        assert not certain_two_atom(db, q)
        assert not certain_terminal_cycles(db, q)

    def test_extra_shared_variable_with_agreement(self):
        q = parse_query("R(x | y, z), S(y | x, z)")
        schema = q.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b", 1), schema["S"].fact("b", "a", 1)]
        )
        assert certain_two_atom(db, q)


class TestSharedMarking:
    def test_c2_block_and_fact_graphs_agree(self, rng):
        """``C(2)`` is both a weak pair and a Theorem 4 query: the pair
        solver's block digraph and Theorem 4's fact graph reach the same
        marking routine through different graph builders."""
        q = cycle_query_c(2)
        verdicts = set()
        for _ in range(40):
            db = random_instance(q, rng, domain_size=3, facts_per_relation=5)
            expected = certain_by_enumeration(db, q)
            assert certain_two_atom(db, q) == expected
            assert certain_cycle_query(db, q) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}  # non-vacuous both ways
