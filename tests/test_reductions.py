"""Tests for the Theorem 2 reduction machinery."""

import pytest

from repro.certainty import (
    Theorem2Reduction,
    UnsupportedQueryError,
    certain_by_enumeration,
    purify,
    theorem2_reduction,
)
from repro.model import Constant, UncertainDatabase
from repro.query import figure2_q1, fuxman_miller_cfree_example, kolaitis_pema_q0, parse_query

from tests.helpers import random_instance


class TestConstruction:
    def test_requires_strong_cycle(self):
        with pytest.raises(UnsupportedQueryError):
            Theorem2Reduction(fuxman_miller_cfree_example())

    def test_requires_self_join_free(self):
        with pytest.raises(UnsupportedQueryError):
            Theorem2Reduction(parse_query("R(x | y), R(y | x)"))

    def test_strong_pair_identified_for_q1(self):
        reduction = Theorem2Reduction(figure2_q1())
        assert reduction.attacker.name == "S" and reduction.attacked.name == "R"

    def test_hat_valuation_covers_all_variables(self):
        reduction = Theorem2Reduction(figure2_q1())
        valuation = reduction.hat_valuation(Constant(1), Constant(2), Constant(3))
        assert valuation.domain() == reduction.query.variables

    def test_hat_value_regions(self):
        """Spot-check the six Venn regions for q1.

        The strong attack of q1 is S ⤳ R, so in the paper's notation F = S
        (the attacker) and G = R (the attacked atom): F+ = {y}, G+ = {u},
        F⊞ = {x, y, z}.  Hence ``u ∈ G+ \\ F⊞ ↦ ⟨y, z⟩``, ``y ∈ F+ \\ G+ ↦ x``,
        and ``x, z ∈ F⊞ \\ (F+ ∪ G+) ↦ ⟨x, y⟩``.
        """
        reduction = Theorem2Reduction(figure2_q1())
        x, y, z = Constant("X"), Constant("Y"), Constant("Z")
        hat = {v.name: reduction.hat_value(v, x, y, z) for v in reduction.query.variables}
        assert hat["u"] == Constant(("Y", "Z"))
        assert hat["y"] == x
        assert hat["x"] == Constant(("X", "Y"))
        assert hat["z"] == Constant(("X", "Y"))


class TestReductionCorrectness:
    def test_preserves_certainty_on_random_instances(self, rng):
        q0 = kolaitis_pema_q0()
        target = figure2_q1()
        reduction = Theorem2Reduction(target)
        for _ in range(12):
            db0 = random_instance(q0, rng, domain_size=3, facts_per_relation=4)
            transformed = reduction.transform(db0)
            source = certain_by_enumeration(purify(db0, q0), q0)
            image = certain_by_enumeration(transformed, target)
            assert source == image

    def test_preserves_certainty_on_other_strong_cycle_query(self, rng):
        q0 = kolaitis_pema_q0()
        target = kolaitis_pema_q0()  # q0 itself has a strong cycle
        for _ in range(8):
            db0 = random_instance(q0, rng, domain_size=3, facts_per_relation=4)
            transformed = theorem2_reduction(target, db0)
            assert certain_by_enumeration(purify(db0, q0), q0) == certain_by_enumeration(transformed, target)

    def test_output_size_polynomial(self, rng):
        target = figure2_q1()
        q0 = kolaitis_pema_q0()
        for _ in range(5):
            db0 = random_instance(q0, rng, domain_size=3, facts_per_relation=5)
            transformed = theorem2_reduction(target, db0)
            # At most one fact per (atom, witness valuation) pair.
            assert len(transformed) <= len(target) * (len(db0) ** 2)

    def test_empty_source_maps_to_empty_target(self):
        transformed = theorem2_reduction(figure2_q1(), UncertainDatabase())
        assert len(transformed) == 0
