"""Tests for repro.model.database and repro.model.schema."""

import tracemalloc

import pytest

from repro.model.atoms import RelationSchema
from repro.model.database import UncertainDatabase
from repro.model.schema import DatabaseSchema
from repro.model.symbols import Constant

from tests.helpers import outputs_under_hash_seeds

R = RelationSchema("R", 2, 1)
S = RelationSchema("S", 3, 2)


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema([R])
        assert schema["R"] is R
        assert "R" in schema and "S" not in schema

    def test_conflicting_signature_rejected(self):
        schema = DatabaseSchema([R])
        with pytest.raises(ValueError):
            schema.add(RelationSchema("R", 3, 1))

    def test_relation_creates_on_demand(self):
        schema = DatabaseSchema()
        created = schema.relation("T", 2, 1)
        assert created.arity == 2 and "T" in schema

    def test_relation_unknown_without_arity(self):
        with pytest.raises(KeyError):
            DatabaseSchema().relation("T")

    def test_from_atoms(self):
        schema = DatabaseSchema.from_atoms([R.atom("x", "y"), S.atom("x", "y", "z")])
        assert set(schema.names()) == {"R", "S"}


class TestUncertainDatabase:
    def test_add_and_contains(self):
        db = UncertainDatabase([R.fact("a", 1)])
        assert R.fact("a", 1) in db and len(db) == 1

    def test_add_is_idempotent(self):
        db = UncertainDatabase()
        db.add(R.fact("a", 1))
        db.add(R.fact("a", 1))
        assert len(db) == 1

    def test_blocks_group_key_equal_facts(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2), R.fact("b", 1)])
        assert db.num_blocks() == 2
        block_sizes = sorted(len(b) for b in db.blocks())
        assert block_sizes == [1, 2]

    def test_consistency(self):
        assert UncertainDatabase([R.fact("a", 1), R.fact("b", 1)]).is_consistent()
        assert not UncertainDatabase([R.fact("a", 1), R.fact("a", 2)]).is_consistent()

    def test_active_domain(self):
        db = UncertainDatabase([R.fact("a", 1)])
        assert db.active_domain() == {Constant("a"), Constant(1)}

    def test_discard_and_remove_block(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        db.discard(R.fact("a", 1))
        assert len(db) == 1
        db.remove_block(("R", (Constant("a"),)))
        assert len(db) == 0

    def test_restrict_to_relations(self):
        db = UncertainDatabase([R.fact("a", 1), S.fact("a", "b", 1)])
        restricted = db.restrict_to_relations(["S"])
        assert len(restricted) == 1 and S.fact("a", "b", 1) in restricted

    def test_copy_is_independent(self):
        db = UncertainDatabase([R.fact("a", 1)])
        clone = db.copy()
        clone.add(R.fact("b", 2))
        assert len(db) == 1 and len(clone) == 2

    def test_union(self):
        first = UncertainDatabase([R.fact("a", 1)])
        second = UncertainDatabase([R.fact("b", 2)])
        assert len(first.union(second)) == 2

    def test_equality_is_by_facts(self):
        assert UncertainDatabase([R.fact("a", 1)]) == UncertainDatabase([R.fact("a", 1)])

    def test_schema_collects_relations(self):
        db = UncertainDatabase([R.fact("a", 1), S.fact("a", "b", 1)])
        assert set(db.schema.names()) == {"R", "S"}

    def test_pretty_renders_blocks(self):
        db = UncertainDatabase([R.fact("a", 1), R.fact("a", 2)])
        rendered = db.pretty()
        assert "R:" in rendered and "|" in rendered

    def test_rejects_non_fact(self):
        db = UncertainDatabase()
        with pytest.raises(TypeError):
            db.add(R.atom("x", "y"))


class TestMutationVersion:
    def test_ineffective_add_or_discard_keeps_the_version(self):
        db = UncertainDatabase([R.fact("a", 1)])
        version = db.mutation_version
        db.add(R.fact("a", 1))  # already present
        db.discard(R.fact("z", 9))  # absent
        assert db.mutation_version == version

    def test_empty_batch_keeps_the_version(self):
        db = UncertainDatabase([R.fact("a", 1)])
        version = db.mutation_version
        with db.batch():
            pass
        assert db.mutation_version == version

    def test_each_non_empty_batch_bumps_it_once(self):
        db = UncertainDatabase([R.fact("a", 1)])
        version = db.mutation_version
        for fresh in ("b", "c"):
            with db.batch():
                db.add(R.fact(fresh, 1))
                db.add(R.fact(fresh, 2))
                db.discard(R.fact("a", 1))
            version += 1
            assert db.mutation_version == version


class TestDerivedBlocks:
    """Blocks are grouped from the fact set on demand, in the order of each
    block's first surviving fact, never in hash order."""

    FACTS = [R.fact("b", 1), S.fact("a", "b", 1), R.fact("a", 1), R.fact("b", 2)]
    KEY_B = ("R", (Constant("b"),))
    KEY_S = ("S", (Constant("a"), Constant("b")))
    KEY_A = ("R", (Constant("a"),))

    def test_blocks_come_out_in_first_insertion_order(self):
        db = UncertainDatabase(self.FACTS)
        assert db.block_keys() == [self.KEY_B, self.KEY_S, self.KEY_A]
        assert db.blocks() == [
            {R.fact("b", 1), R.fact("b", 2)},
            {S.fact("a", "b", 1)},
            {R.fact("a", 1)},
        ]
        assert db.block(self.KEY_B) == {R.fact("b", 1), R.fact("b", 2)}
        assert db.num_blocks() == 3 and not db.is_consistent()

    def test_discarding_a_blocks_first_fact_moves_the_block(self):
        db = UncertainDatabase(self.FACTS)
        db.discard(R.fact("b", 1))
        assert db.block_keys() == [self.KEY_S, self.KEY_A, self.KEY_B]
        assert db.blocks()[-1] == {R.fact("b", 2)}
        assert db.is_consistent()
        db.remove_block(self.KEY_S)
        assert db.block_keys() == [self.KEY_A, self.KEY_B]
        assert db.block(self.KEY_S) == frozenset()

    def test_random_repair_is_the_same_under_other_hash_seeds(self):
        """A copied database keeps its facts' order, so a seeded repair
        draws the same choice per block in every interpreter."""
        probe = (
            "import random\n"
            "from repro.model.atoms import RelationSchema\n"
            "from repro.model.database import UncertainDatabase\n"
            "from repro.model.repairs import random_repair\n"
            "R = RelationSchema('R', 2, 1)\n"
            "db = UncertainDatabase(R.fact(f'k{i % 40}', f'v{i}') for i in range(160))\n"
            "print(sorted(map(str, random_repair(db.copy(), random.Random(7)))))\n"
        )
        assert len(outputs_under_hash_seeds(probe)) == 1

    def test_fact_set_costs_at_most_100_bytes_per_fact(self):
        """The database holds one container; blocks cost nothing at rest."""
        facts = [R.fact(f"k{i // 3}", i) for i in range(6_000)]
        facts += [S.fact(f"a{i}", f"b{i}", i) for i in range(6_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db = UncertainDatabase(facts)
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(db) == 12_000 and db.num_blocks() == 8_000
        assert cost / len(db) <= 100
