"""Tests for repro.model.atoms: relation schemas, atoms, facts, key-equality."""

import pytest

from repro.model.atoms import Atom, Fact, RelationSchema, atoms_use_distinct_relations
from repro.model.symbols import Constant, Variable


@pytest.fixture
def schema_r():
    return RelationSchema("R", 3, 2)


class TestRelationSchema:
    def test_signature_accessors(self, schema_r):
        assert schema_r.arity == 3 and schema_r.key_size == 2
        assert list(schema_r.key_positions) == [0, 1]
        assert list(schema_r.nonkey_positions) == [2]

    def test_all_key(self):
        assert RelationSchema("S", 2, 2).is_all_key
        assert not RelationSchema("S", 3, 2).is_all_key

    def test_invalid_signatures_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema("R", 2, 3)
        with pytest.raises(ValueError):
            RelationSchema("R", 2, 0)
        with pytest.raises(ValueError):
            RelationSchema("", 2, 1)

    def test_equality_and_hash(self):
        assert RelationSchema("R", 2, 1) == RelationSchema("R", 2, 1)
        assert RelationSchema("R", 2, 1) != RelationSchema("R", 2, 2)
        assert len({RelationSchema("R", 2, 1), RelationSchema("R", 2, 1)}) == 1

    def test_atom_builder_coerces_terms(self, schema_r):
        atom = schema_r.atom("x", 5, "y")
        assert atom.key_variables == {Variable("x")}
        assert Constant(5) in atom.constants

    def test_fact_builder(self, schema_r):
        fact = schema_r.fact("a", "b", 1)
        assert isinstance(fact, Fact)
        assert fact.values == ("a", "b", 1)


class TestAtom:
    def test_key_and_vars(self, schema_r):
        atom = schema_r.atom("x", "y", "z")
        assert atom.key_variables == {Variable("x"), Variable("y")}
        assert atom.variables == {Variable("x"), Variable("y"), Variable("z")}

    def test_arity_mismatch_rejected(self, schema_r):
        with pytest.raises(ValueError):
            Atom(schema_r, (Variable("x"), Variable("y")))

    def test_is_fact_property(self, schema_r):
        assert not schema_r.atom("x", "y", "z").is_fact
        assert schema_r.atom(1, 2, 3).is_fact

    def test_to_fact_requires_ground(self, schema_r):
        with pytest.raises(ValueError):
            schema_r.atom("x", 1, 2).to_fact()
        assert isinstance(schema_r.atom(1, 2, 3).to_fact(), Fact)

    def test_str_shows_key_separator(self, schema_r):
        assert str(schema_r.atom("x", "y", "z")) == "R(x, y | z)"

    def test_equality_ignores_fact_subclass(self, schema_r):
        assert schema_r.atom(1, 2, 3) == schema_r.fact(1, 2, 3)

    def test_rename_relation_same_signature(self, schema_r):
        other = RelationSchema("R2", 3, 2)
        renamed = schema_r.atom("x", "y", "z").rename_relation(other)
        assert renamed.name == "R2"

    def test_rename_relation_signature_mismatch(self, schema_r):
        with pytest.raises(ValueError):
            schema_r.atom("x", "y", "z").rename_relation(RelationSchema("R2", 4, 2))


class TestFact:
    def test_key_equal_same_block(self, schema_r):
        first = schema_r.fact("a", "b", 1)
        second = schema_r.fact("a", "b", 2)
        assert first.key_equal(second)
        assert first.block_key == second.block_key

    def test_key_equal_different_keys(self, schema_r):
        assert not schema_r.fact("a", "b", 1).key_equal(schema_r.fact("a", "c", 1))

    def test_key_equal_different_relations(self):
        r = RelationSchema("R", 2, 1)
        s = RelationSchema("S", 2, 1)
        assert not r.fact("a", 1).key_equal(s.fact("a", 1))

    def test_fact_rejects_variables(self, schema_r):
        with pytest.raises(ValueError):
            Fact(schema_r, (Variable("x"), Constant(1), Constant(2)))


class TestSelfJoinDetection:
    def test_distinct_relations(self):
        r = RelationSchema("R", 2, 1)
        s = RelationSchema("S", 2, 1)
        assert atoms_use_distinct_relations([r.atom("x", "y"), s.atom("y", "z")])

    def test_repeated_relation(self):
        r = RelationSchema("R", 2, 1)
        assert not atoms_use_distinct_relations([r.atom("x", "y"), r.atom("y", "z")])


class TestPickling:
    """Atoms must survive process boundaries with the hash/eq contract intact.

    The shard runtime ships queries to worker processes whose string-hash
    salt (PYTHONHASHSEED) differs from the parent's.  A pickled atom must
    therefore NOT carry its origin process's cached hash: it would compare
    equal to a locally built atom yet miss it in sets and dicts — which
    silently corrupted purification (and thus certainty verdicts) in
    workers before the `__getstate__`/`__setstate__` pair recomputed it.
    """

    def test_roundtrip_preserves_identity_in_this_process(self):
        import pickle

        R = RelationSchema("R", 2, 1)
        fact = R.fact("a", "b")
        atom = R.atom(Variable("x"), "b")
        fact2, atom2 = pickle.loads(pickle.dumps((fact, atom)))
        assert fact2 == fact and hash(fact2) == hash(fact)
        assert atom2 == atom and hash(atom2) == hash(atom)
        assert fact2 in {fact} and atom2 in {atom}
        assert isinstance(fact2, Fact)

    def test_cached_hash_is_not_pickled(self):
        R = RelationSchema("R", 2, 1)
        fact = R.fact("a", "b")
        assert fact.__getstate__() == (fact.relation, fact.terms)

    def test_unpickled_atoms_match_fresh_atoms_under_other_hash_seeds(self):
        """Set membership must hold in a worker with a different hash salt."""
        import os
        import pickle
        import subprocess
        import sys

        R = RelationSchema("R", 2, 1)
        blob = pickle.dumps((R.fact("a", "b"), R.atom(Variable("x"), "b")))
        probe = (
            "import pickle, sys\n"
            f"sys.path.insert(0, {os.path.abspath('src')!r})\n"
            "from repro.model.atoms import RelationSchema\n"
            "from repro.model.symbols import Variable\n"
            f"fact, atom = pickle.loads({blob!r})\n"
            "R = RelationSchema('R', 2, 1)\n"
            "assert fact in {R.fact('a', 'b')}\n"
            "assert atom in {R.atom(Variable('x'), 'b')}\n"
            "assert hash(fact) == hash(R.fact('a', 'b'))\n"
        )
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
