"""Tests for the brute-force oracle solver."""


from repro.certainty import (
    brute_force_with_certificate,
    certain_brute_force,
    certain_by_enumeration,
)
from repro.engine import CertaintySession
from repro.model import Fact, RelationSchema, UncertainDatabase
from repro.model.repairs import is_repair
from repro.query import ConjunctiveQuery, parse_query, satisfies
from repro.query.families import figure2_q1
from repro.workloads import figure1_database, figure1_query

from tests.helpers import constructions, outputs_under_hash_seeds, random_instance

R = RelationSchema("R", 2, 1)
S = RelationSchema("S", 2, 1)


class TestBruteForce:
    def test_figure1_not_certain(self):
        assert not certain_brute_force(figure1_database(), figure1_query())

    def test_empty_query_always_certain(self):
        assert certain_brute_force(UncertainDatabase(), ConjunctiveQuery([]))
        assert certain_brute_force(UncertainDatabase([R.fact("a", 1)]), ConjunctiveQuery([]))

    def test_empty_database_not_certain_for_nonempty_query(self):
        q = parse_query("R(x | y)")
        assert not certain_brute_force(UncertainDatabase(), q)

    def test_consistent_database_certain_iff_satisfied(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b"), schema["S"].fact("b", "a")])
        assert certain_brute_force(db, q)
        db_miss = UncertainDatabase([schema["R"].fact("a", "b"), schema["S"].fact("b", "z")])
        assert not certain_brute_force(db_miss, q)

    def test_conflicting_witness_blocks_not_certain(self):
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R"].fact("a", "b"),
                schema["R"].fact("a", "zzz"),
                schema["S"].fact("b", "a"),
            ]
        )
        assert not certain_brute_force(db, q)

    def test_two_disjoint_witnesses_cover_all_repairs(self):
        """Each repair keeps one of the R-facts, but both S partners are present."""
        q = parse_query("R(x | y), S(y | x)")
        schema = q.schema()
        db = UncertainDatabase(
            [
                schema["R"].fact("a", "b1"),
                schema["R"].fact("a", "b2"),
                schema["S"].fact("b1", "a"),
                schema["S"].fact("b2", "a"),
            ]
        )
        assert certain_brute_force(db, q)

    def test_certificate_is_a_falsifying_repair(self):
        db = figure1_database()
        q = figure1_query()
        result = brute_force_with_certificate(db, q)
        assert not result.certain
        assert result.falsifying_repair is not None
        assert is_repair(db, result.falsifying_repair)
        assert not satisfies(result.falsifying_repair, q)

    def test_certificate_absent_when_certain(self):
        q = parse_query("R(x | y)")
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b")])
        result = brute_force_with_certificate(db, q)
        assert result.certain and result.falsifying_repair is None

    def test_agrees_with_plain_enumeration(self, rng):
        q = parse_query("A(x | y), B(y | x)")
        for _ in range(20):
            db = random_instance(q, rng, domain_size=3, facts_per_relation=4)
            assert certain_brute_force(db, q) == certain_by_enumeration(db, q)

    def test_agrees_with_plain_enumeration_three_atoms(self, rng):
        q = parse_query("A(x | y), B(y | z), D(z | x, w)")
        for _ in range(10):
            db = random_instance(q, rng, domain_size=2, facts_per_relation=3)
            assert certain_brute_force(db, q) == certain_by_enumeration(db, q)

    def test_bool_protocol(self):
        q = parse_query("R(x | y)")
        schema = q.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b")])
        assert bool(brute_force_with_certificate(db, q))

    def test_not_certain_decide_constructs_no_fact(self):
        """Only a certificate decodes id-rows into facts; a verdict does not.

        Conflict gadgets over Figure 2's coNP-complete ``q1``: each plants
        one witness whose ``T`` block holds a second claim, so choosing
        every claim falsifies the query.
        """
        q = figure2_q1()
        r, s, t, p = (atom.relation for atom in q.atoms)
        facts = []
        for i in range(32):
            u, x, y, z, w = (f"{prefix}{i}" for prefix in "uxyzw")
            facts += [r.fact(u, "a", x), s.fact(y, x, z), t.fact(x, y), p.fact(x, z)]
            facts.append(t.fact(x, w))  # the conflicting claim
        db = UncertainDatabase(facts)
        with CertaintySession(db, allow_exponential=True) as session:
            with constructions(Fact) as built:
                outcome = session.solve(q)
        assert outcome.method == "brute-force" and not outcome.certain
        assert built["Fact"] == 0
        with constructions(Fact) as built:
            result = brute_force_with_certificate(db, q)
        assert built["Fact"] > 0
        assert is_repair(db, result.falsifying_repair)
        assert not satisfies(result.falsifying_repair, q)

    def test_certificates_are_the_same_under_other_hash_seeds(self):
        """A scratch store ingests the database in insertion order, so the
        repair search branches alike, and certifies alike, in every
        interpreter."""
        probe = (
            "import hashlib, random\n"
            "from repro.certainty import brute_force_with_certificate\n"
            "from repro.model import UncertainDatabase\n"
            "from repro.query import parse_query\n"
            "query = parse_query('R(x | y), S(y | x)')\n"
            "rng = random.Random(3)\n"
            "domain = [f'c{i}' for i in range(4)]\n"
            "digest, refuted = hashlib.sha256(), 0\n"
            "for _ in range(30):\n"
            "    db = UncertainDatabase()\n"
            "    for atom in query.atoms:\n"
            "        for _ in range(6):\n"
            "            db.add(atom.relation.fact(rng.choice(domain), rng.choice(domain)))\n"
            "    result = brute_force_with_certificate(db, query)\n"
            "    refuted += not result.certain\n"
            "    repair = sorted(map(str, result.falsifying_repair or ()))\n"
            "    digest.update(repr(repair).encode())\n"
            "print(refuted, digest.hexdigest())\n"
        )
        (output,) = outputs_under_hash_seeds(probe)
        assert output.split()[0] == "22"  # most instances carry a certificate
