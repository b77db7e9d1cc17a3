"""Tests for the interned columnar fact store (``repro.store``).

The central contract is the paper's definition: whatever the columnar
execution does — interned term ids, integer-row kernels, block-id read
sets, batched set-at-a-time deciding — a tuple is a certain answer iff
every repair of the database satisfies its grounding.  The differentials
below check every band against repair enumeration
(:func:`~repro.certainty.certain_by_enumeration`) on small
Hypothesis-drawn instances, and the compiled plans against the naive
:class:`~repro.fo.FormulaEvaluator`.  On top of that: intern-table
invariants (dense ids, append-only stability, hash-salt-safe
serialization) and store integrity under deletion.
"""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CertaintySession, UncertainDatabase, parse_facts, parse_query
from repro.attacks import AttackGraph
from repro.certainty import certain_by_enumeration, cycle_query, terminal_cycles
from repro.fo.compile import EvalContext
from repro.model.atoms import Fact, RelationSchema
from repro.model.symbols import Constant, Variable
from repro.query import ConjunctiveQuery, figure2_q1, figure4_query
from repro.query.evaluation import FactIndex, answer_tuples, satisfies
from repro.query.families import cycle_query_c, path_query
from repro.query.substitution import ground_free_variables
from repro.store import (
    ColumnarFactIndex,
    ColumnarFactStore,
    InternTable,
    global_intern_table,
    used_rows,
)
from repro.workloads import mutation_stream, apply_mutation, synthetic_instance
from tests.helpers import constructions, open_variant, random_instance


# --------------------------------------------------------------------------------
# Intern table
# --------------------------------------------------------------------------------


class TestInternTable:
    def test_dense_ids_in_first_intern_order(self):
        table = InternTable()
        a, b, c = Constant("a"), Constant("b"), Constant(3)
        assert [table.intern(x) for x in (a, b, c)] == [0, 1, 2]
        assert table.intern(b) == 1  # idempotent, never reassigned
        assert len(table) == 3

    def test_decode_round_trip(self):
        table = InternTable()
        constants = (Constant("x"), Constant(7), Constant(("p", 2)))
        ids = table.intern_many(constants)
        assert table.decode(ids) == constants
        assert table.constant(ids[1]) == Constant(7)

    def test_id_of_does_not_intern(self):
        table = InternTable()
        assert table.id_of(Constant("nope")) is None
        assert len(table) == 0

    def test_snapshot_and_pickle_preserve_ids(self):
        table = InternTable()
        ids = table.intern_many((Constant("a"), Constant(5), Constant(("t", 1))))
        rebuilt = InternTable.from_snapshot(table.snapshot())
        assert rebuilt.decode(ids) == table.decode(ids)
        pickled = pickle.loads(pickle.dumps(table))
        assert pickled.decode(ids) == table.decode(ids)
        assert pickled.intern(Constant("a")) == table.intern(Constant("a"))

    def test_global_table_is_shared(self):
        assert global_intern_table() is global_intern_table()
        cid = global_intern_table().intern(Constant("shared-sentinel"))
        assert global_intern_table().id_of(Constant("shared-sentinel")) == cid

    def test_memory_stats_shape(self):
        table = InternTable()
        table.intern(Constant("a"))
        stats = table.memory_stats()
        assert stats["constants"] == 1
        assert stats["total_bytes"] > 0

    def test_unpickled_tables_intern_identically_under_other_hash_seeds(self):
        """Mirrors the Atom hash-salt test: shipped tables must agree with
        locally interned constants in a worker whose PYTHONHASHSEED differs."""
        table = InternTable()
        ids = table.intern_many((Constant("a"), Constant("b"), Constant(17)))
        blob = pickle.dumps(table)
        probe = (
            "import pickle, sys\n"
            f"sys.path.insert(0, {os.path.abspath('src')!r})\n"
            "from repro.model.symbols import Constant\n"
            f"table = pickle.loads({blob!r})\n"
            f"assert table.intern(Constant('a')) == {ids[0]}\n"
            f"assert table.intern(Constant('b')) == {ids[1]}\n"
            f"assert table.intern(Constant(17)) == {ids[2]}\n"
            "assert table.decode((0, 1, 2)) == "
            "(Constant('a'), Constant('b'), Constant(17))\n"
            "assert table.intern(Constant('fresh')) == 3\n"
        )
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr


# --------------------------------------------------------------------------------
# Columnar store
# --------------------------------------------------------------------------------


def _schema_r():
    return RelationSchema("R", 3, 1)


class TestColumnarFactStore:
    def test_add_discard_membership(self):
        R = _schema_r()
        store = ColumnarFactStore(table=InternTable())
        f1, f2 = R.fact("a", "b", "c"), R.fact("a", "x", "y")
        assert store.add_fact(f1) is not None
        assert store.add_fact(f1) is None  # idempotent
        store.add_fact(f2)
        assert len(store) == 2
        assert store.contains_fact(f1) and store.contains_fact(f2)
        assert not store.contains_fact(R.fact("z", "z", "z"))
        store.discard_fact(f1)
        assert not store.contains_fact(f1) and store.contains_fact(f2)
        assert len(store) == 1

    def test_row_index_and_block_slices_agree_under_deletes(self):
        R = _schema_r()
        store = ColumnarFactStore(table=InternTable())
        facts = [R.fact(f"k{i}", f"v{i}", f"w{i}") for i in range(8)]
        for fact in facts:
            store.add_fact(fact)
        rng = random.Random(3)
        rng.shuffle(facts)
        for fact in facts[:5]:
            store.discard_fact(fact)
        relation = store.relation_columns("R")
        # The row index and the block slices must hold the same rows.
        sliced = [row for block in relation.blocks.values() for row in block]
        assert sorted(sliced) == sorted(relation.row_index)
        assert all(block for block in relation.blocks.values())
        for key, block in relation.blocks.items():
            assert all(row[: R.key_size] == key for row in block)
        assert len(store) == len(relation.row_index) == 3
        remaining = {tuple(store.decode_row(r)) for r in store.relation_rows("R")}
        assert remaining == {f.terms for f in facts[5:]}

    def test_block_slices(self):
        R = _schema_r()
        store = ColumnarFactStore(table=InternTable())
        a1, a2, b1 = R.fact("a", "1", "x"), R.fact("a", "2", "y"), R.fact("b", "1", "x")
        for fact in (a1, a2, b1):
            store.add_fact(fact)
        key_a = (store.table.id_of(Constant("a")),)
        assert {store.decode_row(r) for r in store.block_rows("R", key_a)} == {
            a1.terms,
            a2.terms,
        }
        assert store.block_rows("R", (10**6,)) == ()
        assert store.block_rows("S", key_a) == ()

    def test_block_ids_are_stable_across_empty_and_refill(self):
        R = _schema_r()
        store = ColumnarFactStore(table=InternTable())
        fact = R.fact("a", "1", "x")
        store.add_fact(fact)
        bid = store.known_block_id("R", (Constant("a"),))
        assert bid is not None
        assert store.decode_block_key(bid) == ("R", (Constant("a"),))
        store.discard_fact(fact)
        # The id survives the block emptying out and is reused on refill.
        assert store.known_block_id("R", (Constant("a"),)) == bid
        store.add_fact(R.fact("a", "2", "z"))
        assert store.known_block_id("R", (Constant("a"),)) == bid
        assert store.known_block_id("R", (Constant("never-seen"),)) is None

    def test_signature_conflict_rejected(self):
        store = ColumnarFactStore(table=InternTable())
        store.add_fact(RelationSchema("R", 2, 1).fact("a", "b"))
        with pytest.raises(ValueError):
            store.add_fact(RelationSchema("R", 2, 2).fact("a", "b"))

    def test_memory_stats(self):
        R = _schema_r()
        store = ColumnarFactStore(table=InternTable())
        store.add_fact(R.fact("a", "1", "x"))
        stats = store.memory_stats()
        assert stats["facts"] == 1
        assert stats["row_index_bytes"] > 0 and stats["block_index_bytes"] > 0


# --------------------------------------------------------------------------------
# Columnar index: a store kept in step with the database
# --------------------------------------------------------------------------------


class TestColumnarFactIndex:
    def test_store_tracks_database_under_mutation_stream(self):
        """The store holds exactly the database's facts while observing it."""
        query = open_variant(path_query(3), "x1")
        for seed in range(3):
            db = synthetic_instance(query, seed=seed, domain_size=5, witnesses=6)
            columnar = ColumnarFactIndex(db.facts)
            db.register_observer(columnar)
            for batch in mutation_stream(
                query, db, steps=25, seed=seed + 11, domain_size=5
            ):
                for op in batch:
                    apply_mutation(db, op)
            store = columnar.store
            assert len(store) == len(db)
            assert set(store.decode_facts()) == set(db.facts)

    def test_observer_aliases_hit_the_store(self):
        """The observer protocol names reach the store."""
        query, schema, db = _emp_dept()
        index = ColumnarFactIndex(db.facts)
        db.register_observer(index)
        fact = schema["Emp"].fact("eve", "db")
        db.add(fact)
        assert index.store.contains_fact(fact)
        db.discard(fact)
        assert not index.store.contains_fact(fact)

    def test_stores_list_rows_in_database_insertion_order(self):
        """The session store and a one-shot scratch store ingest the
        database itself, not a hashed copy of its facts."""
        R, S = RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)
        facts = [R.fact(f"k{i % 5}", f"v{7 * i % 40}") for i in range(40)]
        facts += [S.fact(f"v{i}", f"k{i % 3}") for i in reversed(range(40))]
        db = UncertainDatabase(facts)
        with CertaintySession(db) as session:
            stores = [session.store, EvalContext.for_database(db).store]
            for store in stores:
                for relation in (R, S):
                    rows = store.relation_rows(relation.name)
                    assert [store.decode_row(row) for row in rows] == [
                        fact.terms for fact in db if fact.relation == relation
                    ]

    def test_no_object_mirror(self):
        """The session index is the store alone, not a FactIndex."""
        assert not issubclass(ColumnarFactIndex, FactIndex)
        query, schema, db = _emp_dept()
        assert not hasattr(ColumnarFactIndex(db.facts), "relation")


def _emp_dept():
    query = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
    schema = query.schema()
    db = UncertainDatabase(
        parse_facts(
            [
                "Emp('ada' | 'db')",
                "Emp('bob' | 'os')",
                "Emp('bob' | 'net')",
                "Dept('db' | 'Mons')",
                "Dept('os' | 'Mons')",
                "Dept('net' | 'Paris')",
            ],
            schema=schema,
        )
    )
    return query, schema, db


# --------------------------------------------------------------------------------
# Differential: columnar execution == the paper's definition
# --------------------------------------------------------------------------------


def band_cases():
    selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
    return [
        pytest.param(open_variant(path_query(3), "x1"), False, id="fo-band"),
        pytest.param(path_query(2), False, id="fo-band-boolean"),
        pytest.param(open_variant(figure4_query(), "x"), False, id="ptime-not-fo"),
        pytest.param(cycle_query_c(3), False, id="theorem4-cycle-c3"),
        pytest.param(open_variant(figure2_q1(), "z"), True, id="conp-band"),
        pytest.param(selfjoin, True, id="self-join-per-grounding"),
    ]


def _oracle_instance(query, seed, witnesses=3, noise=1):
    """Small enough for repair enumeration (at most a few thousand repairs)."""
    return synthetic_instance(
        query,
        seed=seed,
        domain_size=3,
        witnesses=witnesses,
        noise_per_relation=noise,
        conflict_rate=0.5,
    )


def _planted_certain_instance(query):
    """A witness over fresh constants, plus one seed's oracle instance.

    The fresh keys make every block of the planted witness a singleton, so
    its grounding holds in every repair: the instance has a certain answer
    (or is certain, for a Boolean query) whatever the random part holds.
    """
    db = _oracle_instance(query, seed=0)
    for atom in query.atoms:
        db.add(
            atom.relation.fact(
                *[
                    term.value if isinstance(term, Constant) else f"planted_{term.name}"
                    for term in atom.terms
                ]
            )
        )
    return db


def _planted_block_cycle_instance(query):
    """One witness of ``figure4_query()`` whose R5 ⇄ R6 blocks form a 4-cycle.

    Every other block is a singleton.  The R5/R6 facts join pairwise into
    witnesses, but the repair choosing ``R5(y, m1 | n1), R6(y, n1 | m2),
    R5(y, m2 | n2), R6(y, n2 | m1)`` completes no join pair, so the instance
    is purified, reaches the Theorem 3 base case, and is not certain.
    """
    values = {
        "u": "a", "z": "c", "x": "x0", "y": "y0",
        "u1": "p", "u2": "q", "u3": "r", "u4": "s",
    }
    db = UncertainDatabase()
    for atom in query.atoms:
        if not atom.relation.name.endswith(("R5", "R6")):
            db.add(atom.relation.fact(*[values[t.name] for t in atom.terms]))
    r5 = next(a.relation for a in query.atoms if a.relation.name.endswith("R5"))
    r6 = next(a.relation for a in query.atoms if a.relation.name.endswith("R6"))
    for m in ("m1", "m2"):
        for n in ("n1", "n2"):
            db.add(r5.fact("y0", m, n))
            db.add(r6.fact("y0", n, m))
    return db


def _renamed_relations(query, prefix):
    """*query* over relations named *prefix* + their name (fresh to the process)."""
    return ConjunctiveQuery(
        [
            RelationSchema(prefix + a.relation.name, a.relation.arity, a.relation.key_size)
            .atom(*a.terms)
            for a in query.atoms
        ]
    )


def _planted_falsifiable_ring(query):
    """Every ring edge between two constants per variable of ``C(k)``.

    Each vertex has two outgoing edges and every edge lies on a k-cycle, so
    the instance is purified and forms one component.  A repair whose picks
    compose to a fixed-point-free map walks a 2k-cycle and completes no
    k-cycle, so the instance is not certain.
    """
    db = UncertainDatabase()
    for atom in query.atoms:
        source, target = atom.terms
        for i in range(2):
            for j in range(2):
                db.add(atom.relation.fact(f"{source.name}_{i}", f"{target.name}_{j}"))
    return db


def _verdicts_against_enumeration(query, allow, db):
    """Decide *query* on a session and check every verdict by enumeration.

    Returns the set of verdicts seen (one per candidate grounding).
    """
    with CertaintySession(db, allow_exponential=allow) as session:
        if query.is_boolean:
            verdict = session.is_certain(query)
            assert verdict == certain_by_enumeration(db, query)
            return {verdict}
        candidates = session.candidate_answers(query)
        # Candidates are the answers over the whole database.
        assert set(candidates) == answer_tuples(query, FactIndex(db.facts))
        certain = session.certain_answers(query)
    verdicts = set()
    for candidate in candidates:
        grounded = ground_free_variables(query, [c.value for c in candidate])
        expected = certain_by_enumeration(db, grounded)
        assert (candidate in certain) == expected, candidate
        verdicts.add(expected)
    return verdicts


def candidate_cases():
    return [
        pytest.param(
            parse_query("R(x | y, 'c0'), S(y | x, x)", free=["x"]), id="constants-repeats"
        ),
        pytest.param(parse_query("R(x | y), R(y | z)", free=["x", "z"]), id="self-join"),
        pytest.param(open_variant(cycle_query_c(3), "x1"), id="c3"),
        pytest.param(parse_query("R(x, y), S(y, z), T(z, x)", free=["x", "y"]), id="triangle"),
        pytest.param(parse_query("R(x | y), S(y | z)", free=["x", "z"]), id="free-in-two-atoms"),
        pytest.param(parse_query("R(x | y), S(y | x)"), id="boolean"),
    ]


_CONSTANTS = st.sampled_from(["c0", "c1", "c2"])
#: Facts as (relation number, values): the number picks one of the query's
#: relations (modulo their count) and the values are cut to its arity.
_DRAWN_FACTS = st.lists(
    st.tuples(st.integers(0, 2), st.tuples(_CONSTANTS, _CONSTANTS, _CONSTANTS)),
    max_size=8,
)


#: Pairwise consistent on a triangle of binary relations, yet no triangle:
#: the first and third relations are the identity on {c0, c1}, the second
#: swaps.  Random draws at these sizes almost never hit it.
_TRIANGLE_WITHOUT_WITNESS = [
    (0, ("c0", "c0", "c0")),
    (0, ("c1", "c1", "c1")),
    (1, ("c0", "c1", "c1")),
    (1, ("c1", "c0", "c0")),
    (2, ("c0", "c0", "c0")),
    (2, ("c1", "c1", "c1")),
]


def _drawn_facts(query, drawn):
    relations = sorted({atom.relation.name: atom.relation for atom in query.atoms}.items())
    facts = []
    for number, values in drawn:
        relation = relations[number % len(relations)][1]
        facts.append(relation.fact(*values[: relation.arity]))
    return facts


def _candidates_against_definition(session, db, query):
    """Check the session's candidates and verdicts; return the candidates."""
    candidates = session.candidate_answers(query)
    if query.is_boolean:
        assert candidates == ([()] if satisfies(db, query) else [])
        assert session.is_certain(query) == certain_by_enumeration(db, query)
        return candidates
    expected = answer_tuples(query, db)
    assert candidates == sorted(expected, key=lambda t: tuple(map(str, t)))
    certain = session.certain_answers(query)
    for candidate in candidates:
        grounded = ground_free_variables(query, [c.value for c in candidate])
        assert (candidate in certain) == certain_by_enumeration(db, grounded), candidate
    return candidates


class TestCandidateDifferential:
    """``candidate_answers`` is ``answer_tuples`` over the whole database,
    before and after a mutation batch, on the store's id-row join."""

    @pytest.mark.parametrize("query", candidate_cases())
    def test_candidates_match_answer_tuples(self, query):
        answered = []

        @settings(max_examples=30, derandomize=True, deadline=None, database=None)
        @given(
            initial=_DRAWN_FACTS,
            added=_DRAWN_FACTS.map(lambda drawn: drawn[:3]),
            discarded=st.lists(st.integers(0, 7), max_size=3),
        )
        @example(initial=_TRIANGLE_WITHOUT_WITNESS, added=[], discarded=[])
        def check(initial, added, discarded):
            db = UncertainDatabase(_drawn_facts(query, initial))
            with CertaintySession(db, allow_exponential=True) as session:
                answered.append(bool(_candidates_against_definition(session, db, query)))
                facts = list(db)
                with db.batch():
                    for fact in _drawn_facts(query, added):
                        db.add(fact)
                    for position in discarded:
                        if facts:
                            db.discard(facts[position % len(facts)])
                answered.append(bool(_candidates_against_definition(session, db, query)))

        check()
        assert True in answered and False in answered  # non-vacuous both ways


class TestOracleDifferential:
    @pytest.mark.parametrize("query,allow", band_cases())
    def test_certain_answers_match_repair_enumeration(self, query, allow):
        verdicts = set()

        @settings(max_examples=4, derandomize=True, deadline=None, database=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**20),
            witnesses=st.integers(min_value=1, max_value=3),
            noise=st.integers(min_value=0, max_value=1),
        )
        def check_seed(seed, witnesses, noise):
            db = _oracle_instance(query, seed, witnesses, noise)
            verdicts.update(_verdicts_against_enumeration(query, allow, db))

        check_seed()
        planted = _planted_certain_instance(query)
        verdicts.update(_verdicts_against_enumeration(query, allow, planted))
        # Non-vacuous: the instances exercised both outcomes.
        assert verdicts == {True, False}

    def test_theorem3_base_case_with_falsifiable_block_cycle(self, monkeypatch):
        """A planted R5 ⇄ R6 block 4-cycle: the pair solver must find it.

        Random instances of the Figure 4 query are never certain at
        enumeration sizes, so an always-certain pair verdict would pass the
        differential above; this instance reaches the Theorem 3 base case
        with one falsifiable partition and is not certain.
        """
        calls = []
        pair_rows = terminal_cycles.certain_weak_cycle_pair_rows

        def recorded(*args):
            calls.append(pair_rows(*args))
            return calls[-1]

        monkeypatch.setattr(terminal_cycles, "certain_weak_cycle_pair_rows", recorded)
        query = figure4_query()
        falsifiable = _planted_block_cycle_instance(query)
        assert _verdicts_against_enumeration(query, False, falsifiable) == {False}
        assert False in calls  # the pair solver decided the falsifiable cycle
        planted = _planted_certain_instance(query)
        assert _verdicts_against_enumeration(query, False, planted) == {True}

    def test_theorem3_warm_decide_builds_no_attack_graph(self):
        """The base case decides each 2-cycle without a pair attack graph.

        The pair solver's key check is the weakness test of a two-atom
        query, and the peeling recursion's graphs are memoised per query,
        so a warm decide that reaches the base case builds none.
        """
        query = figure4_query()
        db = _planted_block_cycle_instance(query)
        with CertaintySession(db) as session:
            assert not session.is_certain(query)  # cold: memoises the graphs
            with constructions(AttackGraph) as built:
                assert not session.is_certain(query)
        assert built == {"AttackGraph": 0}

    def test_theorem3_warm_decide_finds_no_cycles(self, monkeypatch):
        """The base case's 2-cycles are memoised per query.

        They depend on the query alone, so a warm decide that reaches the
        base case runs no Tarjan pass over the attack graph.
        """
        query = figure4_query()
        db = _planted_block_cycle_instance(query)
        with CertaintySession(db) as session:
            assert not session.is_certain(query)  # cold: memoises the cycles
            calls = []
            components = terminal_cycles.strongly_connected_components

            def counted(*args, **kwargs):
                calls.append(args)
                return components(*args, **kwargs)

            monkeypatch.setattr(terminal_cycles, "strongly_connected_components", counted)
            for _ in range(3):
                assert not session.is_certain(query)
        assert calls == []

    def test_session_decide_does_not_reclassify(self, monkeypatch):
        """A session decide trusts its plan's classification and shares the
        process's attack graphs.

        Warm Theorem 3 decides run no :func:`applies_to`: the plan
        classified the query when it compiled.  A second session over the
        same database builds no attack graph on its first decide, because
        the graphs are memoised per query, not per session.  Relation names
        no other test uses make the first session build graphs.
        """
        query = _renamed_relations(figure4_query(), "Reclassify")
        db = _planted_block_cycle_instance(query)
        with constructions(AttackGraph) as first:
            with CertaintySession(db) as session:
                assert not session.is_certain(query)  # cold
                calls = []
                check = terminal_cycles.applies_to

                def counted(*args, **kwargs):
                    calls.append(args)
                    return check(*args, **kwargs)

                monkeypatch.setattr(terminal_cycles, "applies_to", counted)
                for _ in range(3):
                    assert not session.is_certain(query)
        assert calls == []
        with constructions(AttackGraph) as second:
            with CertaintySession(db) as session:
                assert not session.is_certain(query)
        assert first["AttackGraph"] > 0
        assert second == {"AttackGraph": 0}

    def test_theorem4_ring_with_falsifiable_component(self, monkeypatch):
        """A planted ``C(3)`` ring whose one component holds a 6-cycle.

        The random ``C(3)`` instances above reach the Theorem 4 component
        test only when they are certain, so an always-unfalsifiable
        component would pass them; this instance is not certain.
        """
        calls = []
        falsifiable = cycle_query._component_falsifiable

        def recorded(*args):
            calls.append(falsifiable(*args))
            return calls[-1]

        monkeypatch.setattr(cycle_query, "_component_falsifiable", recorded)
        query = cycle_query_c(3)
        ring = _planted_falsifiable_ring(query)
        assert _verdicts_against_enumeration(query, False, ring) == {False}
        assert calls == [True]  # one component, found falsifiable
        planted = _planted_certain_instance(query)
        assert _verdicts_against_enumeration(query, False, planted) == {True}

    def test_batched_decide_matches_per_candidate_loop(self):
        query = open_variant(path_query(3), "x1")
        for seed in range(4):
            db = synthetic_instance(
                query, seed=seed, domain_size=5, witnesses=8, conflict_rate=0.6
            )
            with CertaintySession(db) as session:
                plan = session.plan_for(query)
                assert plan.batched_fo
                candidates = session.candidate_answers(query)
                batched = session.decide_candidates(query, candidates)
                support = {}  # forces the per-candidate instrumented loop
                per_candidate = session.decide_candidates(
                    query, candidates, support=support
                )
                assert batched == per_candidate
                assert set(support) == set(candidates)

    def test_batched_decide_preserves_input_order(self):
        query, schema, db = _emp_dept()
        with CertaintySession(db) as session:
            candidates = list(reversed(session.candidate_answers(query)))
            decided = session.decide_candidates(query, candidates)
            assert decided  # ada and bob are certain in the quickstart db
            positions = [candidates.index(c) for c in decided]
            assert positions == sorted(positions)

    def test_purify_sweeps_agree(self):
        """The id-row filter purifies exactly as Lemma 1 does by definition."""
        from repro.certainty import purify
        from repro.certainty.purify import relevant_facts

        def purify_by_definition(db, query):
            current = db.copy()
            while True:
                used = relevant_facts(current, query)
                stale = {f.block_key for f in current.facts if f not in used}
                if not stale:
                    return current
                for key in stale:
                    current.remove_block(key)

        queries = [path_query(3), cycle_query_c(3), parse_query("A(x | y), B(y | z), C(z | x)")]
        for query in queries:
            removed = 0
            for seed in range(4):
                db = synthetic_instance(
                    query, seed=seed, domain_size=4, witnesses=4, conflict_rate=0.5
                )
                expected = purify_by_definition(db, query)
                col = purify(db, query, index=ColumnarFactIndex(db.facts))
                assert set(col.facts) == set(expected.facts)
                removed += len(db) - len(expected)
            assert removed, query  # some seed had blocks to remove

    @pytest.mark.parametrize(
        "query,planted",
        [
            pytest.param(path_query(4), False, id="path-4"),
            pytest.param(parse_query("R(x | x), S(x | y), T(y | z)"), False, id="repeated-variable"),
            pytest.param(parse_query("R(x | y), R(y | z), S(z | w)"), False, id="acyclic-self-join"),
            pytest.param(cycle_query_c(3), False, id="cycle-c3"),
            pytest.param(parse_query("A(x | y), B(y | z), C(z | x)"), False, id="triangle"),
            pytest.param(figure4_query(), True, id="figure4"),
            pytest.param(parse_query("R(x | 'c1', y), S(y | z), T(z | w)"), True, id="constant"),
        ],
    )
    def test_used_rows_matches_relevant_facts(self, query, planted):
        """``used_rows`` on a sub-database is Lemma 1's set of witness facts.

        Each instance is checked on the whole store and on about 60% of its
        blocks, passed as ``allowed``.  A reducer that is wrong for cyclic
        queries or stops before its fixpoint keeps rows no witness uses.
        """
        from repro.certainty.purify import relevant_facts

        mixed = False
        for seed in range(60):
            rng = random.Random(seed)
            if planted:
                db = synthetic_instance(
                    query, seed=seed, domain_size=4, witnesses=3,
                    noise_per_relation=3, conflict_rate=0.5,
                )
            else:
                db = random_instance(query, rng, domain_size=3, facts_per_relation=5)
            store = ColumnarFactIndex(db.facts).store
            keys = [k for k in sorted(db.block_keys(), key=str) if rng.random() < 0.6]
            for sub in (db, UncertainDatabase(f for k in keys for f in db.block(k))):
                allowed = None
                if sub is not db:
                    allowed = {}
                    for fact in sub.facts:
                        allowed.setdefault(fact.relation.name, set()).add(
                            store.known_row(fact)
                        )
                used = used_rows(query, store, allowed)
                decoded = {
                    Fact(store.relation_columns(name).schema, store.decode_row(row))
                    for name, rows in used.items()
                    for row in rows
                }
                expected = relevant_facts(sub, query)
                assert decoded == expected, (seed, sub is db)
                mixed = mixed or (expected and len(expected) < len(sub))
        assert mixed  # some instance had both used and unused rows

    def test_formula_evaluation_agrees_on_equality_and_negation(self):
        from repro.fo import FormulaEvaluator
        from repro.fo.compile import compile_formula
        from repro.fo.formulas import And, AtomFormula, Equals, Exists, Not

        R = RelationSchema("R", 2, 1)
        x, y = Variable("x"), Variable("y")
        formula = Exists(
            [x, y],
            And(
                [
                    AtomFormula(R.atom(x, y)),
                    Not(Equals(x, Constant("a"))),
                ]
            ),
        )
        plan = compile_formula(formula)
        rng = random.Random(0)
        verdicts = set()
        for _ in range(20):
            db = UncertainDatabase()
            for _ in range(rng.randint(1, 4)):
                db.add(R.fact(rng.choice("abc"), rng.choice("abc")))
            naive = FormulaEvaluator(db, compiled=False).evaluate(formula)
            compiled = plan.evaluate(db, index=ColumnarFactIndex(db.facts))
            assert compiled == naive
            verdicts.add(naive)
        assert verdicts == {True, False}
