"""Tests for the incremental view subsystem (``repro.incremental``).

The central contract is *differential*: after every mutation delivered to a
:class:`ViewManager`, each registered view's answer set equals a cold
``certain_answers`` (or ``is_certain`` for Boolean queries) recomputed from
scratch against the current database — across all complexity bands,
mutation kinds (add / discard / remove_block), and delivery shapes
(per-fact, batched, bulk).  On top of that: support-index invariants, the
relation prefilter, delta candidate discovery, subscriptions, fallbacks,
and the batch/changelog API itself.
"""

import random

import pytest

from repro import (
    CertaintySession,
    ChangeSet,
    MaterializedCertainView,
    UncertainDatabase,
    ViewManager,
    certain_answers,
    is_certain,
    parse_facts,
    parse_query,
)
from repro.certainty import peel_certain
from repro.certainty.peeling import empty_base_case
from repro.fo import FormulaEvaluator, certain_rewriting
from repro.fo.compile import ReadSet, ReadSetRecorder
from repro.incremental import SupportIndex, delta_candidates
from repro.model.symbols import Constant
from repro.query import figure2_q1, figure4_query
from repro.query.evaluation import answer_tuples
from repro.query.families import path_query
from repro.query.substitution import ground_free_variables
from repro.store import ColumnarFactStore
from repro.store.kernels import has_witness
from repro.workloads import (
    apply_batch,
    apply_mutation,
    mutation_stream,
    synthetic_instance,
)
from tests.helpers import constructions, open_variant


def cold_answers(db, query, allow):
    if query.is_boolean:
        return frozenset([()]) if is_certain(db, query, allow_exponential=allow) else frozenset()
    return frozenset(certain_answers(db, query, allow_exponential=allow))


def emp_dept():
    """The quickstart Emp/Dept instance: FO band, one free variable."""
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
# The batch / changelog API
# --------------------------------------------------------------------------------


class _Recorder:
    """Observer that logs every notification it receives."""

    def __init__(self):
        self.events = []

    def fact_added(self, fact):
        self.events.append(("add", fact))

    def fact_discarded(self, fact):
        self.events.append(("discard", fact))

    def batch_applied(self, changes):
        self.events.append(("batch", changes))


class TestBatchAPI:
    def test_batch_fires_one_consolidated_notification(self):
        query, schema, db = emp_dept()
        observer = _Recorder()
        db.register_observer(observer)
        f1 = schema["Emp"].fact("eve", "db")
        f2 = schema["Emp"].fact("bob", "net")
        with db.batch():
            db.add(f1)
            db.discard(f2)
            assert db.in_batch
            assert observer.events == []  # nothing fires mid-batch
        assert not db.in_batch
        assert len(observer.events) == 1
        kind, changes = observer.events[0]
        assert kind == "batch"
        assert set(changes.added) == {f1}
        assert set(changes.discarded) == {f2}

    def test_net_semantics_cancel_out(self):
        query, schema, db = emp_dept()
        observer = _Recorder()
        db.register_observer(observer)
        fresh = schema["Emp"].fact("eve", "db")
        existing = schema["Emp"].fact("bob", "net")
        with db.batch():
            db.add(fresh)
            db.discard(fresh)  # add-then-discard cancels
            db.discard(existing)
            db.add(existing)  # discard-then-re-add cancels
        assert observer.events == []  # empty net change: no notification
        assert fresh not in db and existing in db

    def test_nested_batches_merge(self):
        query, schema, db = emp_dept()
        observer = _Recorder()
        db.register_observer(observer)
        with db.batch():
            db.add(schema["Emp"].fact("eve", "db"))
            with db.batch():
                db.add(schema["Emp"].fact("zed", "os"))
        assert len(observer.events) == 1
        assert len(observer.events[0][1].added) == 2

    def test_plain_observers_get_replay(self):
        """Observers without batch_applied still hear every net change."""
        query, schema, db = emp_dept()
        # The session's ColumnarFactIndex has no batch hook: replay path.
        with CertaintySession(db) as session:
            with db.batch():
                db.add(schema["Emp"].fact("eve", "db"))
                db.remove_block(("Emp", (Constant("bob"),)))
            emp_facts = [f for f in db.facts if f.relation.name == "Emp"]
            assert len(session.store.relation_rows("Emp")) == len(emp_facts)
            assert session.certain_answers(query) == certain_answers(db, query)

    def test_batch_reports_applied_changes_on_exception(self):
        query, schema, db = emp_dept()
        observer = _Recorder()
        db.register_observer(observer)
        fact = schema["Emp"].fact("eve", "db")
        with pytest.raises(RuntimeError):
            with db.batch():
                db.add(fact)
                raise RuntimeError("boom")
        assert fact in db  # the mutation happened...
        assert len(observer.events) == 1  # ...so observers must hear about it

    def test_bulk_add_and_bulk_discard(self):
        query, schema, db = emp_dept()
        observer = _Recorder()
        db.register_observer(observer)
        facts = parse_facts(["Emp('eve' | 'db')", "Emp('zed' | 'os')"], schema=schema)
        db.bulk_add(facts)
        assert all(f in db for f in facts)
        db.bulk_discard(facts)
        assert all(f not in db for f in facts)
        kinds = [kind for kind, _ in observer.events]
        assert kinds == ["batch", "batch"]

    def test_changeset_views(self):
        query, schema, db = emp_dept()
        f1 = schema["Emp"].fact("eve", "db")
        f2 = schema["Dept"].fact("db", "Mons")
        changes = ChangeSet(added=(f1,), discarded=(f2,))
        assert changes.touched_relations() == {"Emp", "Dept"}
        assert changes.touched_blocks() == {f1.block_key, f2.block_key}
        assert len(changes) == 2 and bool(changes)


# --------------------------------------------------------------------------------
# Read sets and the support index
# --------------------------------------------------------------------------------


class TestReadSets:
    def test_session_captures_block_level_support(self):
        """Columnar sessions record dense block ids; same block precision."""
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            support = {}
            certain = session.decide_candidates(
                query,
                sorted({(Constant("ada"),), (Constant("bob"),)}),
                support=support,
            )
            ada_block = session.store.known_block_id("Emp", (Constant("ada"),))
            bob_block = session.store.known_block_id("Emp", (Constant("bob"),))
        assert set(certain) == {(Constant("ada"),), (Constant("bob"),)}
        ada = support[(Constant("ada"),)]
        assert ada_block is not None and bob_block is not None
        # ada's decision must depend on her own Emp block…
        assert ada_block in ada.block_ids or "Emp" in ada.relations
        # …and not on bob's (block-level precision is the whole point).
        assert bob_block not in ada.block_ids

    def test_static_support_for_brute_force(self, q1):
        """coNP decisions record static per-atom support."""
        open_q = open_variant(q1, "z")
        db = synthetic_instance(open_q, seed=3, domain_size=3, witnesses=4)
        with CertaintySession(db, allow_exponential=True) as session:
            candidates = sorted(
                {t for t in session.certain_answers(open_q)}
            ) or [(Constant("c0"),)]
            support = {}
            session.decide_candidates(open_q, candidates, support=support)
        query_relations = {atom.relation.name for atom in open_q.atoms}
        assert support
        for read_set in support.values():
            # Every atom key of q1 is a plain variable, so the static
            # support is exactly the query's relations.
            assert read_set.relations == query_relations

    def test_recorder_freeze_subsumes_scanned_relations(self):
        recorder = ReadSetRecorder()
        recorder.record_block_id("R", 0)
        recorder.record_block_id("S", 1)
        recorder.record_relation("R")
        frozen = recorder.freeze()
        assert frozen.relations == frozenset({"R"})
        assert frozen.block_ids == frozenset({1})

    def test_support_index_invariants_and_dirtying(self):
        block_ids = {("R", (Constant("k"),)): 7}
        index = SupportIndex(lambda name, key: block_ids.get((name, key)))
        c1, c2 = (Constant("a"),), (Constant("b"),)
        block = 7
        index.set(c1, ReadSet(block_ids=frozenset({block})))
        index.set(c2, ReadSet(relations=frozenset({"S"})))
        index.check_invariants()
        schema_r = parse_query("R(x | y)").schema()["R"]
        schema_s = parse_query("S(x | y)").schema()["S"]
        changes = ChangeSet(added=(schema_r.fact("k", "v"),))
        assert index.dirty_for(changes) == {c1}
        changes = ChangeSet(added=(schema_s.fact("q", "v"),))
        assert index.dirty_for(changes) == {c2}
        # Replacing a read set cleans the old entries.
        index.set(c1, ReadSet(relations=frozenset({"S"})))
        index.check_invariants()
        assert index.candidates_for_block(block) == set()
        assert index.dirty_for(ChangeSet(added=(schema_r.fact("k", "v"),))) == set()
        assert index.dirty_for(ChangeSet(added=(schema_s.fact("z", "v"),))) == {c1, c2}
        index.remove(c1)
        index.remove(c2)
        index.check_invariants()
        assert len(index) == 0


# --------------------------------------------------------------------------------
# Delta candidate discovery
# --------------------------------------------------------------------------------


def delta_shapes():
    """Queries whose delta join exercises each kind of slot-plan step."""
    return [
        # Unbound-key scans; the view of the durable_writes_views workload.
        pytest.param(open_variant(path_query(3), "x1"), id="open-path3"),
        pytest.param(parse_query("R(x | y), S(x | 'ok')", free=["y"]), id="constant"),
        pytest.param(parse_query("R(x | x), S(x | y)", free=["y"]), id="repeated-variable"),
        pytest.param(parse_query("R(x | y), S(y | z)", free=["x", "z"]), id="two-free"),
    ]


def planted_fact(query, db, rng):
    """One atom of *query* grounded over *db*'s active domain.

    Random facts almost never carry a query constant or a repeated value,
    so this is what lets seeds pass the constant and repeated-variable
    checks of the delta join.
    """
    domain = sorted((c.value for c in db.active_domain()), key=str) or ["c0"]
    atom = rng.choice(query.atoms)
    values = {v: rng.choice(domain) for v in sorted(query.variables, key=str)}
    return atom.relation.fact(
        *[values[t] if t in values else t.value for t in atom.terms]
    )


class TestDeltaCandidates:
    def test_finds_new_candidates_only_through_added_facts(self):
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            fact = schema["Emp"].fact("eve", "db")
            db.add(fact)
            found = delta_candidates(query, session.index, [fact])
        assert (Constant("eve"),) in found

    def test_superset_of_enumeration_delta(self):
        """Every genuinely new candidate is discovered, over random streams."""
        query, schema, db = emp_dept()
        rng = random.Random(7)
        with CertaintySession(db) as session:
            for _ in range(30):
                before = answer_tuples(query, db.facts)
                relation = rng.choice([schema["Emp"], schema["Dept"]])
                fact = relation.fact(
                    rng.choice(["ada", "bob", "eve", "db", "os", "x1", "x2"]),
                    rng.choice(["db", "os", "net", "Mons", "Paris", "y1"]),
                )
                db.add(fact)
                after = answer_tuples(query, db.facts)
                found = delta_candidates(query, session.index, [fact])
                assert after - before <= found  # no new candidate is missed

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("query", delta_shapes())
    def test_bounded_by_enumeration_over_batches(self, query, seed):
        """``after − before ⊆ delta ⊆ after`` for every multi-fact batch."""
        db = synthetic_instance(
            query, seed=seed, domain_size=5, witnesses=6, noise_per_relation=6
        )
        rng = random.Random(seed)
        discovered = 0
        with CertaintySession(db) as session:
            for batch in mutation_stream(
                query, db, steps=25, seed=seed + 40, domain_size=6, batch_range=(2, 5)
            ):
                batch.append(("add", planted_fact(query, db, rng)))
                before_facts = set(db.facts)
                before = answer_tuples(query, db.facts)
                apply_batch(db, batch)
                after = answer_tuples(query, db.facts)
                added = [f for f in db.facts if f not in before_facts]
                table_size = len(session.intern_table)
                found = delta_candidates(query, session.index, added)
                assert after - before <= found <= after
                assert len(session.intern_table) == table_size
                discovered += len(after - before)
            assert discovered > 0  # the streams did create new candidates
            # Never-seen constants occur in no stored row: nothing matches,
            # and the lookup does not intern them.
            table_size = len(session.intern_table)
            unseen = [
                atom.relation.fact(*[f"unseen{i}" for i in range(atom.relation.arity)])
                for atom in query.atoms
            ]
            assert delta_candidates(query, session.index, unseen) == set()
            assert len(session.intern_table) == table_size


# --------------------------------------------------------------------------------
# Differential maintenance across bands and mutation kinds
# --------------------------------------------------------------------------------


def band_workloads():
    """(query, allow_exponential, instance kwargs) per complexity band."""
    selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
    return [
        pytest.param(
            open_variant(path_query(3), "x1"),
            False,
            dict(domain_size=6, witnesses=10, noise_per_relation=6, conflict_rate=0.5),
            id="fo-band",
        ),
        pytest.param(
            path_query(2),
            False,
            dict(domain_size=5, witnesses=6, noise_per_relation=5, conflict_rate=0.5),
            id="fo-band-boolean",
        ),
        pytest.param(
            open_variant(figure4_query(), "x"),
            False,
            dict(domain_size=4, witnesses=5, noise_per_relation=3, conflict_rate=0.4),
            id="ptime-not-fo-band",
        ),
        pytest.param(
            open_variant(figure2_q1(), "z"),
            True,
            dict(domain_size=3, witnesses=4, noise_per_relation=2, conflict_rate=0.4),
            id="conp-band-allow-exponential",
        ),
        pytest.param(
            selfjoin,
            True,
            dict(domain_size=4, witnesses=5, noise_per_relation=3, conflict_rate=0.5),
            id="self-join-per-grounding",
        ),
    ]


class TestDifferentialMaintenance:
    # One stream per seed, so a divergence names its seed.  Seeds 2 and 3
    # spend the budget the removed object-backend leg used to take.
    @pytest.mark.parametrize("seed", range(4), ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("query,allow,kwargs", band_workloads())
    @pytest.mark.parametrize("batched", [False, True], ids=["per-fact", "batched"])
    def test_randomized_mutation_streams(self, query, allow, kwargs, batched, seed):
        db = synthetic_instance(query, seed=seed, **kwargs)
        with ViewManager(db, allow_exponential=allow) as manager:
            view = manager.register(query)
            assert view.answers == cold_answers(db, query, allow)
            stream = mutation_stream(
                query,
                db,
                steps=12,
                seed=seed * 101 + 7,
                domain_size=kwargs["domain_size"],
                batch_range=(1, 3) if batched else (1, 1),
            )
            for batch in stream:
                if batched:
                    apply_batch(db, batch)
                else:
                    for op in batch:
                        apply_mutation(db, op)
                assert view.answers == cold_answers(db, query, allow), (
                    f"diverged after {batch}"
                )
                view.support.check_invariants()

    def test_fine_grained_flag_matches_band(self):
        fo = open_variant(path_query(3), "x1")
        db = synthetic_instance(fo, seed=0, domain_size=5, witnesses=6)
        with ViewManager(db) as manager:
            assert manager.register(fo).fine_grained
        # PTIME-band views are fine-grained too now that the Theorem 3/4
        # solvers record static per-atom support.
        ptime = open_variant(figure4_query(), "x")
        db = synthetic_instance(ptime, seed=0, domain_size=4, witnesses=4)
        with ViewManager(db) as manager:
            assert manager.register(ptime).fine_grained
        # Only per-grounding (self-join) plans stay coarse.
        selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
        db = synthetic_instance(selfjoin, seed=0, domain_size=4, witnesses=4)
        with ViewManager(db, allow_exponential=True) as manager:
            assert not manager.register(selfjoin).fine_grained

    def test_boolean_view_tracks_is_certain(self):
        query = path_query(2)
        db = synthetic_instance(query, seed=5, domain_size=5, witnesses=5)
        with ViewManager(db) as manager:
            view = manager.register(query)
            for batch in mutation_stream(query, db, steps=15, seed=3):
                apply_batch(db, batch)
                assert view.is_certain == is_certain(db, query)

    def test_remove_block_maintenance(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            db.remove_block(("Dept", (Constant("os"),)))
            assert view.answers == cold_answers(db, query, False)
            db.remove_block(("Emp", (Constant("bob"),)))
            assert view.answers == cold_answers(db, query, False)


# --------------------------------------------------------------------------------
# Support-driven precision
# --------------------------------------------------------------------------------


class TestSupportPrecision:
    def test_unrelated_relation_is_skipped(self):
        query, schema, db = emp_dept()
        other = parse_query("Room(x | y)").schema()["Room"]
        with ViewManager(db) as manager:
            view = manager.register(query)
            refreshes = view.stats.refreshes
            db.add(other.fact("r1", "b2"))
            assert view.stats.refreshes == refreshes + 1
            assert view.stats.skipped_refreshes == 1
            assert view.answers == cold_answers(db, query, False)

    def test_single_block_mutation_dirties_only_dependents(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            assert view.fine_grained
            fact = schema["Dept"].fact("net", "Lille")  # bob's second dept block
            expected = view.support.dirty_for(ChangeSet(added=(fact,)))
            db.add(fact)
            assert view.stats.last_dirty == len(expected)
            # ada's chain never reads the net block: she must not be re-decided.
            assert (Constant("ada"),) not in expected
            assert view.answers == cold_answers(db, query, False)

    def test_oversized_dirty_fraction_falls_back_to_full_refresh(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            full = view.stats.full_refreshes
            # One batch dirties both tracked candidates: bob reads the net
            # block, ada the db block.
            with db.batch():
                db.add(schema["Dept"].fact("net", "Lille"))
                db.add(schema["Dept"].fact("db", "Lille"))
            assert view.stats.full_refreshes == full + 1
            assert view.stats.full_refreshes_oversized == 1
            assert view.answers == cold_answers(db, query, False)


# --------------------------------------------------------------------------------
# Candidate-set GC (vanished candidates leave without a full refresh)
# --------------------------------------------------------------------------------


class TestCandidateGC:
    def test_vanished_candidates_are_collected_without_full_refresh(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            assert (Constant("bob"),) in view.tracked_candidates
            full = view.stats.full_refreshes
            db.remove_block(("Emp", (Constant("bob"),)))
            # Maintenance stayed incremental, yet bob — whose supporting
            # facts all vanished — was dropped from verdicts and support.
            assert view.stats.full_refreshes == full
            assert (Constant("bob"),) not in view.tracked_candidates
            assert (Constant("bob"),) not in set(view.support.candidates())
            assert view.stats.gc_removed >= 1
            assert (Constant("ada"),) in view.tracked_candidates
            view.support.check_invariants()
            assert view.answers == cold_answers(db, query, False)

    def test_reinserted_candidate_is_rediscovered_after_gc(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            db.remove_block(("Emp", (Constant("bob"),)))
            assert (Constant("bob"),) not in view.tracked_candidates
            db.add(schema["Emp"].fact("bob", "os"))
            assert (Constant("bob"),) in view.tracked_candidates
            assert view.answers == cold_answers(db, query, False)

    def test_gc_sweep_never_interns(self):
        """A grounding with an unknown constant has no witness, uninterned."""
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            table_size = len(session.intern_table)
            grounded = ground_free_variables(query, ["nobody"])
            assert not has_witness(grounded, session.store)
            assert has_witness(ground_free_variables(query, ["ada"]), session.store)
            assert len(session.intern_table) == table_size

    def test_gc_keeps_still_enumerable_candidates(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            # Dropping one of bob's two Emp facts leaves him enumerable.
            db.discard(schema["Emp"].fact("bob", "os"))
            assert (Constant("bob"),) in view.tracked_candidates
            assert view.stats.gc_removed == 0
            assert view.answers == cold_answers(db, query, False)


# --------------------------------------------------------------------------------
# Subscriptions
# --------------------------------------------------------------------------------


class TestSubscriptions:
    def test_deltas_match_answer_set_evolution(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            live = set(view.answers)
            events = []

            def on_insert(t):
                events.append(("+", t))
                assert t not in live
                live.add(t)

            def on_retract(t):
                events.append(("-", t))
                assert t in live
                live.discard(t)

            view.subscribe(on_insert=on_insert, on_retract=on_retract)
            for batch in mutation_stream(query, db, steps=20, seed=4):
                apply_batch(db, batch)
                assert live == set(view.answers)
            assert view.stats.inserts_emitted == sum(1 for k, _ in events if k == "+")

    def test_unsubscribe_stops_delivery(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            events = []
            subscription = view.subscribe(on_insert=lambda t: events.append(t))
            subscription.unsubscribe()
            db.add(schema["Emp"].fact("eve", "db"))
            assert events == []

    def test_subscriber_mutations_are_serialised(self):
        """A callback-triggered mutation must not corrupt the view."""
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            fired = []

            def on_insert(t):
                if not fired:
                    fired.append(t)
                    db.add(schema["Emp"].fact("zed", "os"))  # re-entrant mutation

            view.subscribe(on_insert=on_insert)
            db.add(schema["Emp"].fact("eve", "db"))
            assert fired
            assert view.answers == cold_answers(db, query, False)


# --------------------------------------------------------------------------------
# Manager lifecycle
# --------------------------------------------------------------------------------


class TestManagerLifecycle:
    def test_register_is_idempotent(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            assert isinstance(view, MaterializedCertainView)
            assert manager.register(query) is view
            assert len(manager.views) == 1

    def test_unregister_stops_maintenance(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            manager.unregister(view)
            refreshes = view.stats.refreshes
            db.add(schema["Emp"].fact("eve", "db"))
            assert view.stats.refreshes == refreshes

    def test_closed_manager_detaches(self):
        query, schema, db = emp_dept()
        manager = ViewManager(db)
        view = manager.register(query)
        manager.close()
        db.add(schema["Emp"].fact("eve", "db"))
        assert (Constant("eve"),) not in view.answers  # frozen at close time
        with pytest.raises(RuntimeError):
            manager.register(query)
        manager.close()  # idempotent

    def test_external_session_is_not_closed(self):
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            manager = ViewManager(db, session=session)
            manager.register(query)
            manager.close()
            assert not session.closed
            other = UncertainDatabase()
            with pytest.raises(ValueError):
                ViewManager(other, session=session)

    def test_refresh_all_prunes_stale_candidates(self):
        query, schema, db = emp_dept()
        with ViewManager(db) as manager:
            view = manager.register(query)
            db.remove_block(("Emp", (Constant("bob"),)))
            manager.refresh_all()
            assert (Constant("bob"),) not in set(view.support.candidates())
            assert view.answers == cold_answers(db, query, False)


# --------------------------------------------------------------------------------
# Deep residual peeling: threaded level indexes, checked by the FO definition
# --------------------------------------------------------------------------------


class TestDeepResidualPeeling:
    """The peeling recursion filters rows of one store at every level.

    ``path_query(4)`` peels one unattacked atom per level, so the recursion
    is four levels deep — past the depth-3 floor where a copy-per-purify
    implementation would multiply database and index constructions.  The
    instances are too large to enumerate repairs, so the verdicts are
    checked against the naive active-domain evaluation of the certain FO
    rewriting (Theorem 1) instead.  With a session index supplied at the
    top, no level may construct a database or a columnar store.
    """

    def _deep_instance(self, query, seed):
        return synthetic_instance(
            query,
            seed=seed,
            domain_size=5,
            witnesses=6,
            noise_per_relation=5,
            conflict_rate=0.5,
        )

    @staticmethod
    def _by_definition(db, query):
        return FormulaEvaluator(db, compiled=False).evaluate(certain_rewriting(query))

    @staticmethod
    def _peel_without_copies(db, query):
        with CertaintySession(db) as session:
            with constructions(UncertainDatabase, ColumnarFactStore) as built:
                verdict = peel_certain(db, query, empty_base_case, index=session.index)
        assert built == {"UncertainDatabase": 0, "ColumnarFactStore": 0}
        return verdict

    def test_deep_peeling_differential_and_index_threading(self):
        query = path_query(4)
        verdicts = set()
        for seed in range(4):
            db = self._deep_instance(query, seed)
            verdict = self._peel_without_copies(db, query)
            assert verdict == self._by_definition(db, query)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_deep_peeling_level_index_classes_at_depth_three(self):
        # Depth 5: one level deeper than the floor, same invariants.
        query = path_query(5)
        db = self._deep_instance(query, seed=11)
        verdict = self._peel_without_copies(db, query)
        assert verdict == self._by_definition(db, query)


# --------------------------------------------------------------------------------
# Candidates follow the database
# --------------------------------------------------------------------------------


class TestCandidateFreshness:
    def test_each_mutation_kind_changes_the_candidates(self):
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            fact = schema["Emp"].fact("eve", "db")
            version = db.mutation_version
            db.add(fact)
            assert db.mutation_version > version
            assert (Constant("eve"),) in set(session.candidate_answers(query))
            version = db.mutation_version
            db.discard(fact)
            assert db.mutation_version > version
            assert (Constant("eve"),) not in set(session.candidate_answers(query))
            version = db.mutation_version
            db.remove_block(("Emp", (Constant("bob"),)))
            assert db.mutation_version > version
            assert (Constant("bob"),) not in set(session.candidate_answers(query))

    def test_candidates_across_batch_boundaries(self):
        query, schema, db = emp_dept()
        with CertaintySession(db) as session:
            before = set(session.candidate_answers(query))
            version = db.mutation_version
            fact = schema["Emp"].fact("eve", "db")
            with db.batch():
                db.add(fact)
                # Inside the batch the version is intentionally stale, and so
                # is the session store: observers hear of a batch at its exit.
                assert db.mutation_version == version
                assert set(session.candidate_answers(query)) == before
            # The version advances once at batch exit, when the store also
            # takes the insertion.
            assert db.mutation_version == version + 1
            assert set(session.candidate_answers(query)) == before | {
                (Constant("eve"),)
            }
