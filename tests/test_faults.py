"""Chaos tests: deterministic fault injection + supervised containment.

The robustness contract is differential: under **any** fault schedule —
worker kills, dispatch stalls, dropped pipes, torn WAL writes, fsync
errors, interrupted checkpoints — every certain answer served must equal
a fault-free sequential recompute, and every batch acknowledged by the
durability tier must survive a crash.  Fault schedules are derived from
seeds (:meth:`FaultPlan.random`), so a failing schedule reproduces from
its seed alone.
"""

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro import (
    CertaintyService,
    ShardedCertaintySession,
    certain_answers,
    parse_facts,
    parse_query,
)
from repro.durability import DurabilityError, DurableStore
from repro.engine.shards import DeadlineExceeded
from repro.faults import (
    SITE_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_injector,
    inject,
)
from repro.query import figure2_q1, figure4_query
from repro.query.families import cycle_query_c, path_query
from repro.core.complexity import ComplexityBand
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
    CircuitOpen,
)
from repro.workloads import apply_batch, mutation_stream, synthetic_instance
from tests.helpers import open_variant

CHAOS_SHARD_COUNTS = (2, 4)


def band_workloads():
    """One open-query workload per complexity band of the trichotomy."""
    selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
    return [
        pytest.param(
            open_variant(path_query(3), "x1"),
            False,
            dict(domain_size=6, witnesses=12, noise_per_relation=8, conflict_rate=0.5),
            id="fo-band",
        ),
        pytest.param(
            open_variant(figure4_query(), "x"),
            False,
            dict(domain_size=4, witnesses=6, noise_per_relation=3, conflict_rate=0.4),
            id="ptime-not-fo-band",
        ),
        pytest.param(
            open_variant(cycle_query_c(3), "x1"),
            False,
            dict(domain_size=4, witnesses=6, noise_per_relation=3, conflict_rate=0.4),
            id="cycle-band",
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
            dict(domain_size=4, witnesses=6, noise_per_relation=4, conflict_rate=0.5),
            id="self-join-per-grounding",
        ),
    ]


#: The shard-runtime chaos sites the differential harness draws from.
SHARD_SITES = ("shard.worker.command", "shard.worker.delta", "shard.pipe")


def chaos_session(db, n_shards, allow):
    """A sharded session tuned for fast supervised recovery in tests."""
    return ShardedCertaintySession(
        db,
        n_shards=n_shards,
        min_shard_candidates=1,
        allow_exponential=allow,
        dispatch_deadline=10.0,
        restart_backoff=0.0,
    )


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        for seed in range(8):
            a = FaultPlan.random(seed, events=4, n_shards=4)
            b = FaultPlan.random(seed, events=4, n_shards=4)
            assert a.specs == b.specs

    def test_seeds_vary_the_schedule(self):
        schedules = {FaultPlan.random(seed, events=4).specs for seed in range(16)}
        assert len(schedules) > 1

    def test_sites_restrict_the_catalogue(self):
        plan = FaultPlan.random(3, sites=["wal.write"], events=5)
        assert all(spec.site == "wal.write" for spec in plan)
        with pytest.raises(ValueError):
            FaultPlan.random(0, sites=["no.such.site"])

    def test_spec_arrival_window(self):
        spec = FaultSpec("s", "kill", at=3, count=2)
        assert [spec.matches(i, None) for i in range(1, 7)] == [
            False, False, True, True, False, False,
        ]
        forever = FaultSpec("s", "kill", at=2, count=0)
        assert not forever.matches(1, None)
        assert all(forever.matches(i, None) for i in range(2, 10))

    def test_spec_shard_pinning(self):
        spec = FaultSpec("shard.pipe", "drop", shard=1)
        assert spec.matches(1, 1)
        assert not spec.matches(1, 0)
        assert not spec.matches(1, None)

    def test_injector_counts_and_fires(self):
        plan = FaultPlan([FaultSpec("x", "error", at=2)])
        with inject(plan) as injector:
            assert injector.fire("x") is None
            fault = injector.fire("x")
            assert fault is not None and fault.kind == "error"
            assert injector.fire("x") is None
            assert injector.arrivals("x") == 3
            assert injector.fired == [("x", "error", 2)]
        assert active_injector() is None

    def test_inject_restores_previous_injector(self):
        with inject(FaultPlan()) as outer:
            with inject(FaultPlan()) as inner:
                assert active_injector() is inner
            assert active_injector() is outer

    def test_catalogue_names_are_stable(self):
        # Hook points compiled into production code reference these names;
        # renaming a site silently disables its chaos coverage.
        assert dict(SITE_KINDS).keys() == {
            "shard.worker.command",
            "shard.worker.delta",
            "shard.pipe",
            "wal.write",
            "wal.fsync",
            "segment.fsync",
            "segment.rename",
            "service.queued",
        }


class TestShardChaosDifferential:
    """Sharded answers under seeded fault schedules == sequential recompute."""

    @pytest.mark.parametrize("query,allow,kwargs", band_workloads())
    @pytest.mark.parametrize("n_shards", CHAOS_SHARD_COUNTS)
    def test_all_bands_survive_worker_chaos(self, query, allow, kwargs, n_shards):
        plan = FaultPlan.random(
            n_shards * 101 + 7, sites=SHARD_SITES, events=3, n_shards=n_shards
        )
        db = synthetic_instance(query, seed=5, **kwargs)
        with inject(plan):
            with chaos_session(db, n_shards, allow) as session:
                assert session.certain_answers(query) == certain_answers(
                    db, query, allow_exponential=allow
                )
                stream = mutation_stream(
                    query, db, steps=5, seed=17, batch_range=(1, 4)
                )
                for batch in stream:
                    apply_batch(db, batch)
                    assert session.certain_answers(query) == certain_answers(
                        db, query, allow_exponential=allow
                    ), f"diverged under {plan!r} at {n_shards} shards"

    def test_seed_sweep_on_the_fo_band(self):
        query = open_variant(path_query(3), "x1")
        for seed in range(4):
            plan = FaultPlan.random(seed, sites=SHARD_SITES, events=4, n_shards=2)
            db = synthetic_instance(query, seed=seed, domain_size=6, witnesses=12)
            with inject(plan):
                with chaos_session(db, 2, False) as session:
                    for batch in mutation_stream(query, db, steps=4, seed=seed):
                        apply_batch(db, batch)
                        assert session.certain_answers(query) == certain_answers(
                            db, query
                        ), f"diverged under seed {seed}"

    def test_stalled_worker_is_contained_by_the_dispatch_deadline(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=2, domain_size=6, witnesses=12)
        plan = FaultPlan(
            [FaultSpec("shard.worker.command", "stall", at=2, delay=1.0, shard=0)]
        )
        with inject(plan):
            with ShardedCertaintySession(
                db,
                n_shards=2,
                min_shard_candidates=1,
                dispatch_deadline=0.1,
                restart_backoff=0.0,
            ) as session:
                expected = certain_answers(db, query)
                assert session.certain_answers(query) == expected
                assert session.certain_answers(query) == expected
                assert session.stats.deadline_timeouts >= 1
                assert session.stats.worker_failures >= 1

    def test_caller_deadline_leaves_workers_alive_and_fences_replies(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=2, domain_size=6, witnesses=12)
        # Stall shard 0's second command (the first post-bootstrap delta)
        # well past the caller's request budget but well inside the 30s
        # dispatch window.  The budget must be generous enough that it is
        # still unspent when the gather starts polling — expiring earlier
        # takes the cheap entry-check path and never reaches the
        # poll-timeout branch this regression pins down.
        plan = FaultPlan(
            [FaultSpec("shard.worker.command", "stall", at=2, delay=1.0, shard=0)]
        )
        with inject(plan):
            with ShardedCertaintySession(
                db,
                n_shards=2,
                min_shard_candidates=1,
                dispatch_deadline=30.0,
                restart_backoff=0.0,
            ) as session:
                with pytest.raises(DeadlineExceeded):
                    session.certain_answers(
                        query, deadline=time.monotonic() + 0.2
                    )
                # The stalled worker was inside its dispatch window when
                # the *caller's* budget ran out: it must stay alive and
                # unpenalised — a tight request deadline is not a fault,
                # and only a blown dispatch window may count as one.
                assert session.stats.worker_failures == 0
                assert session.stats.deadline_timeouts == 0
                assert session.degraded_mode is None
                # The aborted gather left replies in the pipes; the next
                # dispatch must fence them by sequence id instead of
                # pairing stale verdicts with its fresh candidate buckets.
                assert session.certain_answers(query) == certain_answers(
                    db, query
                )
                assert session.stats.stale_replies_dropped >= 1
                assert session.stats.worker_failures == 0

    def test_dropped_pipe_is_contained(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=3, domain_size=6, witnesses=12)
        plan = FaultPlan([FaultSpec("shard.pipe", "drop", at=2, shard=1)])
        with inject(plan):
            with chaos_session(db, 2, False) as session:
                expected = certain_answers(db, query)
                assert session.certain_answers(query) == expected
                db.add(query.atoms[0].relation.fact("fresh", "b"))
                assert session.certain_answers(query) == certain_answers(db, query)
                assert session.stats.worker_failures >= 1


class TestDeltaCrashWatermark:
    """Satellite: a worker crash mid-delta (intern suffix shipped, rows not)
    must never leave a replica with an inconsistent intern watermark."""

    @pytest.mark.parametrize("n_shards", CHAOS_SHARD_COUNTS)
    def test_delta_crash_differential(self, n_shards):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=9, domain_size=6, witnesses=12)
        # Kill the worker *between* the intern-table extend and the row
        # application of its second delta: the crash window where the
        # replica id space has advanced but the rows were lost.
        plan = FaultPlan(
            [FaultSpec("shard.worker.delta", "kill", at=2, shard=s)
             for s in range(n_shards)]
        )
        with inject(plan):
            with chaos_session(db, n_shards, False) as session:
                assert session.certain_answers(query) == certain_answers(db, query)
                for batch in mutation_stream(
                    query, db, steps=6, seed=29, batch_range=(1, 3)
                ):
                    apply_batch(db, batch)
                    assert session.certain_answers(query) == certain_answers(
                        db, query
                    ), f"watermark divergence at {n_shards} shards"
                assert session.stats.worker_failures >= 1
                # The restarted replicas hold exactly the partition again.
                counts = session.shard_fact_counts()
                assert sum(counts) == len(db)


class TestDegradationLadder:
    def test_persistent_failure_degrades_then_probes_back(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=4, domain_size=6, witnesses=12)
        # Every command kills every worker, forever: restarts can never
        # succeed, so the session must degrade to serial serving — and
        # still serve exact answers there.
        plan = FaultPlan([FaultSpec("shard.worker.command", "kill", at=1, count=0)])
        expected = certain_answers(db, query)
        with inject(plan):
            with ShardedCertaintySession(
                db,
                n_shards=2,
                min_shard_candidates=1,
                dispatch_deadline=5.0,
                restart_backoff=0.0,
                degrade_after_failures=2,
                degraded_probe_interval=2,
            ) as session:
                # Each call retries the dead shards once; two failed rounds
                # exhaust degrade_after_failures=2 and step the ladder down.
                assert session.certain_answers(query) == expected
                assert session.certain_answers(query) == expected
                assert session.degraded_mode == "serial"
                assert session.stats.degradations == 1
                for _ in range(4):  # degraded serving stays exact
                    assert session.certain_answers(query) == expected
                assert session.stats.degraded_decides > 0
                assert session.degraded_mode == "serial"
        # Faults gone: the next probe climbs back to sharded serving.
        with ShardedCertaintySession(
            db, n_shards=2, min_shard_candidates=1, restart_backoff=0.0
        ) as fresh:
            assert fresh.certain_answers(query) == expected
            assert fresh.degraded_mode is None

    def test_probe_recovers_after_faults_clear(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=6, domain_size=6, witnesses=12)
        expected = certain_answers(db, query)
        plan = FaultPlan(
            [FaultSpec("shard.worker.command", "kill", at=1, count=2, shard=0)]
        )
        with ShardedCertaintySession(
            db,
            n_shards=2,
            min_shard_candidates=1,
            restart_backoff=0.0,
            degrade_after_failures=1,
            degraded_probe_interval=1,
        ) as session:
            with inject(plan):
                assert session.certain_answers(query) == expected
                assert session.degraded_mode == "serial"
            # The injector is gone: within a couple of probes the session
            # must climb back to full sharded serving.
            for _ in range(4):
                assert session.certain_answers(query) == expected
            assert session.degraded_mode is None
            assert session.pool_started

    def test_heartbeat_detects_dead_workers(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=7, domain_size=6, witnesses=12)
        with chaos_session(db, 2, False) as session:
            session.certain_answers(query)
            assert session.heartbeat() == [True, True]
            session._workers[0].process.terminate()
            session._workers[0].process.join(timeout=5)
            alive = session.heartbeat(timeout=1.0)
            assert alive[0] is False
            assert session.stats.heartbeats >= 2
            # The dead worker was declared failed and is restartable.
            assert session.certain_answers(query) == certain_answers(db, query)


class TestDeadlines:
    def test_expired_deadline_raises_before_dispatch(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=1, domain_size=6, witnesses=12)
        with chaos_session(db, 2, False) as session:
            with pytest.raises(DeadlineExceeded):
                session.certain_answers(query, deadline=time.monotonic() - 1.0)
            with pytest.raises(DeadlineExceeded):
                session.decide_candidates(
                    query, [("a",)], deadline=time.monotonic() - 1.0
                )
            with pytest.raises(DeadlineExceeded):
                session.solve(path_query(3), deadline=time.monotonic() - 1.0)
            # A generous deadline serves normally.
            answers = session.certain_answers(
                query, deadline=time.monotonic() + 30.0
            )
            assert answers == certain_answers(db, query)


class TestDurabilityChaos:
    def _db(self):
        query = parse_query("R(x | y), S(x | 'ok')", free=["x"])
        schema = query.schema()
        facts = parse_facts(
            ["R('a' | 'b')", "R('c' | 'd')", "S('a' | 'ok')", "S('c' | 'ok')"],
            schema=schema,
        )
        return query, schema, facts

    def test_fsync_failure_retries_on_a_fresh_writer(self, tmp_path):
        query, schema, facts = self._db()
        plan = FaultPlan([FaultSpec("wal.fsync", "error", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            db.add(facts[0])
            db.add(facts[1])  # fsync fails once; the commit must still land
            db.add(facts[2])
            assert durable.stats.wal_reopens == 1
            assert not durable.failed
            durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        assert set(recovered.database().facts) == {facts[0], facts[1], facts[2]}

    def test_torn_write_retries_and_never_acknowledges_garbage(self, tmp_path):
        query, schema, facts = self._db()
        plan = FaultPlan([FaultSpec("wal.write", "torn", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            db.add(facts[0])
            db.add(facts[1])  # torn, truncated back, retried, committed
            assert durable.stats.wal_reopens == 1
            durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        assert recovered.stats.torn_tail_bytes == 0
        assert set(recovered.database().facts) == {facts[0], facts[1]}

    def test_double_failure_fails_the_batch_without_acknowledging(self, tmp_path):
        query, schema, facts = self._db()
        # Both the first append and its retry fail: the commit must raise
        # and the store must refuse further commits until a checkpoint heals.
        plan = FaultPlan([FaultSpec("wal.write", "torn", at=2, count=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            db.add(facts[0])
            with pytest.raises(DurabilityError):
                db.add(facts[1])
            assert durable.failed
            assert durable.stats.failed_commits == 1
            with pytest.raises(DurabilityError):
                db.add(facts[2])
            # checkpoint() persists the full current state and heals.
            durable.checkpoint()
            assert not durable.failed
            db.add(facts[3])
            durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        # Every fact is present: the failed batches were never lost from
        # the live db, and the healing checkpoint captured them.
        assert set(recovered.database().facts) == set(facts)

    def test_interrupted_checkpoint_keeps_the_old_segment(self, tmp_path):
        query, schema, facts = self._db()
        plan = FaultPlan([FaultSpec("segment.rename", "error", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)  # checkpoint 1 succeeds
            db.add(facts[0])
            with pytest.raises(InjectedFault):
                durable.checkpoint()
            assert durable.stats.failed_checkpoints == 1
            # The orphaned tmp file was swept; the old segment survives.
            assert not list(tmp_path.glob("*.tmp"))
            assert list(tmp_path.glob("segment-*.seg"))
            durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        assert set(recovered.database().facts) == {facts[0]}

    def test_interrupted_fsync_checkpoint_is_also_swept(self, tmp_path):
        query, schema, facts = self._db()
        plan = FaultPlan([FaultSpec("segment.fsync", "error", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            db.add(facts[0])
            with pytest.raises(InjectedFault):
                durable.checkpoint()
            assert not list(tmp_path.glob("*.tmp"))
            recovered_db = DurableStore.open(tmp_path).database()
            assert set(recovered_db.facts) == {facts[0]}

    def test_orphaned_tmp_files_are_swept_at_open(self, tmp_path):
        query, schema, facts = self._db()
        durable = DurableStore(tmp_path)
        db = durable.database(schema=schema)
        durable.attach(db)
        db.add(facts[0])
        durable.simulate_crash()
        # A crash between tmp write and rename leaves an orphan behind.
        orphan = tmp_path / "segment-000000000099.seg.tmp"
        orphan.write_bytes(b"half-written checkpoint")
        reopened = DurableStore.open(tmp_path)
        assert not orphan.exists()
        assert reopened.stats.tmp_files_swept == 1
        assert set(reopened.database().facts) == {facts[0]}

    def test_commits_after_a_failed_checkpoint_recover(self, tmp_path):
        query, schema, facts = self._db()
        plan = FaultPlan([FaultSpec("segment.rename", "error", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            db.add(facts[0])
            with pytest.raises(InjectedFault):
                durable.checkpoint()
            # The failed checkpoint kept the old segment and changelog, so
            # later commits still append where recovery will look.
            db.add(facts[1])
            durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        assert set(recovered.database().facts) == {facts[0], facts[1]}

    def test_zero_acknowledged_but_lost_batches_under_seeded_chaos(self, tmp_path):
        """The tentpole invariant: acknowledged == recovered, per seed."""
        query, schema, all_facts = self._db()
        for seed in range(6):
            root = tmp_path / f"seed-{seed}"
            plan = FaultPlan.random(
                seed, sites=["wal.write", "wal.fsync"], events=2, horizon=6
            )
            acknowledged = []
            with inject(plan):
                durable = DurableStore(root)
                db = durable.database(schema=schema)
                durable.attach(db)
                for fact in all_facts:
                    try:
                        db.add(fact)
                    except DurabilityError:
                        durable.checkpoint()  # heal, keep going
                        acknowledged.append(fact)  # checkpoint persisted it
                    else:
                        acknowledged.append(fact)
                durable.simulate_crash()
            recovered = DurableStore.open(root)
            assert set(recovered.database().facts) >= set(acknowledged), (
                f"acknowledged-but-lost batch under {plan!r}"
            )


class TestServiceContainment:
    def _queued_query(self):
        # The coNP band queues onto the worker pool.
        return figure2_q1()

    def _service(self, **kwargs):
        svc = CertaintyService(max_workers=2, queue_depth=4, **kwargs)
        query = self._queued_query()
        svc.create_tenant("acme", facts=synthetic_instance(
            query, seed=2, domain_size=3, witnesses=3
        ).facts)
        return svc, query

    def test_queued_fault_feeds_the_circuit_breaker(self):
        svc, query = self._service(breaker_threshold=2, breaker_cooldown=60.0)
        plan = FaultPlan([FaultSpec("service.queued", "error", at=1, count=2)])
        with svc:
            with inject(plan):
                for _ in range(2):
                    ticket = svc.submit("acme", query)
                    with pytest.raises(OSError):
                        ticket.result(timeout=10.0)
                with pytest.raises(CircuitOpen):
                    svc.submit("acme", query)
            stats = svc.stats()
            assert stats["totals"]["shed"] == 1
            assert stats["totals"]["breaker_opens"] == 1
            assert stats["tenants"]["acme"]["breaker"]["state"] == "open"

    def test_fo_band_stays_inline_while_the_breaker_is_open(self):
        svc, query = self._service(breaker_threshold=1, breaker_cooldown=60.0)
        fo_query = open_variant(path_query(3), "x1")
        plan = FaultPlan([FaultSpec("service.queued", "error", at=1)])
        with svc:
            svc.apply(
                "acme",
                [("add", f) for f in synthetic_instance(
                    fo_query, seed=3, domain_size=4, witnesses=6
                ).facts],
            )
            with inject(plan):
                with pytest.raises(OSError):
                    svc.submit("acme", query).result(timeout=10.0)
                with pytest.raises(CircuitOpen):
                    svc.submit("acme", query)
                # The hot path is never shed.
                ticket = svc.submit("acme", fo_query)
                assert ticket.outcome == "inline"
            assert svc.stats()["totals"]["inline_served"] == 1

    def test_breaker_half_open_probe_closes_on_success(self):
        fake_now = [0.0]
        svc, query = self._service(
            breaker_threshold=1, breaker_cooldown=5.0, clock=lambda: fake_now[0]
        )
        plan = FaultPlan([FaultSpec("service.queued", "error", at=1)])
        with svc:
            with inject(plan):
                with pytest.raises(OSError):
                    svc.submit("acme", query).result(timeout=10.0)
            with pytest.raises(CircuitOpen):
                svc.submit("acme", query)
            fake_now[0] = 6.0  # cooldown over: one half-open probe admitted
            assert svc.submit("acme", query).result(timeout=10.0) is not None
            assert svc.admission.breaker_state("acme")["state"] == "closed"
            # Closed again: submissions flow freely.
            svc.submit("acme", query).result(timeout=10.0)

    def test_request_deadline_fails_fast_in_the_queue(self):
        fake_now = [0.0]
        svc, query = self._service(clock=lambda: fake_now[0])
        with svc:
            ticket = svc.submit("acme", query, deadline=10.0)
            assert ticket.result(timeout=10.0) is not None
            fake_now[0] = 100.0
            stalled = svc.submit("acme", query, deadline=-50.0)
            with pytest.raises(DeadlineExceeded):
                stalled.result(timeout=10.0)
            assert svc.stats()["totals"]["deadline_expired"] == 1

    def test_sharded_tenant_contains_worker_kills(self):
        fo_query = open_variant(path_query(3), "x1")
        facts = synthetic_instance(
            fo_query, seed=4, domain_size=6, witnesses=10
        ).facts
        plan = FaultPlan(
            [FaultSpec("shard.worker.command", "kill", at=3, shard=0)]
        )
        with inject(plan):
            with CertaintyService(shard_workers=2) as svc:
                svc.create_tenant("acme", facts=facts)
                tenant = svc.tenant("acme")
                first = svc.submit("acme", fo_query).result(timeout=30.0)
                second = svc.submit("acme", fo_query).result(timeout=30.0)
                third = svc.submit("acme", fo_query).result(timeout=30.0)
                assert first == second == third
                expected = frozenset(certain_answers(tenant.db, fo_query))
                assert third == expected
                assert svc.stats()["tenants"]["acme"]["sharded"] is not None


class TestBreakerProbeContainment:
    """A half-open probe that never reports back must not wedge the tenant.

    The probing flag is normally cleared by the probe's own success or
    failure; these regressions cover the paths where the probe never runs
    at all — cancelled before a worker picked it up, refused at the
    queue-depth cap, or silently stuck behind other work past its window.
    """

    BAND = ComplexityBand.CONP_COMPLETE

    def _controller(self, **kwargs):
        fake_now = [0.0]
        controller = AdmissionController(
            breaker_threshold=1,
            breaker_cooldown=5.0,
            clock=lambda: fake_now[0],
            **kwargs,
        )
        return controller, fake_now

    def _blocker(self, controller, tenant_id, stats):
        """Occupy the pool's only worker until the returned event is set."""
        release = threading.Event()
        ticket = controller.submit(
            tenant_id,
            figure2_q1(),
            self.BAND,
            lambda: release.wait(10.0) and frozenset(),
            stats,
        )
        return release, ticket

    def _submit(self, controller, stats, thunk=lambda: frozenset()):
        return controller.submit("acme", figure2_q1(), self.BAND, thunk, stats)

    def test_cancelled_probe_unwedges_the_breaker(self):
        controller, fake_now = self._controller(max_workers=1, queue_depth=4)
        stats, other_stats = AdmissionStats(), AdmissionStats()

        def boom():
            raise OSError("injected failure")

        with pytest.raises(OSError):
            self._submit(controller, stats, boom).result(timeout=10.0)
        with pytest.raises(CircuitOpen):
            self._submit(controller, stats)
        fake_now[0] = 6.0  # cooldown over: the next submission is the probe
        release, _blocker = self._blocker(controller, "other", other_stats)
        try:
            probe = self._submit(controller, stats)
            assert probe.cancel()  # cancelled before the busy pool ran it
            # The cancelled probe released its claim, so a fresh probe is
            # admitted instead of CircuitOpen shedding the tenant forever.
            ticket = self._submit(controller, stats)
        finally:
            release.set()
        assert ticket.result(timeout=10.0) == frozenset()
        assert controller.breaker_state("acme")["state"] == "closed"
        controller.close()

    def test_probe_refused_at_the_queue_cap_clears_probing(self):
        controller, fake_now = self._controller(max_workers=1, queue_depth=1)
        stats = AdmissionStats()
        release, blocker = self._blocker(controller, "acme", stats)
        try:
            # Trip the breaker with a result-timeout while the tenant's
            # only queue slot stays occupied by the running blocker.
            with pytest.raises(FutureTimeoutError):
                blocker.result(timeout=0.01)
            fake_now[0] = 6.0  # cooldown over: the next submission probes
            for _ in range(2):
                # Both submissions must be refused at the *cap* — the
                # refused probe may not leave its flag shedding the tenant.
                with pytest.raises(AdmissionRejected) as refused:
                    self._submit(controller, stats)
                assert not isinstance(refused.value, CircuitOpen)
        finally:
            release.set()
        controller.close()

    def test_silent_probe_expires_after_the_cooldown(self):
        controller, fake_now = self._controller(max_workers=1, queue_depth=4)
        stats, other_stats = AdmissionStats(), AdmissionStats()
        release, _blocker = self._blocker(controller, "other", other_stats)
        try:
            queued = self._submit(controller, stats)
            with pytest.raises(FutureTimeoutError):
                queued.result(timeout=0.01)  # trips the breaker
            fake_now[0] = 6.0
            self._submit(controller, stats)  # the probe, stuck in the queue
            with pytest.raises(CircuitOpen):
                self._submit(controller, stats)  # one probe at a time
            fake_now[0] = 12.0  # probe silent past its window: presumed lost
            replacement = self._submit(controller, stats)
        finally:
            release.set()
        assert replacement.result(timeout=10.0) == frozenset()
        controller.close()


class TestChaosSmoke:
    """A fast slice of the chaos surface, suitable for a CI smoke step."""

    def test_sharded_smoke(self):
        query = open_variant(path_query(3), "x1")
        db = synthetic_instance(query, seed=0, domain_size=6, witnesses=10)
        plan = FaultPlan.random(0, sites=SHARD_SITES, events=2, n_shards=2)
        with inject(plan):
            with chaos_session(db, 2, False) as session:
                for batch in mutation_stream(query, db, steps=2, seed=1):
                    apply_batch(db, batch)
                    assert session.certain_answers(query) == certain_answers(
                        db, query
                    )

    def test_durability_smoke(self, tmp_path):
        query, schema, facts = (
            parse_query("R(x | y)", free=["x"]),
            parse_query("R(x | y)", free=["x"]).schema(),
            parse_facts(["R('a' | 'b')", "R('c' | 'd')"],
                        schema=parse_query("R(x | y)", free=["x"]).schema()),
        )
        plan = FaultPlan([FaultSpec("wal.fsync", "error", at=2)])
        with inject(plan):
            durable = DurableStore(tmp_path)
            db = durable.database(schema=schema)
            durable.attach(db)
            for fact in facts:
                db.add(fact)
            durable.simulate_crash()
        assert set(DurableStore.open(tmp_path).database().facts) == set(facts)
