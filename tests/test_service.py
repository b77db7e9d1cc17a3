"""The multi-tenant serving layer: tenants, admission control, stats.

Covers the three admission outcomes (inline / queued / rejected), ticket
timeout and cancellation, per-tenant intern-table isolation (the regression
test for the explicit ``table=`` sweep), mutation batches through the
service, stats aggregation, and a concurrent-driver smoke test comparing
every answer against an out-of-band sequential replay.
"""

import threading

import pytest

from repro.certainty.solver import certain_answers
from repro.core.complexity import ComplexityBand
from repro.model.database import UncertainDatabase
from repro.query import cycle_query_c, figure4_query, parse_fact, parse_facts, parse_query
from repro.service import (
    INLINE,
    QUEUED,
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
    CancelledError,
    CertaintyService,
)
from repro.service.admission import FutureTimeoutError
from repro.store import ColumnarFactIndex, global_intern_table
from repro.workloads import multi_tenant_workload, replay_trace, synthetic_instance


def fo_query():
    """R(x|y), S(y|z) with free x — FO band, served inline."""
    return parse_query("R(x | y), S(y | z)", free=["x"])


def queued_query():
    """The Boolean 2-cycle R(x|y), S(y|x) — PTIME but not FO, queued."""
    return parse_query("R(x | y), S(y | x)")


def tenant_facts(prefix):
    return parse_facts(
        [
            f"R('{prefix}k1' | '{prefix}v1')",
            f"R('{prefix}k1' | '{prefix}v2')",
            f"S('{prefix}v1' | '{prefix}w')",
            f"S('{prefix}v2' | '{prefix}w')",
        ]
    )


# -- admission outcomes --------------------------------------------------------------


def test_fo_band_served_inline():
    with CertaintyService() as svc:
        svc.create_tenant("a", facts=tenant_facts("a"))
        ticket = svc.submit("a", fo_query())
        assert ticket.outcome == INLINE
        assert ticket.done
        answers = ticket.result()
        assert {c.value for (c,) in answers} == {"ak1"}
        stats = svc.tenant("a").admission_stats
        assert stats.inline_served == 1
        assert stats.queued == 0


def test_harder_band_queued():
    with CertaintyService() as svc:
        tenant = svc.create_tenant("a", facts=tenant_facts("a"))
        assert tenant.band(queued_query()) is ComplexityBand.PTIME_NOT_FO
        ticket = svc.submit("a", queued_query())
        assert ticket.outcome == QUEUED
        verdict = ticket.result(timeout=10)
        assert verdict == frozenset()  # the 2-cycle is not certain here
        stats = tenant.admission_stats
        assert stats.queued == 1
        assert stats.completed == 1
        assert stats.inline_served == 0


def test_boolean_certain_encodes_as_unit_set():
    with CertaintyService() as svc:
        svc.create_tenant("a", facts=parse_facts(["R('k' | 'v')", "S('v' | 'k')"]))
        assert svc.certain_answers("a", queued_query(), timeout=10) == {()}
        assert svc.is_certain("a", queued_query(), timeout=10)


def test_queue_depth_rejection():
    controller = AdmissionController(max_workers=1, queue_depth=1)
    stats = AdmissionStats()
    release = threading.Event()
    query = queued_query()
    band = ComplexityBand.PTIME_NOT_FO

    def blocked():
        release.wait(10)
        return frozenset()

    first = controller.submit("t", query, band, blocked, stats)
    with pytest.raises(AdmissionRejected) as excinfo:
        controller.submit("t", query, band, blocked, stats)
    assert excinfo.value.tenant_id == "t"
    assert excinfo.value.cap == 1
    assert stats.rejected == 1
    release.set()
    assert first.result(timeout=10) == frozenset()
    assert controller.queue_depth("t") == 0
    controller.close()


def test_rejection_is_per_tenant():
    controller = AdmissionController(max_workers=1, queue_depth=1)
    release = threading.Event()
    query = queued_query()
    band = ComplexityBand.PTIME_NOT_FO
    stats_a, stats_b = AdmissionStats(), AdmissionStats()

    def blocked():
        release.wait(10)
        return frozenset()

    a = controller.submit("a", query, band, blocked, stats_a)
    # Tenant b's queue is empty: the cap of tenant a must not reject b.
    b = controller.submit("b", query, band, blocked, stats_b)
    release.set()
    assert a.result(timeout=10) == b.result(timeout=10) == frozenset()
    assert stats_a.rejected == stats_b.rejected == 0
    controller.close()


def test_ticket_timeout_then_completion():
    controller = AdmissionController(max_workers=1, queue_depth=2)
    stats = AdmissionStats()
    release = threading.Event()

    def blocked():
        release.wait(10)
        return frozenset({("late",)})

    ticket = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    with pytest.raises(FutureTimeoutError):
        ticket.result(timeout=0.01)
    assert stats.timeouts == 1
    release.set()
    assert ticket.result(timeout=10) == frozenset({("late",)})
    assert stats.completed == 1
    controller.close()


def test_result_timeout_that_trips_the_breaker_is_counted():
    """A breaker opened by a ``result(timeout)`` expiry shows in the
    tenant's admission stats and the service totals, as in
    ``breaker_state``."""
    release = threading.Event()

    def blocked():
        release.wait(10)
        return frozenset()

    with CertaintyService(max_workers=1, breaker_threshold=1, breaker_cooldown=60.0) as svc:
        tenant = svc.create_tenant("a", facts=tenant_facts("a"))
        ticket = svc.admission.submit(
            "a", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, tenant.admission_stats
        )
        try:
            with pytest.raises(FutureTimeoutError):
                ticket.result(timeout=0.01)
        finally:
            release.set()
        assert svc.admission.breaker_state("a")["opens"] == 1
        assert tenant.admission_stats.breaker_opens == 1
        assert svc.stats()["totals"]["breaker_opens"] == 1


def test_cancel_releases_queue_slot():
    controller = AdmissionController(max_workers=1, queue_depth=1)
    stats = AdmissionStats()
    release = threading.Event()

    def blocked():
        release.wait(10)
        return frozenset()

    running = controller.submit(
        "hog", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    # The single worker is busy with "hog"; this one sits in the pool queue
    # and can still be cancelled before it starts.
    waiting = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    assert waiting.cancel()
    assert stats.cancelled == 1
    assert controller.queue_depth("t") == 0
    with pytest.raises(CancelledError):
        waiting.result(timeout=1)
    release.set()
    assert running.result(timeout=10) == frozenset()
    controller.close()


def test_inline_ticket_cannot_cancel():
    with CertaintyService() as svc:
        svc.create_tenant("a", facts=tenant_facts("a"))
        ticket = svc.submit("a", fo_query())
        assert not ticket.cancel()


def test_abandoning_a_running_request_releases_the_slot():
    # Regression: cancelling a ticket whose worker thread already started
    # used to leave the queue slot held until the thread finished — a
    # caller that gave up could pin the tenant at its depth cap.
    controller = AdmissionController(max_workers=1, queue_depth=1)
    stats = AdmissionStats()
    started = threading.Event()
    release = threading.Event()

    def blocked():
        started.set()
        release.wait(10)
        return frozenset()

    running = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    assert started.wait(10)
    # The request is running: cancel() cannot stop it, but must abandon it.
    assert not running.cancel()
    assert running.abandoned
    assert stats.abandoned == 1
    assert controller.queue_depth("t") == 0
    # The freed slot admits new work immediately, at depth cap 1.
    follow_up = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO,
        lambda: frozenset({("next",)}), stats,
    )
    release.set()
    assert follow_up.result(timeout=10) == frozenset({("next",)})
    # The orphaned thread finishing must not double-release the slot.
    assert running.result(timeout=10) == frozenset()
    assert controller.queue_depth("t") == 0
    # A second cancel() is a no-op: no double abandon counting.
    running.cancel()
    assert stats.abandoned == 1
    controller.close()


def test_abandoned_slot_never_double_releases_under_new_load():
    controller = AdmissionController(max_workers=2, queue_depth=2)
    stats = AdmissionStats()
    release = threading.Event()

    def blocked():
        release.wait(10)
        return frozenset()

    first = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    second = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO, blocked, stats
    )
    first.cancel()
    second.cancel()
    assert controller.queue_depth("t") == 0
    release.set()
    first.result(timeout=10)
    second.result(timeout=10)
    # Depth must settle at zero, not underflow past it via double releases.
    assert controller.queue_depth("t") == 0
    third = controller.submit(
        "t", queued_query(), ComplexityBand.PTIME_NOT_FO,
        lambda: frozenset(), stats,
    )
    assert third.result(timeout=10) == frozenset()
    controller.close()


# -- intern isolation (regression for the explicit table sweep) ----------------------


def test_two_tenants_never_share_intern_ids():
    with CertaintyService() as svc:
        a = svc.create_tenant("a", facts=tenant_facts("a"))
        b = svc.create_tenant("b", facts=tenant_facts("b"))
        # Warm both hot paths so the columnar stores intern everything.
        svc.certain_answers("a", fo_query())
        svc.certain_answers("b", fo_query())
        values_a = set(a.intern_table.snapshot())
        values_b = set(b.intern_table.snapshot())
        assert values_a and values_b
        assert not values_a & values_b
        # Same numeric ids exist in both tables but decode to different
        # constants — the id spaces are private, not merely disjoint ranges.
        assert len(a.intern_table) > 0 and len(b.intern_table) > 0
        shared_ids = range(min(len(a.intern_table), len(b.intern_table)))
        assert all(
            a.intern_table.constant(i) != b.intern_table.constant(i)
            for i in shared_ids
        )


def test_session_store_uses_private_table():
    with CertaintyService() as svc:
        tenant = svc.create_tenant("a", facts=tenant_facts("a"))
        store = tenant.session.store
        assert store is not None
        assert store.table is tenant.intern_table


def test_solver_scratch_indexes_grow_no_shared_table():
    """Solver scratch indexes of Theorem 3/4 decisions intern into private tables.

    Each round writes a witness and a noise fact over fresh constants,
    decides, and undoes the writes.  The noise fact lies in no witness, so
    the decision purifies the database, and a one-shot solver would index
    it afresh.  Such an index must grow neither the process-wide table nor
    the tenant's: every constant in a tenant's table is one that some write
    to that tenant brought in.
    """
    baseline = len(global_intern_table())
    with CertaintyService() as svc:
        tenants = []
        for name, query in (("thm3", figure4_query()), ("thm4", cycle_query_c(3))):
            facts = synthetic_instance(query, seed=3, domain_size=4, witnesses=4).facts
            written = {value for fact in facts for value in fact.values}
            tenants.append((name, svc.create_tenant(name, facts=facts), query, written))
        for step in range(5):
            for name, _tenant, query, written in tenants:
                tag = f"{name}-fresh-{step}"
                witness = [
                    atom.relation.fact(*[f"{tag}-{term.name}" for term in atom.terms])
                    for atom in query.atoms
                ]
                relation = query.atoms[0].relation
                noise = relation.fact(*[f"{tag}-noise-{i}" for i in range(relation.arity)])
                writes = witness + [noise]
                written.update(value for fact in writes for value in fact.values)
                svc.apply(name, [("add", fact) for fact in writes])
                svc.is_certain(name, query, timeout=30)
                svc.apply(name, [("discard", fact) for fact in writes])
        for _name, tenant, _query, written in tenants:
            assert set(tenant.intern_table.snapshot()) <= written
    assert len(global_intern_table()) == baseline


def test_sharded_tenant_keeps_one_session():
    """A sharded tenant's database carries one index: the sharded session's
    inline session is the tenant's session, not a second copy."""
    with CertaintyService(shard_workers=2) as svc:
        tenant = svc.create_tenant("a", facts=tenant_facts("a"))
        indexes = [
            observer
            for observer in tenant.db._observers
            if isinstance(observer, ColumnarFactIndex)
        ]
        assert len(indexes) == 1
        assert tenant.session is tenant.sharded.session
        assert svc.certain_answers("a", fo_query()) == certain_answers(
            tenant.db, fo_query()
        )


# -- mutations, views, lifecycle -----------------------------------------------------


def test_mutation_batch_through_service():
    with CertaintyService() as svc:
        svc.create_tenant("a", facts=tenant_facts("a"))
        before = svc.certain_answers("a", fo_query())
        svc.apply(
            "a",
            [
                ("add", parse_fact("R('ak2' | 'av9')")),
                ("add", parse_fact("S('av9' | 'aw')")),
            ],
        )
        after = svc.certain_answers("a", fo_query())
        assert {c.value for (c,) in before} == {"ak1"}
        assert {c.value for (c,) in after} == {"ak1", "ak2"}


def test_view_reads_fresh_under_default_policy():
    with CertaintyService() as svc:
        tenant = svc.create_tenant("a", facts=tenant_facts("a"))
        view = tenant.register_view(fo_query())
        svc.apply(
            "a",
            [
                ("add", parse_fact("R('ak2' | 'av9')")),
                ("add", parse_fact("S('av9' | 'aw')")),
            ],
        )
        # Default policy: maintenance deferred on write, flushed on read.
        assert {c.value for (c,) in view.answers} == {"ak1", "ak2"}
        assert tenant.views.pending_mutations == 0


def test_drop_tenant_closes_state():
    svc = CertaintyService()
    tenant = svc.create_tenant("a", facts=tenant_facts("a"))
    svc.drop_tenant("a")
    assert tenant.closed
    with pytest.raises(KeyError):
        svc.tenant("a")
    with pytest.raises(RuntimeError):
        tenant.execute(fo_query())
    svc.close()
    assert svc.closed
    with pytest.raises(RuntimeError):
        svc.create_tenant("b")


def test_duplicate_tenant_rejected():
    with CertaintyService() as svc:
        svc.create_tenant("a")
        with pytest.raises(ValueError):
            svc.create_tenant("a")


# -- stats ---------------------------------------------------------------------------


def test_stats_aggregate_memory_and_admission():
    with CertaintyService() as svc:
        svc.create_tenant("a", facts=tenant_facts("a"))
        svc.create_tenant("b", facts=tenant_facts("b"))
        svc.certain_answers("a", fo_query())
        svc.certain_answers("a", queued_query(), timeout=10)
        stats = svc.stats()
        assert set(stats["tenants"]) == {"a", "b"}
        totals = stats["totals"]
        assert totals["tenants"] == 2
        assert totals["facts"] == 8
        assert totals["inline_served"] == 1
        assert totals["queued"] == totals["completed"] == 1
        per_a = stats["tenants"]["a"]
        assert per_a["intern_memory"]["constants"] == len(
            svc.tenant("a").intern_table
        )
        assert per_a["intern_memory"]["total_bytes"] > 0
        assert totals["intern_bytes"] >= per_a["intern_memory"]["total_bytes"]
        assert per_a["queue_depth"] == 0
        assert "staleness" in per_a and "admission" in per_a


# -- concurrency smoke ---------------------------------------------------------------


def test_concurrent_tenants_match_sequential_replay():
    workload = multi_tenant_workload(num_tenants=4, steps=16, seed=11)
    failures = []
    with CertaintyService(max_workers=2, queue_depth=16) as svc:
        for trace in workload.traces:
            svc.create_tenant(trace.tenant_id, facts=trace.facts)

        def drive(trace):
            expected = dict(replay_trace(trace))
            for index, (kind, payload) in enumerate(trace.steps):
                if kind == "write":
                    svc.apply(trace.tenant_id, payload)
                    continue
                got = svc.certain_answers(trace.tenant_id, payload, timeout=30)
                if got != expected[index]:
                    failures.append((trace.tenant_id, index))

        threads = [
            threading.Thread(target=drive, args=(trace,))
            for trace in workload.traces
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # Cross-tenant isolation held up under concurrency too.
        snapshots = [
            set(svc.tenant(trace.tenant_id).intern_table.snapshot())
            for trace in workload.traces
        ]
        for i, left in enumerate(snapshots):
            for right in snapshots[i + 1 :]:
                assert not left & right


def test_replay_matches_cold_recompute():
    (trace,) = multi_tenant_workload(num_tenants=1, steps=12, seed=3).traces
    replayed = dict(replay_trace(trace))
    # Re-derive the final database state and cross-check the last read.
    db = UncertainDatabase(trace.facts)
    last_read = None
    for index, (kind, payload) in enumerate(trace.steps):
        if kind == "write":
            for op_kind, fact in payload:
                (db.add if op_kind == "add" else db.discard)(fact)
        elif index in replayed:
            last_read = (index, payload)
    if last_read is not None:
        index, query = last_read
        # Not comparable mid-trace; recompute only for reads at the end
        # (no writes after them).
        trailing = all(
            kind != "write" for kind, _ in trace.steps[index + 1 :]
        )
        if trailing:
            if query.is_boolean:
                expected = replayed[index] == frozenset({()})
                from repro.certainty.solver import is_certain

                assert is_certain(db, query, allow_exponential=True) == expected
            else:
                assert (
                    frozenset(certain_answers(db, query, allow_exponential=True))
                    == replayed[index]
                )
