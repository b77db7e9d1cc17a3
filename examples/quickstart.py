"""Quickstart: model an uncertain database, classify a query, answer it certainly.

Run with:  python examples/quickstart.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import (
    CertaintySession,
    ShardedCertaintySession,
    UncertainDatabase,
    ViewManager,
    certain_answers,
    certain_rewriting,
    classify,
    is_certain,
    parse_facts,
    parse_query,
)
from repro.certainty import certain_by_enumeration
from repro.query import ground_free_variables


def main() -> None:
    # An employee directory where primary keys may be violated: each employee
    # (key: name) should have one department, each department (key: dept) one
    # city — but ingestion produced conflicting rows.
    query = parse_query("Emp(name | dept), Dept(dept | city)")
    schema = query.schema()
    db = UncertainDatabase(
        parse_facts(
            [
                "Emp('ada' | 'db')",
                "Emp('bob' | 'os')",
                "Emp('bob' | 'net')",      # conflicting department for bob
                "Dept('db' | 'Mons')",
                "Dept('os' | 'Mons')",
                "Dept('net' | 'Paris')",
                "Dept('net' | 'Lille')",   # conflicting city for net
            ],
            schema=schema,
        )
    )
    print("uncertain database:")
    print(db.pretty())
    conflicting = [block for block in db.blocks() if len(block) > 1]
    print(f"\nblocks: {db.num_blocks()}, conflicting blocks: {len(conflicting)}")

    # 1. Where does the Boolean query sit on the tractability frontier?
    classification = classify(query)
    print("\nclassification of the Boolean query:")
    print(classification.explain())

    # 2. Is it certain that *some* employee works in a located department?
    print("\nCERTAINTY(q):", is_certain(db, query))

    # 3. Certain answers of the open query "which employees certainly work in
    #    a department located in Mons?"
    open_query = parse_query("Emp(name | dept), Dept(dept | 'Mons')", free=["name"], schema=schema)
    answers = certain_answers(db, open_query)
    names = sorted(value.value for (value,) in answers)
    print("employees certainly located in Mons:", names)

    # 4. Serving repeated queries: a CertaintySession compiles each query
    #    once (classification + solver dispatch, cached in an LRU plan
    #    cache) and keeps a fact index that is updated incrementally as the
    #    database mutates — no re-classification or re-indexing per call.
    with CertaintySession(db) as session:
        print("\nsession CERTAINTY(q):", session.is_certain(query))
        # Ingest a correction: bob's department conflict is resolved.
        db.discard(schema["Emp"].fact("bob", "net"))
        answers = session.certain_answers(open_query)
        names = sorted(value.value for (value,) in answers)
        print("after resolving bob's conflict, certainly in Mons:", names)
        print("plan cache:", session.plan_cache.stats)

        # 5. Theorem 1, operationally: our query's attack graph is acyclic,
        #    so CERTAINTY(q) has a *certain first-order rewriting* — and the
        #    engine executes exactly that.  The rewriting is compiled once
        #    into a guarded set-at-a-time relational plan (atom scans over
        #    the session's fact index, joins, projections and anti-joins —
        #    never a walk over the whole active domain) and evaluated like
        #    any ordinary query.
        outcome = session.solve(query)
        print("\nsolver method:", outcome.method)             # fo-rewriting
        formula = certain_rewriting(query)
        print("certain FO rewriting:", formula)
        print("db |= rewriting:", session.evaluate_formula(formula))

    # 6. Keeping certain answers fresh: under mutation-heavy traffic,
    #    recomputing certain_answers per write wastes almost all of its
    #    work.  A ViewManager materializes the answer set once, records
    #    which *blocks* each candidate's compiled rewriting actually read
    #    (its support), and on every mutation re-decides only the
    #    candidates whose support was touched — everything else provably
    #    cannot have changed.  Batches coalesce into one maintenance step,
    #    and subscribers receive answer-level deltas.
    with ViewManager(db) as manager:
        view = manager.register(open_query)
        view.subscribe(
            on_insert=lambda t: print("  + now certainly in Mons:", t[0].value),
            on_retract=lambda t: print("  - no longer certain:", t[0].value),
        )
        print("\nmaterialized view:", sorted(v.value for (v,) in view.answers))
        with db.batch():  # one consolidated refresh for the whole batch
            db.add(schema["Emp"].fact("eve", "db"))
            db.add(schema["Dept"].fact("net", "Lille"))
        print("after the batch:", sorted(v.value for (v,) in view.answers))
        print("maintenance stats:", view.stats)
        print("matches a cold recompute:",
              view.answers == frozenset(certain_answers(db, open_query)))

    # 7. The columnar store: under the hood, every session above ran on the
    #    interned columnar store.  Constants are interned once into dense
    #    integer ids (a process-wide append-only table), each relation is
    #    stored as integer columns with per-block id slices, and every hot
    #    kernel — compiled-rewriting joins and anti-joins, candidate
    #    enumeration, purify sweeps, batched deciding — runs on tuples of
    #    small ints instead of Constant objects.  Read sets shrink to dense
    #    block ids.  The paper's definition is the check on all of it: a
    #    tuple is certain iff every repair satisfies its grounding, which
    #    certain_by_enumeration decides literally (exponential in the
    #    number of conflicting blocks, so tiny databases only).
    with CertaintySession(db) as session:
        store = session.store
        print("\ncolumnar store:", store)
        print("store memory:", store.memory_stats())
        answers = session.certain_answers(open_query)
        print("matches repair enumeration:", all(
            (candidate in answers) == certain_by_enumeration(
                db, ground_free_variables(open_query, [c.value for c in candidate])
            )
            for candidate in session.candidate_answers(open_query)
        ))

    # 8. Every band on the id kernels, not just the FO band.  The
    #    Theorem 3 terminal-cycle recursion, the Theorem 4 cycle-query
    #    solver and the coNP brute-force repair search all run on the
    #    session's columnar index — partitioning, pair-purification,
    #    fact-graph construction and the pruned repair search run on
    #    integer rows, and purification threads columnar indexes through
    #    arbitrarily deep residual recursions.  Every solver also records
    #    *static* per-atom support (blocks, key masks, or whole relations), so
    #    materialized views stay fine-grained on every band: a mutation
    #    outside a decision's support never forces a full refresh.
    #    The database's mutation_version is a counter that bumps on every
    #    effective mutation (once per batch), giving a one-int staleness
    #    check.  BENCH_all_bands.json records the per-band decision times.
    from repro.query import figure4_query
    from repro.workloads import synthetic_instance

    ptime_query = figure4_query()          # all attack cycles weak+terminal
    ptime_db = synthetic_instance(ptime_query, seed=1, witnesses=4)
    with CertaintySession(ptime_db) as session:        # columnar id kernels
        outcome = session.solve(ptime_query)
        print("\nPTIME band on ids:", outcome.method,  # theorem3-terminal-cycles
              "->", outcome.certain)
        version = ptime_db.mutation_version
        ptime_db.add(next(iter(ptime_db.facts)))       # no-op: version unchanged
        print("mutation_version:", version, "->", ptime_db.mutation_version)
    with ViewManager(ptime_db) as manager:
        manager.register(ptime_query)
        with ptime_db.batch():                         # version bumps once
            ptime_db.add(ptime_query.atoms[0].relation.fact("w1", "w2"))
        print("full-refresh causes:", manager.full_refresh_causes())

    # 9. Sharding the engine.  A ShardedCertaintySession partitions the
    #    database by hash of block key across long-lived worker processes,
    #    each holding a persistent shard replica.  Mutations never respawn
    #    the pool: observer hooks accumulate per-shard deltas (newly
    #    interned constants plus integer row ids), flushed on the next
    #    dispatch — O(changed facts), not O(database).  A candidate is
    #    decided on the shard owning its blocks; workers re-validate by
    #    checking the recorded read set stayed shard-local, and any
    #    candidate whose support spans shards (here: Emp blocks key on
    #    name, Dept blocks on dept, so they rarely co-locate) falls back
    #    to a parent-side decide — visible in stats.cross_shard_fallbacks.
    #    Answers are always identical to the sequential session's.
    with ShardedCertaintySession(db, n_shards=2, min_shard_candidates=1) as sharded:
        print("\nsharded answers:", sorted(t[0].value for t in sharded.certain_answers(open_query)))
        db.add(schema["Emp"].fact("kay", "os"))        # delta, not a rebuild
        print("after mutation:", sorted(t[0].value for t in sharded.certain_answers(open_query)))
        stats = sharded.stats
        print(f"delta flushes: {stats.delta_flushes}, "
              f"delta bytes: {stats.delta_bytes_shipped}, "
              f"cross-shard fallbacks: {stats.cross_shard_fallbacks}")

    # 10. Serving certain answers.  A CertaintyService hosts isolated
    #     tenants — each gets a private InternTable (its own constant id
    #     space; tenants can never observe each other's ids), database,
    #     session, and views — behind band-aware admission: the
    #     classifier's trichotomy is the scheduling policy.
    #     FO-band requests run inline on the submitting thread (the hot
    #     compiled path); PTIME/coNP requests become futures on a bounded
    #     worker pool with per-tenant queue-depth caps (AdmissionRejected
    #     is the back-pressure signal).  A tenant's view manager is
    #     deferred: a write only merges into one pending changelog, and
    #     the next view read delivers it, so every read is identical to a
    #     cold recompute.  Per-tenant memory
    #     (the InternTable footprint), deferred-view and admission
    #     counters aggregate in svc.stats().
    from repro import CertaintyService

    with CertaintyService(max_workers=2, queue_depth=8) as svc:
        svc.create_tenant(
            "acme",
            facts=parse_facts(
                ["Emp('ada' | 'db')", "Dept('db' | 'Mons')"], schema=schema
            ),
        )
        ticket = svc.submit("acme", open_query)        # FO band -> inline
        print("\nadmission:", ticket.outcome,
              "->", sorted(t[0].value for t in ticket.result()))
        cycle = parse_query("R(x | y), S(y | x)")      # PTIME band -> queued
        queued = svc.submit("acme", cycle)
        print("queued band:", queued.band.name,
              "certain:", queued.result(timeout=5.0) == frozenset({()}))
        tenant = svc.tenant("acme")
        view = tenant.register_view(open_query)
        svc.apply("acme", [("add", schema["Emp"].fact("eve", "db"))])
        print("pending after the write:", tenant.views.pending_mutations)
        print("next read (delivers them):",
              sorted(t[0].value for t in view.answers),
              f"({tenant.views.pending_mutations} pending)")
        totals = svc.stats()["totals"]
        print("service totals:", {k: totals[k] for k in
              ("tenants", "facts", "intern_bytes", "inline_served", "queued")})

    # 11. Surviving restarts.  A DurableStore attached to a database
    #     observes every committed mutation: checkpoint() writes the
    #     database's facts to a checksummed segment snapshot, encoded
    #     through a value dictionary built at write time (so it holds
    #     exactly the live facts' constants), and each commit thereafter
    #     appends its facts' raw values to a write-ahead changelog (fsync
    #     policy via sync="commit"/"flush"/"never").  After a crash,
    #     open() replays snapshot + changelog tail back to the exact
    #     committed state — same facts, same mutation_version, same
    #     certain answers.  A torn or corrupted tail is treated as
    #     uncommitted and dropped at the first damaged frame.
    import tempfile

    from repro import DurableStore

    with tempfile.TemporaryDirectory() as tmp:
        durable_db = UncertainDatabase(
            parse_facts(["Emp('ada' | 'db')", "Dept('db' | 'Mons')"], schema=schema)
        )
        durable = DurableStore(tmp, sync="commit").attach(durable_db)
        durable_db.add(schema["Emp"].fact("eve", "db"))     # logged + fsynced
        info = durable.checkpoint()
        durable_db.add(schema["Dept"].fact("ai", "Mons"))   # changelog tail
        durable.close()                                     # "crash" here

        recovered = DurableStore.open(tmp)                  # segment + tail
        rdb = recovered.database(schema=schema)
        print("\nrecovered facts:", len(rdb), "of", len(durable_db),
              "at version", rdb.mutation_version)
        print("segment facts:", info["facts"],
              "replayed records:", recovered.stats.replayed_records)
        print("answers survive the restart:",
              certain_answers(rdb, open_query)
              == certain_answers(durable_db, open_query))
        recovered.close()

    # 12. Surviving failures.  The same stack stays correct while its
    #     components die mid-request.  repro.faults injects deterministic
    #     faults at the real failure points — worker kills and stalls,
    #     dropped dispatch pipes, torn WAL writes, fsync errors — and the
    #     runtime is built to contain them: the shard supervisor serves
    #     the affected candidates inline, restarts the dead worker with a
    #     fresh bootstrap (backoff-gated), and if a shard keeps dying
    #     degrades sharded -> serial, serving every candidate on the
    #     parent and probing its way back up once the faults clear.  Two
    #     deadlines bound every dispatch: the worker's dispatch window
    #     (missing it kills the worker) and the caller's end-to-end
    #     request budget (blowing it raises DeadlineExceeded but leaves
    #     healthy workers alive — their late replies are fenced by
    #     per-command sequence ids, never paired with a later request).  The service's per-tenant circuit breaker
    #     sheds queued-band load (CircuitOpen) while FO-band requests stay
    #     inline.  Answers under any fault schedule equal a fault-free
    #     recompute — failures cost latency, never correctness.
    from repro import FaultPlan, FaultSpec, inject

    chaos_db = UncertainDatabase(
        parse_facts(
            ["Emp('ada' | 'db')", "Emp('bob' | 'db')", "Dept('db' | 'Mons')"],
            schema=schema,
        )
    )
    for i in range(30):  # enough candidates to engage the shard workers
        chaos_db.add(schema["Emp"].fact(f"e{i}", "db"))
    expected = certain_answers(chaos_db, open_query)
    plan = FaultPlan(
        (
            FaultSpec("shard.worker.command", "kill", at=2, shard=0),
            FaultSpec("shard.pipe", "drop", at=5),
        )
    )
    with inject(plan):
        sharded = ShardedCertaintySession(
            chaos_db, n_shards=2, min_shard_candidates=1, restart_backoff=0.0
        )
        try:
            first = sharded.certain_answers(open_query)   # worker dies mid-call
            second = sharded.certain_answers(open_query)  # restarted + re-bootstrapped
        finally:
            stats = sharded.stats
            sharded.close()
    print("\nanswers under injected faults match:",
          first == expected and second == expected)
    print("worker failures:", stats.worker_failures,
          "restarts:", stats.worker_restarts,
          "degradations:", stats.degradations)


if __name__ == "__main__":
    main()
