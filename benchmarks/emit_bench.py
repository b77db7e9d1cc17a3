"""Emit benchmark JSON reports recording the engine's performance trajectory.

Seven suites:

``fo_rewriting`` (default) → ``BENCH_fo_rewriting.json``
    Times the certain first-order rewriting of Theorem 1 under the two
    evaluation strategies of :class:`repro.fo.evaluate.FormulaEvaluator` —
    the naive active-domain recursion and the compiled set-at-a-time plans
    of :mod:`repro.fo.compile` — on a scaling workload and checks that they
    agree.  The workload (:func:`fo_bench_instance`) is adversarial for the
    naive strategy: the early relations of a path query are dense while the
    final relation is sparse, so the instance is rarely certain and the
    naive evaluator must exhaust the ``|adom|^k`` quantifier space before
    concluding — exactly the exponential behaviour the compiled plans
    eliminate.

``incremental_views`` → ``BENCH_incremental_views.json``
    Times a :class:`repro.incremental.ViewManager`-maintained certain-answer
    view against recompute-per-mutation over a stream of single-block
    mutations, at several database scales.  After every mutation the
    maintained answers are differentially checked against a cold
    ``certain_answers``, and the support index is used to assert that the
    view re-decided *exactly* the candidates whose decisions read the
    mutated block (plus delta-discovered new candidates) — the block-local
    maintenance the paper's FO rewritings make possible.

``sharded_runtime`` → ``BENCH_sharded_runtime.json``
    Times the delta-shipped shard runtime
    (:class:`repro.engine.ShardedCertaintySession`: long-lived block-hash
    -sharded workers receiving O(delta) mutation payloads) against the
    sequential :class:`repro.engine.CertaintySession` at 1/2/4 workers on
    a mixed read/write stream — bursty, Zipf-skewed mutation batches
    interleaved with ``certain_answers`` reads.  The identical
    pre-recorded stream replays under both; after every step the sharded
    answers are checked against the sequential replay, and the run
    asserts that the largest single delta flush stays below the session's
    own bootstrap payload, which ships the whole database in the same
    wire format (bytes shipped scale with the delta, not the database).
    The sharded timing includes worker spawn and bootstrap;
    ``speedup_vs_sequential`` below 1 means the shards lose to the
    sequential session (``cpu_count`` is recorded alongside).

``all_bands`` → ``BENCH_all_bands.json``
    Times one workload per complexity band of the trichotomy through an
    engine session, reporting absolute best-of-3 ``seconds`` per (band,
    size): the FO band (compiled rewriting on an open path query), the
    PTIME-not-FO band (Theorem 3 terminal-cycle recursion on the Figure 4
    query), the PTIME cycle-query band (Theorem 4 on ``C(3)`` ring
    instances), and the coNP band (the pruned brute-force repair search on
    Figure 2's ``q1`` over gadget instances whose conflicts live only in
    ``T``, keeping the search tree linear).  The coNP band also decides a
    certain variant whose answer is known by construction and asserts it.
    Absolute times are machine-dependent, so no regression guard compares
    them.

``service_load`` → ``BENCH_service_load.json``
    Drives N concurrent tenants (deterministic mixed read/write traces,
    Zipf-skewed keys, tenant-prefixed constants) through the multi-tenant
    :class:`repro.service.CertaintyService` and compares against a
    sequential per-tenant replay on throwaway engine sessions.  Band-aware
    admission routes FO-band reads inline (p50/p95 latency reported
    separately) and queues PTIME-band reads onto the bounded worker pool
    (completion p50/p95).  Every answer is asserted identical in-run to the
    sequential replay, and the tenants' private intern tables are asserted
    pairwise disjoint — zero cross-tenant id collisions.

``durability`` → ``BENCH_durability.json``
    Times cold restart from the durability tier
    (:class:`repro.durability.DurableStore`: checksummed segment snapshot
    + framed write-ahead changelog) against rebuilding the database by
    replaying the full mutation history from its initial facts.  One
    mutation stream runs per *tail* size; the checkpoint lands ``tail``
    mutations before the end, so restart decodes the segment and replays
    exactly ``tail`` changelog records (``tail=0`` is the snapshot-only
    restart, the largest tail replays the whole log).  Both legs are timed
    to the same finish line — a served ``certain_answers`` — and every
    restart asserts in-run that the recovered facts, ``mutation_version``,
    and certain answers equal the pre-crash live state.  Single-process,
    so the guarded restart-vs-rebuild ratio holds on any CI box.

``fault_recovery`` → ``BENCH_fault_recovery.json``
    Replays the sharded-runtime mutation stream twice — fault-free, then
    under a deterministic :class:`repro.faults.FaultPlan` that kills shard
    workers mid-stream and drops a dispatch pipe — and records how much of
    the clean throughput the supervised runtime retains while every
    per-step answer set stays identical to a sequential replay
    (``throughput_retained_under_faults``; no answer may differ, degrade,
    or be dropped while workers die).  Post-kill dispatches (the ones that
    re-spawn and re-bootstrap a worker) are timed separately:
    ``recovery_p50_seconds`` / ``recovery_max_seconds``, with
    ``recovery_responsiveness`` comparing them against the fault-free
    per-step p50.  A durability leg drives the same stream through a
    ``sync="commit"`` :class:`repro.durability.DurableStore` under injected
    fsync failures and a torn changelog write, crashes, recovers, and
    asserts zero acknowledged-but-lost batches.

Run with::

    PYTHONPATH=src python benchmarks/emit_bench.py            # full sizes
    PYTHONPATH=src python benchmarks/emit_bench.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/emit_bench.py --suite sharded_runtime
    PYTHONPATH=src python benchmarks/emit_bench.py --suite incremental_views
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.durability import DurableStore
from repro.engine import CertaintySession, ShardedCertaintySession
from repro.faults import FaultPlan, FaultSpec, inject
from repro.fo import certain_rewriting_cached, compile_formula, evaluate_sentence
from repro.model.database import UncertainDatabase
from repro.model.symbols import Variable
from repro.query import parse_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.families import figure2_q1, figure4_query, path_query
from repro.service import INLINE, CertaintyService
from repro.workloads import (
    apply_batch,
    bursty_mutation_stream,
    multi_tenant_workload,
    mutation_stream,
    replay_trace,
    synthetic_instance,
    zipfian_instance,
)
from repro.workloads.instances import ring_instance

#: Default scaling sizes (active-domain size n; facts grow linearly in n).
FULL_SIZES = (8, 16, 32, 64, 96)
SMOKE_SIZES = (8, 16)


def bench_query() -> ConjunctiveQuery:
    """The benchmark query: ``path_query(3)``, an FO-band three-atom chain."""
    return path_query(3)


def fo_bench_instance(query: ConjunctiveQuery, size: int, seed: int = 5) -> UncertainDatabase:
    """A database of scale *size* that is hard for naive FO evaluation.

    All but the last relation receive ``2·size`` random facts over a
    domain of *size* constants; the last relation only ``size // 4`` — so
    witnesses almost never complete, certainty usually fails, and the naive
    evaluator cannot short-circuit its quantifier loops.
    """
    rng = random.Random(seed)
    domain = [f"c{i}" for i in range(size)]
    relations = [atom.relation for atom in query.atoms]
    db = UncertainDatabase()
    for position, relation in enumerate(relations):
        count = 2 * size if position < len(relations) - 1 else max(1, size // 4)
        for _ in range(count):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return db


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(sizes: Sequence[int], repeats: int = 3, seed: int = 5) -> Dict:
    """Time naive vs compiled evaluation per size; verify agreement."""
    query = bench_query()
    formula = certain_rewriting_cached(query)
    compile_start = time.perf_counter()
    compile_formula(formula)
    compile_seconds = time.perf_counter() - compile_start

    results: List[Dict] = []
    for size in sizes:
        db = fo_bench_instance(query, size, seed=seed)
        compiled_result = evaluate_sentence(db, formula, compiled=True)
        naive_result = evaluate_sentence(db, formula, compiled=False)
        agree = compiled_result == naive_result
        compiled_seconds = _best_of(
            repeats, lambda: evaluate_sentence(db, formula, compiled=True)
        )
        naive_seconds = _best_of(
            repeats, lambda: evaluate_sentence(db, formula, compiled=False)
        )
        results.append(
            {
                "size": size,
                "facts": len(db),
                "certain": compiled_result,
                "agree": agree,
                "naive_seconds": naive_seconds,
                "compiled_seconds": compiled_seconds,
                "speedup": naive_seconds / compiled_seconds if compiled_seconds else None,
            }
        )
    return {
        "benchmark": "fo_rewriting",
        "query": str(query),
        "formula_compile_seconds": compile_seconds,
        "repeats": repeats,
        "results": results,
        "largest_size_speedup": results[-1]["speedup"] if results else None,
        "all_agree": all(r["agree"] for r in results),
    }


def parallel_bench_query() -> ConjunctiveQuery:
    """The FO-band open query: ``path_query(3)`` with its head variable free."""
    base = path_query(3)
    return ConjunctiveQuery(base.atoms, free_variables=[Variable("x1")])


def parallel_bench_instance(
    query: ConjunctiveQuery, candidates: int, seed: int = 13
) -> UncertainDatabase:
    """A database with ~*candidates* candidate answers and heavy key conflicts.

    Each candidate ``x1 = s{i}`` roots one witness chain; every chain link
    gets extra key-conflicting facts so the certain rewriting must reason
    over multi-fact blocks for every candidate.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    db = UncertainDatabase()
    for i in range(candidates):
        chain = [f"s{i}"] + [f"v{i}_{level}" for level in range(1, len(relations) + 1)]
        conflicted = rng.random() < 0.75  # ~25% of chains stay certain
        for level, relation in enumerate(relations):
            db.add(relation.fact(chain[level], chain[level + 1]))
            if conflicted:
                # Conflicting claims inside the block of every chain link.
                # Live targets (other chains' nodes) keep the rewriting's
                # universal quantifier chasing real continuations; dead
                # targets give the falsifier a pick with no continuation, so
                # a fair share of candidates decide NOT-certain and every
                # cross-check covers both branches.
                for conflict in range(3):
                    if conflict == 0 and level < len(relations) - 1:
                        # No fact ever continues from a dead node, so a
                        # repair picking this conflict breaks the chain.
                        target = f"dead{rng.randrange(candidates)}"
                    else:
                        target = f"v{rng.randrange(candidates)}_{level + 1}"
                    db.add(relation.fact(chain[level], target))
        # Cross-links between chains keep the join fan-out honest.
        for _ in range(3):
            level = rng.randrange(len(relations))
            relation = relations[level]
            db.add(
                relation.fact(
                    f"v{rng.randrange(candidates)}_{level}",
                    f"v{rng.randrange(candidates)}_{level + 1}",
                )
            )
    return db


#: Planted same-key pairs for the sharded_runtime suite (candidate volume).
SHARDED_FULL_SIZES = (64, 256)
SHARDED_SMOKE_SIZES = (16, 48)

#: Shard/worker counts, each compared against the sequential session.
SHARDED_WORKER_COUNTS = (1, 2, 4)

#: Mutation batches interleaved with reads in the replayed stream.
SHARDED_FULL_STEPS = 12
SHARDED_SMOKE_STEPS = 5


def sharded_bench_query() -> ConjunctiveQuery:
    """An open same-key join: both atoms key on ``x``.

    Every candidate's support lives in the two blocks keyed by its own
    ``x`` value, which hash to one shard, so decisions stay shard-local
    (no cross-shard fallbacks) and the benchmark measures the runtime, not
    the routing miss path.  The ``'ok'``-constant atom keeps the query
    discriminating: a candidate is certain iff *every* fact in its
    ``S``-block carries ``'ok'``, so the stream's key-conflicting bursts
    flip answers in both directions.
    """
    return parse_query("R(x | y), S(x | 'ok')", free=["x"])


def sharded_bench_instance(
    query: ConjunctiveQuery, size: int, seed: int = 29
) -> UncertainDatabase:
    """*size* planted same-key pairs over a Zipf-skewed noise instance.

    Each pair ``x = s{i}`` contributes one candidate; ~40% get a non-OK
    ``S`` conflict (not certain) and ~30% an extra ``R`` conflict (certain,
    but the rewriting must reason over a multi-fact block).  The Zipfian
    background adds hot blocks the mutation stream keeps hammering.
    """
    rng = random.Random(seed)
    db = zipfian_instance(
        query,
        seed=seed + 1,
        domain_size=max(8, size // 2),
        facts_per_relation=size // 2,
    )
    schema = query.schema()
    relation_r, relation_s = schema["R"], schema["S"]
    for i in range(size):
        key = f"s{i}"
        db.add(relation_r.fact(key, f"w{i}"))
        db.add(relation_s.fact(key, "ok"))
        if rng.random() < 0.4:
            db.add(relation_s.fact(key, f"bad{i}"))
        if rng.random() < 0.3:
            db.add(relation_r.fact(key, f"alt{i}"))
    return db


def _record_stream(query, db0, steps: int, seed: int):
    """Materialize a bursty mutation stream so every strategy replays the
    exact same batches (the generator's live contract needs a scratch db)."""
    scratch = db0.copy()
    batches = []
    for batch in bursty_mutation_stream(query, scratch, steps=steps, seed=seed):
        batches.append(batch)
        apply_batch(scratch, batch)
    return batches


def _replay_stream(db0, batches, query, make_session):
    """Replay the recorded mixed read/write stream on a fresh database copy.

    Returns ``(seconds, per_step_answers, session)`` — the session is
    already closed; its stats survive for the caller to read.
    """
    db = db0.copy()
    session = make_session(db)
    try:
        start = time.perf_counter()
        per_step = [session.certain_answers(query)]
        for batch in batches:
            apply_batch(db, batch)
            per_step.append(session.certain_answers(query))
        seconds = time.perf_counter() - start
    finally:
        session.close()
    return seconds, per_step, session


def run_sharded_benchmark(
    sizes: Sequence[int], steps: int, repeats: int = 3, seed: int = 29
) -> Dict:
    """Delta-shipped shards vs the sequential session on a mutation stream.

    Per size the same pre-recorded batches replay under a sequential
    :class:`CertaintySession` (the per-step ground truth and the timing
    baseline) and under the delta-shipped :class:`ShardedCertaintySession`
    at each worker count, answers checked step-by-step against the
    sequential run.
    """
    query = sharded_bench_query()
    results: List[Dict] = []
    all_agree = True
    all_deltas_below_bootstrap = True
    for size in sizes:
        db0 = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db0, steps, seed=seed + 7)
        mutated_facts = sum(len(batch) for batch in batches)

        sequential_seconds = float("inf")
        expected = None
        for _ in range(repeats):
            seconds, per_step, _session = _replay_stream(
                db0, batches, query, lambda db: CertaintySession(db)
            )
            sequential_seconds = min(sequential_seconds, seconds)
            expected = per_step

        worker_rows: List[Dict] = []
        for workers in SHARDED_WORKER_COUNTS:
            sharded_seconds = float("inf")
            fastest_session = None
            agree = True
            for _ in range(repeats):
                seconds, per_step, session = _replay_stream(
                    db0,
                    batches,
                    query,
                    lambda db: ShardedCertaintySession(
                        db, n_shards=workers, min_shard_candidates=1
                    ),
                )
                agree = agree and per_step == expected
                if seconds < sharded_seconds:
                    sharded_seconds, fastest_session = seconds, session

            stats = fastest_session.stats
            # The bootstrap ships the whole database in the wire format the
            # deltas use, so every delta flush must undercut it.
            delta_below_bootstrap = (
                stats.max_flush_bytes < stats.bootstrap_bytes_shipped
            )
            all_agree = all_agree and agree
            all_deltas_below_bootstrap = (
                all_deltas_below_bootstrap and delta_below_bootstrap
            )
            worker_rows.append(
                {
                    "workers": workers,
                    "sharded_seconds": sharded_seconds,
                    "speedup_vs_sequential": (
                        sequential_seconds / sharded_seconds
                        if sharded_seconds
                        else None
                    ),
                    "delta_flushes": stats.delta_flushes,
                    "delta_bytes_shipped": stats.delta_bytes_shipped,
                    "delta_facts_shipped": stats.delta_facts_shipped,
                    "max_flush_bytes": stats.max_flush_bytes,
                    "bootstrap_bytes_shipped": stats.bootstrap_bytes_shipped,
                    "delta_below_bootstrap": delta_below_bootstrap,
                    "shard_decides": stats.shard_decides,
                    "parent_decides": stats.parent_decides,
                    "cross_shard_fallbacks": stats.cross_shard_fallbacks,
                    "worker_restarts": stats.worker_restarts,
                    "agree": agree,
                }
            )
        results.append(
            {
                "size": size,
                "facts": len(db0),
                "steps": steps,
                "mutated_facts": mutated_facts,
                "certain_answers_final": len(expected[-1]),
                "sequential_seconds": sequential_seconds,
                "workers": worker_rows,
            }
        )
    return {
        "benchmark": "sharded_runtime",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "results": results,
        "all_agree": all_agree,
        "all_deltas_below_bootstrap": all_deltas_below_bootstrap,
    }


#: Planted-chain counts for the incremental_views suite.
INCREMENTAL_FULL_SIZES = (64, 256, 1024)
INCREMENTAL_SMOKE_SIZES = (16, 48)

#: Single-block mutations applied (and differentially checked) per size.
INCREMENTAL_FULL_MUTATIONS = 12
INCREMENTAL_SMOKE_MUTATIONS = 6


def _incremental_mutations(query, chains: int, count: int, seed: int):
    """Single-block mutations against a ``parallel_bench_instance`` database.

    Each mutation adds one key-conflicting fact to the block of an existing
    chain link — the block-local write pattern a mutation-heavy workload
    produces — so the support index can be checked for exact dirtying.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    ops = []
    for m in range(count):
        level = rng.randrange(len(relations))
        chain = rng.randrange(chains)
        node = f"s{chain}" if level == 0 else f"v{chain}_{level}"
        ops.append(relations[level].fact(node, f"mut{m}"))
    return ops


def run_incremental_benchmark(
    sizes: Sequence[int], mutations: int, seed: int = 21
) -> Dict:
    """Maintained view vs recompute-per-mutation, differentially checked."""
    from repro.incremental import ViewManager, delta_candidates
    from repro.model.database import ChangeSet

    query = parallel_bench_query()
    results: List[Dict] = []
    all_agree = True
    only_dependents = True
    for chains in sizes:
        db = parallel_bench_instance(query, chains, seed=seed)
        with CertaintySession(db) as cold_session, ViewManager(db) as manager:
            materialize_start = time.perf_counter()
            view = manager.register(query)
            materialize_seconds = time.perf_counter() - materialize_start
            assert view.fine_grained, "the FO-band open query must be fine-grained"
            candidate_count = len(view.tracked_candidates)

            maintain_seconds = 0.0
            recompute_seconds = 0.0
            dirty_sizes: List[int] = []
            decisions_before = view.stats.decisions
            for fact in _incremental_mutations(query, chains, mutations, seed + 1):
                expected = view.support.dirty_for(ChangeSet(added=(fact,)))
                tracked_before = view.tracked_candidates
                start = time.perf_counter()
                db.add(fact)  # index update + incremental view maintenance
                maintain_seconds += time.perf_counter() - start
                # Exact dirtying: the view decided the support-dirty
                # candidates plus the delta-discovered new ones — nothing else.
                new = {
                    c
                    for c in delta_candidates(query, manager.session.index, [fact])
                    if c not in tracked_before
                }
                if view.stats.last_decided != len(expected | new):
                    only_dependents = False
                dirty_sizes.append(view.stats.last_decided)
                start = time.perf_counter()
                recomputed = cold_session.certain_answers(query)
                recompute_seconds += time.perf_counter() - start
                if view.answers != recomputed:
                    all_agree = False
        decisions = view.stats.decisions - decisions_before
        results.append(
            {
                "planted_chains": chains,
                "facts": len(db),
                "candidate_answers": candidate_count,
                "mutations": mutations,
                "materialize_seconds": materialize_seconds,
                "maintain_seconds": maintain_seconds,
                "recompute_seconds": recompute_seconds,
                "speedup_vs_recompute": (
                    recompute_seconds / maintain_seconds if maintain_seconds else None
                ),
                "view_decisions": decisions,
                "recompute_decisions": mutations * candidate_count,
                "avg_dirty": sum(dirty_sizes) / len(dirty_sizes) if dirty_sizes else 0,
                "max_dirty": max(dirty_sizes) if dirty_sizes else 0,
                "incremental_refreshes": view.stats.incremental_refreshes,
                "full_refreshes": view.stats.full_refreshes,
            }
        )
    return {
        "benchmark": "incremental_views",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "results": results,
        "all_agree": all_agree,
        "support_dirties_only_dependents": only_dependents,
        "largest_size_speedup": (
            results[-1]["speedup_vs_recompute"] if results else None
        ),
    }


#: Scale parameter per band for the all_bands suite (chains / planted
#: witnesses / ring copies / conflict gadgets, depending on the band).  The
#: smoke sizes are a prefix of the full sizes, so a smoke report is
#: comparable with the committed baseline cell by cell.
ALL_BANDS_FULL_SIZES = (8, 16, 64, 256)
ALL_BANDS_SMOKE_SIZES = (8, 16)


def figure4_band_instance(size: int, seed: int = 31) -> UncertainDatabase:
    """A scaling instance for the Figure 4 query (PTIME-not-FO band)."""
    return synthetic_instance(
        figure4_query(),
        seed=seed,
        domain_size=2 * size,
        witnesses=size,
        noise_per_relation=size,
        conflict_rate=0.4,
    )


def conp_band_instance(gadgets: int, falsifiable: bool = True) -> UncertainDatabase:
    """A Figure 2 ``q1`` instance with all conflicts confined to ``T``.

    Each gadget plants one witness whose ``R``/``S``/``P`` blocks are
    singletons; only its ``T`` block carries a conflicting claim
    ``T(x_i, w_i)`` with no matching ``S`` row, so choosing it breaks the
    gadget's witness.  The repair search therefore walks forced singleton
    choices followed by one binary choice per ``T`` block, and its pruning
    (a branch with a completed witness can never falsify) makes the tree
    *linear* in the gadget count — the falsifying repair picks the bad
    claim in every ``T`` block.

    With ``falsifiable=False`` an unbreakable witness over ``.``-prefixed
    constants is inserted first: its constants intern first, so the
    id-ordered block sweep decides its singleton blocks first, completes
    the witness, and prunes every branch immediately — the certain verdict
    is also linear.
    """
    query = figure2_q1()
    schema = {atom.relation.name: atom.relation for atom in query.atoms}
    r, s, t, p = schema["R"], schema["S"], schema["T"], schema["P"]
    db = UncertainDatabase()
    if not falsifiable:
        db.add(r.fact(".u", "a", ".x"))
        db.add(s.fact(".y", ".x", ".z"))
        db.add(t.fact(".x", ".y"))
        db.add(p.fact(".x", ".z"))
    for i in range(gadgets):
        u, x, y, z = (f"{prefix}{i:06d}" for prefix in "uxyz")
        db.add(r.fact(u, "a", x))
        db.add(s.fact(y, x, z))
        db.add(t.fact(x, y))
        db.add(t.fact(x, f"w{i:06d}"))  # conflicting claim; no S row keys w
        db.add(p.fact(x, z))
    return db


def _time_band(
    query: ConjunctiveQuery,
    db: UncertainDatabase,
    repeats: int,
    allow_exponential: bool = False,
) -> Dict:
    """Decide *query* through one session and time best-of-*repeats*."""
    row: Dict = {"facts": len(db)}
    with CertaintySession(db, allow_exponential=allow_exponential) as session:
        if query.is_boolean:
            row["certain"] = session.is_certain(query)
            run = lambda: session.is_certain(query)  # noqa: E731
        else:
            row["certain_answers"] = len(session.certain_answers(query))
            run = lambda: session.certain_answers(query)  # noqa: E731
        row["seconds"] = _best_of(repeats, run)
    return row


def run_all_bands_benchmark(
    sizes: Sequence[int], repeats: int = 3, seed: int = 13
) -> Dict:
    """Absolute per-(band, size) decision times, one workload per band."""
    # The coNP repair search recurses one frame per relevant block; the
    # gadget instances keep the tree linear but still ~5 blocks deep per
    # gadget, so 256 gadgets need more than CPython's default 1000 frames.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

    bands: List[Dict] = []

    fo_query = parallel_bench_query()
    fo_rows = [
        {"size": size, **_time_band(
            fo_query, parallel_bench_instance(fo_query, size, seed=seed), repeats
        )}
        for size in sizes
    ]
    bands.append(
        {
            "band": "fo",
            "method": "fo-rewriting",
            "query": str(fo_query),
            "results": fo_rows,
        }
    )

    fig4 = figure4_query()
    fig4_rows = [
        {"size": size, **_time_band(fig4, figure4_band_instance(size), repeats)}
        for size in sizes
    ]
    bands.append(
        {
            "band": "ptime_not_fo",
            "method": "theorem3-terminal-cycles",
            "query": str(fig4),
            "results": fig4_rows,
        }
    )

    cycle_rows = []
    for size in sizes:
        cycle_query, cycle_db = ring_instance(
            3, copies=size, chords=max(2, size // 4), with_sk=False, seed=7
        )
        cycle_rows.append({"size": size, **_time_band(cycle_query, cycle_db, repeats)})
    bands.append(
        {
            "band": "ptime_cycle_query",
            "method": "theorem4-cycle-query",
            "query": str(cycle_query),
            "results": cycle_rows,
        }
    )

    q1 = figure2_q1()
    conp_rows = []
    for size in sizes:
        row = {
            "size": size,
            **_time_band(q1, conp_band_instance(size), repeats, allow_exponential=True),
        }
        # Decide the certain variant too (untimed): the unbreakable witness
        # makes it certain by construction.
        certain_db = conp_band_instance(size, falsifiable=False)
        with CertaintySession(certain_db, allow_exponential=True) as session:
            assert session.is_certain(q1), "certain variant must be certain"
        row["certain_variant_agree"] = True
        conp_rows.append(row)
    bands.append(
        {
            "band": "conp",
            "method": "brute-force",
            "query": str(q1),
            "results": conp_rows,
        }
    )
    return {
        "benchmark": "all_bands",
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "bands": bands,
    }


def _emit_all_bands(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        sizes: Sequence[int] = args.sizes
    else:
        sizes = ALL_BANDS_SMOKE_SIZES if args.smoke else ALL_BANDS_FULL_SIZES
    report = run_all_bands_benchmark(sizes, repeats=3)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for band in report["bands"]:
        print(f"[{band['band']}] {band['method']}")
        for row in band["results"]:
            verdict = row.get("certain", row.get("certain_answers"))
            print(
                f"  size={row['size']:5d} facts={row['facts']:6d} "
                f"result={verdict!s:5s} seconds={row['seconds']:.4f}"
            )
    print(f"wrote {output}")
    return 0


def _emit_incremental_views(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        sizes: Sequence[int] = args.sizes
    else:
        sizes = INCREMENTAL_SMOKE_SIZES if args.smoke else INCREMENTAL_FULL_SIZES
    mutations = INCREMENTAL_SMOKE_MUTATIONS if args.smoke else INCREMENTAL_FULL_MUTATIONS
    report = run_incremental_benchmark(sizes, mutations)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        print(
            f"chains={row['planted_chains']:5d} facts={row['facts']:6d} "
            f"candidates={row['candidate_answers']:5d} "
            f"maintain={row['maintain_seconds']:.4f}s "
            f"recompute={row['recompute_seconds']:.4f}s "
            f"speedup={row['speedup_vs_recompute']:.1f}x "
            f"avg_dirty={row['avg_dirty']:.1f}"
        )
    print(f"wrote {output}")
    if not report["all_agree"]:
        print("ERROR: maintained view and cold recompute disagree", file=sys.stderr)
        return 1
    if not report["support_dirties_only_dependents"]:
        print(
            "ERROR: the view re-decided candidates outside the support-dirty set",
            file=sys.stderr,
        )
        return 1
    return 0


def _emit_fo_rewriting(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        sizes: Sequence[int] = args.sizes
    else:
        sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    report = run_benchmark(sizes, repeats=1 if args.smoke else 3)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        print(
            f"size={row['size']:4d} facts={row['facts']:5d} certain={row['certain']!s:5s} "
            f"naive={row['naive_seconds']:.4f}s compiled={row['compiled_seconds']:.4f}s "
            f"speedup={row['speedup']:.1f}x"
        )
    print(f"wrote {output}")
    if not report["all_agree"]:
        print("ERROR: naive and compiled evaluation disagree", file=sys.stderr)
        return 1
    return 0


def _emit_sharded_runtime(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        sizes: Sequence[int] = args.sizes
    else:
        sizes = SHARDED_SMOKE_SIZES if args.smoke else SHARDED_FULL_SIZES
    steps = SHARDED_SMOKE_STEPS if args.smoke else SHARDED_FULL_STEPS
    report = run_sharded_benchmark(sizes, steps, repeats=1 if args.smoke else 3)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        print(
            f"size={row['size']:4d} facts={row['facts']:5d} steps={row['steps']} "
            f"mutations={row['mutated_facts']:3d} "
            f"sequential={row['sequential_seconds']:.4f}s "
            f"({report['cpu_count']} cpus)"
        )
        for worker_row in row["workers"]:
            print(
                f"  workers={worker_row['workers']} "
                f"sharded={worker_row['sharded_seconds']:.4f}s "
                f"speedup_vs_sequential="
                f"{worker_row['speedup_vs_sequential']:.2f}x "
                f"bootstrap_shipped={worker_row['bootstrap_bytes_shipped']}B "
                f"delta_shipped={worker_row['delta_bytes_shipped']}B "
                f"max_flush={worker_row['max_flush_bytes']}B "
                f"agree={worker_row['agree']}"
            )
    print(f"wrote {output}")
    if not report["all_agree"]:
        print(
            "ERROR: sharded answers disagree with the sequential replay",
            file=sys.stderr,
        )
        return 1
    if not report["all_deltas_below_bootstrap"]:
        print(
            "ERROR: a delta flush outweighed the bootstrap payload "
            "(delta shipping is not O(delta))",
            file=sys.stderr,
        )
        return 1
    return 0


#: service_load suite: concurrent tenants and per-tenant trace lengths.
SERVICE_TENANTS = 8
SERVICE_FULL_STEPS = 48
SERVICE_SMOKE_STEPS = 12
SERVICE_MAX_WORKERS = 4
SERVICE_QUEUE_DEPTH = 16


def _percentile(samples: Sequence[float], q: float):
    """The q-quantile (nearest-rank on the sorted samples); None when empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_service_load_benchmark(
    num_tenants: int,
    steps: int,
    repeats: int = 1,
    seed: int = 17,
    max_workers: int = SERVICE_MAX_WORKERS,
    queue_depth: int = SERVICE_QUEUE_DEPTH,
) -> Dict:
    """Concurrent multi-tenant serving vs sequential per-tenant replay.

    One deterministic mixed read/write trace per tenant (Zipf-skewed keys,
    tenant-prefixed constants).  The *sequential* leg replays every trace
    one after another on throwaway engine sessions — that is both the
    baseline wall-clock and the per-read ground truth.  The *concurrent*
    leg provisions one tenant per trace in a :class:`CertaintyService` and
    drives all traces from concurrent threads through band-aware admission:
    every FO-band read runs inline (its latency recorded separately), every
    PTIME-band read is queued onto the bounded worker pool (its completion
    time recorded).  Every answer is asserted identical in-run to the
    sequential replay, and after the run the tenants' private intern tables
    are asserted pairwise disjoint (zero cross-tenant id collisions).
    """
    workload = multi_tenant_workload(
        num_tenants=num_tenants, steps=steps, seed=seed
    )

    expected: Dict[str, Dict[int, frozenset]] = {}
    sequential_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        replayed = {
            trace.tenant_id: dict(replay_trace(trace))
            for trace in workload.traces
        }
        sequential_seconds = min(
            sequential_seconds, time.perf_counter() - start
        )
        expected = replayed

    concurrent_seconds = float("inf")
    fo_latencies: List[float] = []
    queued_latencies: List[float] = []
    mismatches = 0
    zero_intern_collisions = True
    service_totals: Dict = {}
    per_tenant_rows: List[Dict] = []

    for _ in range(repeats):
        run_fo: List[float] = []
        run_queued: List[float] = []
        run_mismatches = [0]
        lock = threading.Lock()

        with CertaintyService(
            max_workers=max_workers, queue_depth=queue_depth
        ) as svc:
            start = time.perf_counter()
            for trace in workload.traces:
                svc.create_tenant(trace.tenant_id, facts=trace.facts)

            def drive(trace) -> None:
                answers = expected[trace.tenant_id]
                local_fo: List[float] = []
                local_queued: List[float] = []
                wrong = 0
                for index, (kind, payload) in enumerate(trace.steps):
                    if kind == "write":
                        svc.apply(trace.tenant_id, payload)
                        continue
                    begin = time.perf_counter()
                    ticket = svc.submit(trace.tenant_id, payload)
                    got = ticket.result(timeout=120)
                    elapsed = time.perf_counter() - begin
                    if ticket.outcome == INLINE:
                        local_fo.append(elapsed)
                    else:
                        local_queued.append(elapsed)
                    if got != answers[index]:
                        wrong += 1
                with lock:
                    run_fo.extend(local_fo)
                    run_queued.extend(local_queued)
                    run_mismatches[0] += wrong

            threads = [
                threading.Thread(target=drive, args=(trace,))
                for trace in workload.traces
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start

            snapshots = {
                trace.tenant_id: set(
                    svc.tenant(trace.tenant_id).intern_table.snapshot()
                )
                for trace in workload.traces
            }
            for trace in workload.traces:
                values = snapshots[trace.tenant_id]
                if not all(str(v).startswith(trace.prefix) for v in values):
                    zero_intern_collisions = False
            ids = sorted(snapshots)
            for i, left in enumerate(ids):
                for right in ids[i + 1 :]:
                    if snapshots[left] & snapshots[right]:
                        zero_intern_collisions = False

            stats = svc.stats()
            service_totals = stats["totals"]
            per_tenant_rows = [
                {
                    "tenant": trace.tenant_id,
                    "facts": stats["tenants"][trace.tenant_id]["facts"],
                    "reads": trace.reads,
                    "writes": trace.writes,
                    "intern_constants": stats["tenants"][trace.tenant_id][
                        "intern_memory"
                    ]["constants"],
                    "intern_bytes": stats["tenants"][trace.tenant_id][
                        "intern_memory"
                    ]["total_bytes"],
                    "inline_served": stats["tenants"][trace.tenant_id][
                        "admission"
                    ]["inline_served"],
                    "queued": stats["tenants"][trace.tenant_id]["admission"][
                        "queued"
                    ],
                    "rejected": stats["tenants"][trace.tenant_id]["admission"][
                        "rejected"
                    ],
                }
                for trace in workload.traces
            ]

        mismatches += run_mismatches[0]
        if seconds < concurrent_seconds:
            concurrent_seconds = seconds
            fo_latencies = run_fo
            queued_latencies = run_queued

    return {
        "benchmark": "service_load",
        "fo_query": str(workload.fo_query),
        "queued_query": str(workload.queued_query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "tenants": num_tenants,
        "steps_per_tenant": steps,
        "max_workers": max_workers,
        "queue_depth_cap": queue_depth,
        "fo_requests": len(fo_latencies),
        "queued_requests": len(queued_latencies),
        "fo_p50_seconds": _percentile(fo_latencies, 0.5),
        "fo_p95_seconds": _percentile(fo_latencies, 0.95),
        "queued_p50_seconds": _percentile(queued_latencies, 0.5),
        "queued_p95_seconds": _percentile(queued_latencies, 0.95),
        "sequential_seconds": sequential_seconds,
        "concurrent_seconds": concurrent_seconds,
        "throughput_ratio_vs_sequential": (
            sequential_seconds / concurrent_seconds
            if concurrent_seconds
            else None
        ),
        "all_answers_match": mismatches == 0,
        "answer_mismatches": mismatches,
        "zero_intern_collisions": zero_intern_collisions,
        "service_totals": service_totals,
        "per_tenant": per_tenant_rows,
    }


def _emit_service_load(args: argparse.Namespace, output: pathlib.Path) -> int:
    tenants = args.sizes[0] if args.sizes else SERVICE_TENANTS
    steps = SERVICE_SMOKE_STEPS if args.smoke else SERVICE_FULL_STEPS
    report = run_service_load_benchmark(
        tenants, steps, repeats=1 if args.smoke else 3
    )
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"tenants={report['tenants']} steps={report['steps_per_tenant']} "
        f"workers={report['max_workers']} ({report['cpu_count']} cpus)"
    )
    print(
        f"  fo: {report['fo_requests']} requests "
        f"p50={report['fo_p50_seconds']:.6f}s p95={report['fo_p95_seconds']:.6f}s"
    )
    print(
        f"  queued: {report['queued_requests']} requests "
        f"p50={report['queued_p50_seconds']:.6f}s "
        f"p95={report['queued_p95_seconds']:.6f}s"
    )
    print(
        f"  sequential={report['sequential_seconds']:.4f}s "
        f"concurrent={report['concurrent_seconds']:.4f}s "
        f"ratio={report['throughput_ratio_vs_sequential']:.2f}x "
        f"match={report['all_answers_match']} "
        f"isolated={report['zero_intern_collisions']}"
    )
    print(f"wrote {output}")
    if not report["all_answers_match"]:
        print(
            "ERROR: a service answer diverged from the sequential replay",
            file=sys.stderr,
        )
        return 1
    if not report["zero_intern_collisions"]:
        print(
            "ERROR: two tenants share interned constants "
            "(intern-table isolation broken)",
            file=sys.stderr,
        )
        return 1
    return 0


#: durability suite: changelog tails replayed on restart.  Each tail row
#: runs a stream of ``DURABILITY_PRE_MUTATIONS + tail`` single-op batches,
#: checkpointing ``tail`` mutations before the end — so a (chains, tail)
#: cell is the *same workload* in smoke and full runs, and the smoke tails
#: are a prefix of the full tails (the committed baseline always covers
#: the cells the CI regression guard compares against).
DURABILITY_FULL_TAILS = (0, 1_000, 10_000)
DURABILITY_SMOKE_TAILS = (0, 1_000)
DURABILITY_PRE_MUTATIONS = 2_000
DURABILITY_CHAINS = 48


def run_durability_benchmark(
    tails: Sequence[int],
    pre_mutations: int = DURABILITY_PRE_MUTATIONS,
    chains: int = DURABILITY_CHAINS,
    repeats: int = 3,
    seed: int = 43,
) -> Dict:
    """Cold restart (segment + changelog tail) vs full-history rebuild.

    Per tail, a recorded stream of ``pre_mutations + tail`` single-op
    batches runs against a durably attached database, checkpointing
    ``tail`` mutations before the end.  *Restart* opens the directory —
    segment decode plus exactly ``tail`` replayed changelog records — and
    returns a ready database.  *Rebuild* reconstructs the same database
    from an **empty** one by replaying the full recorded history (initial
    bulk load + every mutation batch), which is what a restart would cost
    without the durability tier.  Before any timing, the restarted
    database's facts, ``mutation_version``, and certain answers are
    asserted identical to the live pre-crash state (and the rebuild leg's
    likewise), so the guarded ratio can never trade correctness for speed.
    """
    query = parallel_bench_query()
    results: List[Dict] = []
    all_agree = True
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as base:
        for tail in tails:
            workdir = pathlib.Path(base) / f"tail{tail}"
            db = parallel_bench_instance(query, chains, seed=seed)
            mutations = pre_mutations + tail
            # The full history an external source-of-truth would replay:
            # the initial bulk load, then every recorded mutation batch.
            history: List = [[("add", fact) for fact in sorted(db.facts, key=str)]]
            durable = DurableStore(workdir, sync="never").attach(db)
            for step, batch in enumerate(
                mutation_stream(
                    query, db, steps=mutations, seed=seed + 1, batch_range=(1, 1)
                )
            ):
                history.append(batch)
                apply_batch(db, batch)
                if step + 1 == pre_mutations:
                    durable.checkpoint()
            with CertaintySession(db) as live_session:
                ground_truth = live_session.certain_answers(query)
            live_facts = db.facts
            live_version = db.mutation_version
            durable.close()  # flush, then abandon — restart reads disk only

            def restart():
                store = DurableStore.open(workdir)
                return store, store.database()

            recovered_store, recovered_db = restart()
            with CertaintySession(recovered_db) as session:
                recovered_answers = session.certain_answers(query)
            agree = (
                recovered_db.facts == live_facts
                and recovered_db.mutation_version == live_version
                and recovered_answers == ground_truth
            )
            all_agree = all_agree and agree
            restart_seconds = _best_of(repeats, restart)

            def rebuild():
                rebuilt = UncertainDatabase()
                for batch in history:
                    apply_batch(rebuilt, batch)
                return rebuilt

            rebuilt_db = rebuild()
            with CertaintySession(rebuilt_db) as session:
                agree = agree and rebuilt_db.facts == live_facts
                agree = agree and session.certain_answers(query) == ground_truth
            all_agree = all_agree and agree
            rebuild_seconds = _best_of(repeats, rebuild)

            wal_files = list(workdir.glob("wal-*.log"))
            segment_files = list(workdir.glob("segment-*.seg"))
            results.append(
                {
                    "tail": tail,
                    "facts": len(live_facts),
                    "mutations": mutations,
                    "replayed_records": recovered_store.stats.replayed_records,
                    "segment_bytes": sum(p.stat().st_size for p in segment_files),
                    "wal_bytes": sum(p.stat().st_size for p in wal_files),
                    "restart_seconds": restart_seconds,
                    "rebuild_seconds": rebuild_seconds,
                    "speedup_restart_vs_rebuild": (
                        rebuild_seconds / restart_seconds if restart_seconds else None
                    ),
                    "agree": agree,
                }
            )
    return {
        "benchmark": "durability",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "planted_chains": chains,
        "pre_mutations": pre_mutations,
        "results": results,
        "all_agree": all_agree,
    }


def _emit_durability(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        tails: Sequence[int] = args.sizes
    else:
        tails = DURABILITY_SMOKE_TAILS if args.smoke else DURABILITY_FULL_TAILS
    # Always best-of-3: the CI regression guard compares the restart-vs
    # -rebuild ratio against the committed baseline, and single samples of
    # millisecond-scale restarts are too noisy to guard on.
    report = run_durability_benchmark(tails, repeats=3)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        print(
            f"tail={row['tail']:6d} facts={row['facts']:6d} "
            f"replayed={row['replayed_records']:6d} "
            f"segment={row['segment_bytes']}B wal={row['wal_bytes']}B "
            f"restart={row['restart_seconds']:.4f}s "
            f"rebuild={row['rebuild_seconds']:.4f}s "
            f"speedup={row['speedup_restart_vs_rebuild']:.1f}x "
            f"agree={row['agree']}"
        )
    print(f"wrote {output}")
    if not report["all_agree"]:
        print(
            "ERROR: a recovered database diverged from the pre-crash state",
            file=sys.stderr,
        )
        return 1
    return 0


#: Planted same-key pairs per replayed stream (reuses the sharded-runtime
#: workload so the chaos numbers are comparable to the clean suite's).
FAULT_RECOVERY_FULL_SIZES = (48, 96)
FAULT_RECOVERY_SMOKE_SIZES = (16,)

#: Mutation batches interleaved with reads in the replayed stream.
FAULT_RECOVERY_FULL_STEPS = 10
FAULT_RECOVERY_SMOKE_STEPS = 5

#: Shard workers under chaos.  Two is enough to exercise routing around a
#: dead shard while keeping the spawn cost CI-friendly.
FAULT_RECOVERY_SHARDS = 2


def fault_recovery_plan(shards: int) -> FaultPlan:
    """The deterministic chaos schedule the sharded leg replays under.

    Worker kills are pinned per shard by *command arrival*, so each
    freshly restarted worker dies again a few commands later — the stream
    exercises repeated kill → inline-serve → restart → re-bootstrap
    cycles, not one isolated crash.  The pipe drop lands parent-side and
    exercises the send-path failure handling as well as worker exits.
    """
    specs = [FaultSpec("shard.worker.command", "kill", at=4, shard=0)]
    if shards > 1:
        specs.append(FaultSpec("shard.worker.command", "kill", at=6, shard=1))
    specs.append(FaultSpec("shard.pipe", "drop", at=9))
    return FaultPlan(specs)


def _fault_recovery_shard_leg(
    db0, batches, query, shards: int, repeats: int, plan: Optional[FaultPlan]
) -> Dict:
    """Replay the recorded stream on a supervised sharded session.

    With *plan* the replay runs under injection; either way the per-step
    answers are returned for the caller's identity check, along with
    per-step latencies split into recovery dispatches (a worker restart
    happened inside the step) and ordinary ones.  Best-of-*repeats* on
    total seconds; the step split comes from the fastest run.
    """
    best: Dict = {"seconds": float("inf")}
    for _ in range(repeats):
        db = db0.copy()
        session = ShardedCertaintySession(
            db, n_shards=shards, min_shard_candidates=1, restart_backoff=0.0
        )
        try:
            with inject(plan if plan is not None else FaultPlan(())):
                per_step: List = []
                step_seconds: List[float] = []
                recovery_steps: List[int] = []
                start = time.perf_counter()
                for step in range(len(batches) + 1):
                    if step:
                        apply_batch(db, batches[step - 1])
                    restarts_before = session.stats.worker_restarts
                    step_start = time.perf_counter()
                    per_step.append(session.certain_answers(query))
                    step_seconds.append(time.perf_counter() - step_start)
                    if session.stats.worker_restarts > restarts_before:
                        recovery_steps.append(step)
                seconds = time.perf_counter() - start
            stats = session.stats
        finally:
            session.close()
        if seconds < best["seconds"]:
            recovery = [step_seconds[i] for i in recovery_steps]
            ordinary = [
                s for i, s in enumerate(step_seconds) if i not in recovery_steps
            ]
            best = {
                "seconds": seconds,
                "per_step": per_step,
                "step_p50": statistics.median(ordinary) if ordinary else None,
                "recovery_p50": statistics.median(recovery) if recovery else None,
                "recovery_max": max(recovery) if recovery else None,
                "recovery_dispatches": len(recovery),
                "worker_failures": stats.worker_failures,
                "worker_restarts": stats.worker_restarts,
                "degradations": stats.degradations,
                "deadline_timeouts": stats.deadline_timeouts,
            }
        elif plan is not None and best.get("per_step") != per_step:
            # Identity must hold on every repeat, not just the fastest.
            best["per_step"] = None
    return best


def _fault_recovery_durability_leg(
    query, size: int, steps: int, repeats: int, seed: int
) -> Dict:
    """Commit a stream under injected WAL faults, crash, recover, diff.

    Every batch the store acknowledges (``apply_batch`` returned without a
    :class:`DurabilityError`) must survive the crash: the recovered facts,
    ``mutation_version``, and certain answers are compared against the
    live pre-crash state.  The injected faults are single-shot, so the
    write path's truncate-and-retry must absorb each one — a lost batch
    here means the store acknowledged a commit it never made durable.
    """
    plan = FaultPlan(
        (
            FaultSpec("wal.fsync", "error", at=2),
            FaultSpec("wal.write", "torn", at=4),
            FaultSpec("wal.fsync", "error", at=7),
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-fault-recovery-") as base:
        workdir = pathlib.Path(base) / "store"
        db = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db, steps, seed=seed + 3)
        durable = DurableStore(workdir, sync="commit").attach(db)
        acknowledged = 0
        with inject(plan) as injector:
            for batch in batches:
                apply_batch(db, batch)
                acknowledged += 1
            injected = len(injector.fired)
        with CertaintySession(db) as live_session:
            ground_truth = live_session.certain_answers(query)
        live_facts = db.facts
        live_version = db.mutation_version
        wal_reopens = durable.stats.wal_reopens
        durable.simulate_crash()

        def recover():
            store = DurableStore.open(workdir)
            return store, store.database()

        recovered_store, recovered_db = recover()
        with CertaintySession(recovered_db) as session:
            recovered_answers = session.certain_answers(query)
        zero_lost = (
            recovered_db.facts == live_facts
            and recovered_db.mutation_version == live_version
        )
        agree = zero_lost and recovered_answers == ground_truth
        recover_seconds = _best_of(repeats, recover)
        return {
            "batches": len(batches),
            "acknowledged": acknowledged,
            "injected_faults": injected,
            "wal_reopens": wal_reopens,
            "replayed_records": recovered_store.stats.replayed_records,
            "recover_seconds": recover_seconds,
            "zero_acknowledged_lost": zero_lost,
            "agree": agree,
        }


def run_fault_recovery_benchmark(
    sizes: Sequence[int], steps: int, repeats: int = 2, seed: int = 29
) -> Dict:
    """Clean vs chaos sharded replay, plus a crash-recovery durability leg.

    Per size the same pre-recorded batches replay three times: on a
    sequential :class:`CertaintySession` (per-step ground truth), on a
    fault-free :class:`ShardedCertaintySession`, and on an identically
    configured one under :func:`fault_recovery_plan`.  Every per-step
    answer set under chaos must equal the sequential replay — the faults
    may cost latency, never answers.  Both headline ratios are framed
    bigger-is-better: ``throughput_retained_under_faults`` (clean seconds
    over chaos seconds) and ``recovery_responsiveness`` (fault-free step
    p50 over post-kill dispatch p50).
    """
    query = sharded_bench_query()
    shards = FAULT_RECOVERY_SHARDS
    results: List[Dict] = []
    all_agree = True
    faults_exercised = True
    for size in sizes:
        db0 = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db0, steps, seed=seed + 7)

        expected = None
        for _ in range(repeats):
            _seconds, per_step, _session = _replay_stream(
                db0, batches, query, lambda db: CertaintySession(db)
            )
            expected = per_step

        clean = _fault_recovery_shard_leg(
            db0, batches, query, shards, repeats, plan=None
        )
        chaos = _fault_recovery_shard_leg(
            db0, batches, query, shards, repeats, plan=fault_recovery_plan(shards)
        )
        agree = clean["per_step"] == expected and chaos["per_step"] == expected
        all_agree = all_agree and agree
        faults_exercised = faults_exercised and chaos["worker_failures"] > 0
        recovery_p50 = chaos["recovery_p50"]
        clean_p50 = clean["step_p50"]
        results.append(
            {
                "size": size,
                "facts": len(db0),
                "steps": len(batches),
                "worker_failures": chaos["worker_failures"],
                "worker_restarts": chaos["worker_restarts"],
                "recovery_dispatches": chaos["recovery_dispatches"],
                "degradations": chaos["degradations"],
                "deadline_timeouts": chaos["deadline_timeouts"],
                "clean_seconds": clean["seconds"],
                "chaos_seconds": chaos["seconds"],
                "throughput_retained_under_faults": (
                    clean["seconds"] / chaos["seconds"] if chaos["seconds"] else None
                ),
                "clean_step_p50_seconds": clean_p50,
                "recovery_p50_seconds": recovery_p50,
                "recovery_max_seconds": chaos["recovery_max"],
                "recovery_responsiveness": (
                    clean_p50 / recovery_p50 if clean_p50 and recovery_p50 else None
                ),
                "agree": agree,
            }
        )
    durability = _fault_recovery_durability_leg(
        query, max(sizes), steps, repeats, seed=seed + 11
    )
    return {
        "benchmark": "fault_recovery",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "shards": shards,
        "fault_plan": [list(spec) for spec in fault_recovery_plan(shards).specs],
        "results": results,
        "durability": durability,
        "all_agree": all_agree and durability["agree"],
        "faults_exercised": faults_exercised and durability["injected_faults"] > 0,
        "zero_acknowledged_lost": durability["zero_acknowledged_lost"],
    }


def _emit_fault_recovery(args: argparse.Namespace, output: pathlib.Path) -> int:
    if args.sizes:
        sizes: Sequence[int] = args.sizes
    else:
        sizes = FAULT_RECOVERY_SMOKE_SIZES if args.smoke else FAULT_RECOVERY_FULL_SIZES
    steps = FAULT_RECOVERY_SMOKE_STEPS if args.smoke else FAULT_RECOVERY_FULL_STEPS
    report = run_fault_recovery_benchmark(sizes, steps, repeats=2)
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["results"]:
        retained = row["throughput_retained_under_faults"]
        responsiveness = row["recovery_responsiveness"]
        print(
            f"size={row['size']:5d} facts={row['facts']:6d} "
            f"kills={row['worker_failures']:2d} "
            f"restarts={row['worker_restarts']:2d} "
            f"clean={row['clean_seconds']:.4f}s "
            f"chaos={row['chaos_seconds']:.4f}s "
            f"retained={retained:.2f}x "
            + (
                f"recovery_p50={row['recovery_p50_seconds']:.4f}s "
                f"responsiveness={responsiveness:.2f}x "
                if responsiveness is not None
                else "recovery_p50=n/a "
            )
            + f"agree={row['agree']}"
        )
    durability = report["durability"]
    print(
        f"durability: batches={durability['batches']} "
        f"acknowledged={durability['acknowledged']} "
        f"injected={durability['injected_faults']} "
        f"wal_reopens={durability['wal_reopens']} "
        f"recover={durability['recover_seconds']:.4f}s "
        f"zero_lost={durability['zero_acknowledged_lost']}"
    )
    print(f"wrote {output}")
    if not report["all_agree"]:
        print(
            "ERROR: an answer under injected faults diverged from the "
            "sequential replay",
            file=sys.stderr,
        )
        return 1
    if not report["zero_acknowledged_lost"]:
        print(
            "ERROR: the durable store lost an acknowledged batch",
            file=sys.stderr,
        )
        return 1
    if not report["faults_exercised"]:
        print("ERROR: the fault plan never fired", file=sys.stderr)
        return 1
    return 0


_DEFAULT_OUTPUTS = {
    "fo_rewriting": "BENCH_fo_rewriting.json",
    "sharded_runtime": "BENCH_sharded_runtime.json",
    "incremental_views": "BENCH_incremental_views.json",
    "all_bands": "BENCH_all_bands.json",
    "service_load": "BENCH_service_load.json",
    "durability": "BENCH_durability.json",
    "fault_recovery": "BENCH_fault_recovery.json",
}


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(
            "fo_rewriting",
            "sharded_runtime",
            "incremental_views",
            "all_bands",
            "service_load",
            "durability",
            "fault_recovery",
        ),
        default="fo_rewriting",
        help="which benchmark suite to run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (small sizes, one repeat)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="explicit scaling sizes (fo_rewriting: domain sizes; "
        "sharded_runtime: planted same-key pairs)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the JSON report (default: BENCH_<suite>.json)",
    )
    args = parser.parse_args(list(argv) or None)
    output = args.output
    if output is None:
        output = (
            pathlib.Path(__file__).resolve().parents[1] / _DEFAULT_OUTPUTS[args.suite]
        )
    if args.suite == "sharded_runtime":
        return _emit_sharded_runtime(args, output)
    if args.suite == "incremental_views":
        return _emit_incremental_views(args, output)
    if args.suite == "all_bands":
        return _emit_all_bands(args, output)
    if args.suite == "service_load":
        return _emit_service_load(args, output)
    if args.suite == "durability":
        return _emit_durability(args, output)
    if args.suite == "fault_recovery":
        return _emit_fault_recovery(args, output)
    return _emit_fo_rewriting(args, output)


if __name__ == "__main__":
    raise SystemExit(main())
