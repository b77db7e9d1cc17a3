"""Deferred view maintenance: deterministic and randomized checks.

The contract under test (``ViewManager(db, deferred=True)``):

* a write delivers nothing to the views: it merges into one pending net
  changelog (``pending_mutations``);
* the next view read, or an explicit ``flush()``, delivers everything
  pending, so every read is **identical to a cold recompute** of the
  certain answers and leaves nothing pending;
* eager managers (the default) never defer — their behaviour is unchanged.
"""

import random

import pytest

from repro.certainty.solver import certain_answers
from repro.incremental import ViewManager
from repro.model.database import UncertainDatabase
from repro.model.symbols import Constant
from repro.query import parse_fact, parse_facts, parse_query
from repro.workloads import multi_tenant_workload


def open_query():
    return parse_query("R(x | y), S(y | z)", free=["x"])


def base_facts():
    return parse_facts(
        [
            "R('k1' | 'v1')",
            "S('v1' | 'w')",
            "R('k2' | 'v2')",
            "S('v2' | 'w')",
        ]
    )


def cold(db, query):
    return frozenset(certain_answers(db, query, allow_exponential=True))


def witness(n):
    """Two facts that add certain answer ``kn``."""
    return [
        ("add", parse_fact(f"R('k{n}' | 'v{n}')")),
        ("add", parse_fact(f"S('v{n}' | 'w')")),
    ]


def apply_ops(db, ops):
    with db.batch():
        for kind, fact in ops:
            (db.add if kind == "add" else db.discard)(fact)


def test_read_delivers_every_pending_mutation():
    db = UncertainDatabase(base_facts())
    query = open_query()
    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        apply_ops(db, witness(3))
        apply_ops(db, witness(4))
        assert mgr.pending_mutations == 4
        assert view.answers == cold(db, query)
        assert mgr.pending_mutations == 0
        stats = mgr.staleness_stats
        assert (stats.flushes, stats.flushes_on_read, stats.flushes_explicit) == (1, 1, 0)
        assert view.answers == cold(db, query)  # nothing pending: no flush
        assert stats.flushes_on_read == 1


def test_explicit_flush_restores_freshness():
    db = UncertainDatabase(base_facts())
    query = open_query()
    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        apply_ops(db, witness(3))
        assert mgr.flush()
        assert view.answers == cold(db, query)
        assert mgr.staleness_stats.flushes_explicit == 1
        assert mgr.staleness_stats.flushes_on_read == 0
        assert not mgr.flush()  # nothing pending: a no-op


def test_batch_cancellation_nets_out_in_changelog():
    db = UncertainDatabase(base_facts())
    fact = parse_fact("R('k9' | 'v9')")
    with ViewManager(db, deferred=True) as mgr:
        mgr.register(open_query())
        with db.batch():
            db.add(fact)
            db.discard(fact)
        assert mgr.pending_mutations == 0  # add+discard cancel to nothing
        db.add(fact)
        db.discard(fact)  # separate notifications also net out on merge
        assert mgr.pending_mutations == 0


def test_refresh_all_drops_deferred_changelog():
    db = UncertainDatabase(base_facts())
    query = open_query()
    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        apply_ops(db, witness(3))
        assert mgr.pending_mutations > 0
        mgr.refresh_all()
        assert mgr.pending_mutations == 0
        assert view.answers == cold(db, query)
        assert mgr.staleness_stats.flushes == 0


def test_subscriber_hears_nothing_until_the_next_read():
    db = UncertainDatabase(base_facts())
    query = open_query()
    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        events = []
        view.subscribe(
            on_insert=lambda t: events.append(("+", t)),
            on_retract=lambda t: events.append(("-", t)),
        )
        db.add(parse_fact("R('eve' | 'v1')"))
        assert events == []
        assert (Constant("eve"),) in view.answers
        assert events == [("+", (Constant("eve"),))]


def test_subscriber_mutation_during_flush_joins_that_flush():
    db = UncertainDatabase(base_facts())
    query = open_query()
    zed = parse_fact("R('zed' | 'v2')")
    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        fired = []

        def on_insert(t):
            if not fired:
                fired.append(t)
                db.add(zed)  # re-entrant mutation inside the flush

        view.subscribe(on_insert=on_insert)
        db.add(parse_fact("R('eve' | 'v1')"))
        assert fired == []
        answers = view.answers
        assert fired == [(Constant("eve"),)]
        assert mgr.pending_mutations == 0
        assert (Constant("zed"),) in answers
        assert answers == cold(db, query)
        assert mgr.staleness_stats.flushes == 1


def test_eager_manager_never_defers():
    db = UncertainDatabase(base_facts())
    query = open_query()
    with ViewManager(db) as mgr:
        view = mgr.register(query)
        apply_ops(db, witness(3))
        assert mgr.pending_mutations == 0
        assert not mgr.deferred
        assert mgr.staleness_stats.deferred_batches == 0
        assert view.answers == cold(db, query)


@pytest.mark.parametrize("seed", range(4))
def test_randomized_staleness_harness(seed):
    """Random mutations, reads and flushes against the contract.

    Invariants checked at every step:

    * a write delivers nothing to the view;
    * every read equals a cold recompute of ``certain_answers`` on the
      live database and leaves nothing pending;
    * so does every read after an explicit ``flush()``.
    """
    rng = random.Random(seed)
    # Reuse the multi-tenant generator for a deterministic mutation supply.
    (trace,) = multi_tenant_workload(
        num_tenants=1, steps=0, seed=seed, initial_facts=24
    ).traces
    db = UncertainDatabase(trace.facts)
    query = open_query()
    domain = [f"t0~c{j}" for j in range(24)]

    def random_ops():
        ops = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25 and len(db):
                ops.append(("discard", rng.choice(sorted(db.facts, key=str))))
            else:
                relation = rng.choice(
                    [atom.relation for atom in query.atoms]
                )
                ops.append(
                    ("add", relation.fact(rng.choice(domain), rng.choice(domain)))
                )
        return ops

    with ViewManager(db, deferred=True) as mgr:
        view = mgr.register(query)
        for _ in range(60):
            action = rng.random()
            if action < 0.5:
                refreshes = view.stats.refreshes
                apply_ops(db, random_ops())
                assert view.stats.refreshes == refreshes
            elif action < 0.85:
                assert view.answers == cold(db, query)
                assert mgr.pending_mutations == 0
            else:
                mgr.flush()
                assert mgr.pending_mutations == 0
                assert view.answers == cold(db, query)
        assert mgr.staleness_stats.flushes_on_read > 0
