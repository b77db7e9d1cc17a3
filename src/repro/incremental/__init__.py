"""Incremental certainty views: materialized certain answers under mutation.

The engine's batched ``certain_answers`` recomputes from scratch per call.
This subsystem turns that one-shot answer into a **materialized view** that
stays continuously correct while the underlying
:class:`~repro.model.database.UncertainDatabase` mutates — the scaling step
from "fast queries" to "sustained mutation-heavy traffic".

The key observation (conf_pods_Wijsen13): for an FO-band query, certainty
of each candidate answer is decided by evaluating a fixed first-order
rewriting, and the compiled set-at-a-time plan of that rewriting touches
only specific *blocks* of the database.  Recording those touches as a
:class:`~repro.fo.compile.ReadSet` per candidate and inverting them into a
:class:`~repro.incremental.support.SupportIndex` makes maintenance precise:
a block-local mutation re-decides exactly the candidates whose verdict
actually read the changed blocks, while inserted facts surface brand-new
candidates through a seeded delta-join.  Self-join plans and oversized
dirty fractions fall back to a full refresh, so the maintained answer set
is *always* identical to a cold recompute (differentially tested).

Views read one representation of the facts: the id-rows of the session's
:class:`~repro.store.columnar.ColumnarFactStore`.  Support is keyed by its
dense block ids, the delta join and the candidate garbage collection run
on its id-row kernels, and every decision goes through the session.

Public surface:

* :class:`ViewManager` — database observer driving all registered views;
  understands the ``db.batch()`` changelog API and coalesced
  ``bulk_add``/``bulk_discard`` notifications;
* :class:`MaterializedCertainView` — the per-query answer set, support
  index, stats, and ``subscribe(on_insert, on_retract)`` delta feed;
* :class:`SupportIndex` / :func:`delta_candidates` — the maintenance
  machinery, exposed for inspection and testing;
* :class:`StalenessStats` — the counters of a deferred manager
  (``ViewManager(db, deferred=True)``), whose mutations merge into one
  pending changelog that the next view read or ``flush()`` delivers.

>>> from repro import ViewManager                       # doctest: +SKIP
>>> with ViewManager(db) as manager:
...     view = manager.register(open_query)
...     view.subscribe(on_insert=lambda t: print("+", t))
...     db.add(new_fact)          # view refreshed, delta emitted
...     view.answers              # always == certain_answers(db, open_query)
"""

from .delta import delta_candidates
from .manager import StalenessStats, ViewManager
from .support import SupportIndex
from .view import MaterializedCertainView, Subscription, ViewStats

__all__ = [
    "MaterializedCertainView",
    "StalenessStats",
    "Subscription",
    "SupportIndex",
    "ViewManager",
    "ViewStats",
    "delta_candidates",
]
