"""The compiled-plan certainty engine.

This subsystem separates the two halves of answering ``CERTAINTY(q)`` under
heavy query traffic, following the standard query-compilation architecture
of database engines:

* **compile once per query** — :func:`compile_plan` classifies the query on
  the tractability frontier, fixes the solver dispatch, and packages the
  result as a :class:`QueryPlan`; plans are cached by query signature in a
  bounded LRU :class:`PlanCache`;
* **execute many times per database** — a :class:`CertaintySession` wraps
  one ``UncertainDatabase``, maintains an incrementally updated fact index
  (wired into the database's observer hooks, so ``add``/``discard`` update
  the index instead of rebuilding it), and runs every plan on its store
  (``QueryPlan.execute(session.store, ...)``).

The module-level one-shot APIs (``repro.solve``, ``repro.is_certain``,
``repro.certain_answers``) keep their signatures and delegate here.

The one multi-process path is :class:`ShardedCertaintySession` (and the
one-shot :func:`certain_answers_sharded`): *long-lived* workers hold a
partition of the database by a stable hash of block key
(:func:`shard_of_key`), mutations ship as O(delta) integer rows plus
newly-interned constant values, and candidates scatter to the shards
owning their supporting blocks — cross-shard decisions fall back to the
parent, keeping the answer set identical to the sequential session's.  A
session whose workers keep failing degrades to serial serving on the
parent (:data:`DEGRADATION_LADDER`).

Execution runs on the interned columnar store (:mod:`repro.store`):
integer-row kernels (candidate enumeration among them), batched
set-at-a-time deciding, and block-id read sets.
"""

from .cache import CacheStats, PlanCache, default_plan_cache
from .plan import QueryPlan, compile_plan
from .session import CertaintySession
from .shards import (
    DEGRADATION_LADDER,
    DeadlineExceeded,
    ShardedCertaintySession,
    certain_answers_sharded,
    shard_of_key,
)

__all__ = [
    "CacheStats",
    "CertaintySession",
    "DEGRADATION_LADDER",
    "DeadlineExceeded",
    "PlanCache",
    "QueryPlan",
    "ShardedCertaintySession",
    "certain_answers_sharded",
    "compile_plan",
    "default_plan_cache",
    "shard_of_key",
]
