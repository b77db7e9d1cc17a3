"""repro — certain conjunctive query answering over uncertain databases.

A production-quality reproduction of

    Jef Wijsen, *Charting the Tractability Frontier of Certain Conjunctive
    Query Answering*, PODS 2013 (arXiv:1301.1003).

The library models uncertain databases (relations whose primary keys may be
violated), builds attack graphs of acyclic self-join-free conjunctive
queries, classifies ``CERTAINTY(q)`` on the tractability frontier
(FO / P-not-FO / open / coNP-complete), and ships the paper's polynomial
algorithms (FO rewriting, Theorem 3, Theorem 4), its reductions (Theorem 2,
Lemma 9), the brute-force oracle, and the probabilistic-database bridge of
Section 7.

Quickstart
----------
>>> from repro import parse_query, parse_facts, UncertainDatabase, classify, is_certain
>>> q = parse_query("C(x, y | 'Rome'), R(x | 'A')")
>>> db = UncertainDatabase(parse_facts([
...     "C('PODS', 2016 | 'Rome')", "C('PODS', 2016 | 'Paris')",
...     "C('KDD', 2017 | 'Rome')",
...     "R('PODS' | 'A')", "R('KDD' | 'A')", "R('KDD' | 'B')",
... ], schema=q.schema()))
>>> classify(q).band.name
'FO'
>>> is_certain(db, q)
False

Sessions and compiled plans
---------------------------
For repeated queries against one (possibly mutating) database, the engine
subsystem separates one-time query compilation from per-database execution.
A :class:`CertaintySession` keeps an incrementally updated fact index over
the database (wired into its observer hooks) and compiles queries into
cached :class:`QueryPlan` objects, so neither classification nor indexing
is redone per call — and ``session.certain_answers(q)`` classifies the
query shape once for all candidate groundings:

>>> from repro import CertaintySession
>>> with CertaintySession(db) as session:
...     session.is_certain(q)
False

The one-shot ``solve``/``is_certain``/``certain_answers`` keep their
signatures and delegate to the same engine through a process-wide plan
cache.

Incremental certainty views
---------------------------
Under mutation-heavy traffic, a :class:`ViewManager` materializes the
certain answers of registered queries and keeps them continuously equal to
a cold recompute while the database mutates.  Fine-grained maintenance
records the *blocks* each candidate's compiled FO rewriting read (its
support) and re-decides only the candidates a mutation actually touched;
``db.batch()`` / ``db.bulk_add`` coalesce write bursts into one maintenance
step, and ``view.subscribe(on_insert, on_retract)`` streams answer-level
deltas:

>>> with ViewManager(db) as manager:                      # doctest: +SKIP
...     view = manager.register(open_query)
...     with db.batch():
...         db.add(f1); db.discard(f2)
...     view.answers        # == certain_answers(db, open_query), maintained

Serving certain answers
-----------------------
The :mod:`repro.service` layer hosts isolated tenants (each with a private
:class:`InternTable`, database, session, and views that a write defers
until the next read) behind band-aware admission control: FO-band
requests run inline on the hot compiled path, harder bands queue onto a
bounded worker pool:

>>> from repro.service import CertaintyService                # doctest: +SKIP
>>> with CertaintyService(max_workers=4) as svc:
...     svc.create_tenant("acme", facts=facts)
...     svc.certain_answers("acme", q, timeout=1.0)
"""

from .attacks import Attack, AttackCycle, AttackGraph
from .certainty import (
    CertaintyOutcome,
    IntractableQueryError,
    UnsupportedQueryError,
    certain_answers,
    certain_brute_force,
    certain_cycle_query,
    certain_fo,
    certain_fo_rewriting,
    certain_terminal_cycles,
    is_certain,
    purify,
    solve,
    theorem2_reduction,
)
from .core import (
    Classification,
    ComplexityBand,
    classify,
    classify_cached,
    classify_corpus,
    frontier_table,
)
from .durability import (
    ChangelogWriter,
    DurabilityError,
    DurableStore,
    SegmentCorruption,
    read_changelog,
    read_segment,
    write_segment,
)
from .engine import (
    CacheStats,
    CertaintySession,
    DeadlineExceeded,
    PlanCache,
    QueryPlan,
    ShardedCertaintySession,
    certain_answers_sharded,
    compile_plan,
    default_plan_cache,
    shard_of_key,
)
from .faults import FaultInjector, FaultPlan, FaultSpec, InjectedFault, inject
from .fo import certain_rewriting, evaluate_sentence
from .incremental import (
    MaterializedCertainView,
    StalenessStats,
    SupportIndex,
    ViewManager,
)
from .model import (
    Atom,
    ChangeSet,
    Constant,
    DatabaseSchema,
    Fact,
    RelationSchema,
    UncertainDatabase,
    Valuation,
    Variable,
    count_repairs,
    enumerate_repairs,
)
from .probability import BIDDatabase, is_safe, probability, probability_safe_plan
from .service import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
    CertaintyService,
    CircuitOpen,
    Tenant,
)
from .store import (
    ColumnarFactIndex,
    ColumnarFactStore,
    InternTable,
    global_intern_table,
)
from .query import (
    ConjunctiveQuery,
    JoinTree,
    build_join_tree,
    cycle_query_ac,
    cycle_query_c,
    figure2_q1,
    figure4_query,
    kolaitis_pema_q0,
    parse_facts,
    parse_query,
    satisfies,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "Atom",
    "Attack",
    "AttackCycle",
    "AttackGraph",
    "BIDDatabase",
    "CacheStats",
    "CertaintyOutcome",
    "CertaintyService",
    "CertaintySession",
    "ChangeSet",
    "ChangelogWriter",
    "CircuitOpen",
    "Classification",
    "ColumnarFactIndex",
    "ColumnarFactStore",
    "ComplexityBand",
    "ConjunctiveQuery",
    "Constant",
    "DatabaseSchema",
    "DeadlineExceeded",
    "DurabilityError",
    "DurableStore",
    "Fact",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InternTable",
    "IntractableQueryError",
    "JoinTree",
    "MaterializedCertainView",
    "PlanCache",
    "QueryPlan",
    "RelationSchema",
    "SegmentCorruption",
    "ShardedCertaintySession",
    "StalenessStats",
    "SupportIndex",
    "Tenant",
    "UncertainDatabase",
    "UnsupportedQueryError",
    "Valuation",
    "Variable",
    "ViewManager",
    "__version__",
    "build_join_tree",
    "certain_answers",
    "certain_answers_sharded",
    "certain_brute_force",
    "certain_cycle_query",
    "certain_fo",
    "certain_fo_rewriting",
    "certain_rewriting",
    "certain_terminal_cycles",
    "classify",
    "classify_cached",
    "classify_corpus",
    "compile_plan",
    "default_plan_cache",
    "count_repairs",
    "cycle_query_ac",
    "cycle_query_c",
    "enumerate_repairs",
    "evaluate_sentence",
    "figure2_q1",
    "figure4_query",
    "frontier_table",
    "global_intern_table",
    "inject",
    "is_certain",
    "is_safe",
    "kolaitis_pema_q0",
    "parse_facts",
    "parse_query",
    "probability",
    "probability_safe_plan",
    "purify",
    "read_changelog",
    "read_segment",
    "satisfies",
    "shard_of_key",
    "solve",
    "theorem2_reduction",
    "write_segment",
]
