"""Delta-shipped shard runtime: long-lived block-hash-sharded workers.

This is the engine's only multi-process path.  Instead of shipping a
snapshot of the database to every worker, it keeps *partitioned,
continuously maintained* replicas:

* the database is partitioned by a **stable hash of the block key** into N
  shards (:func:`shard_of_key`) — relation-name-agnostic, so same-key
  blocks of *different* relations co-locate on one shard and same-key
  joins stay shard-local;
* each shard is one **long-lived worker process** holding a persistent
  shard database, a shard-local :class:`~repro.engine.session.CertaintySession`
  (own plan cache, own columnar store), and a mirror intern table for the
  wire format;
* parent-side observer hooks route every mutation to the owning shard's
  pending delta; deltas are **flushed on the next dispatch** as integer
  rows plus an intern-table suffix of only the newly-interned constant
  values (:meth:`~repro.store.intern.InternTable.values_since`) — steady
  state ships O(delta) bytes, never O(database);
* candidates scatter to the shards that own their supporting blocks.
  Workers decide **optimistically** and validate ownership afterwards: the
  per-candidate read set captured during the decision is checked against
  the shard's key space, and any candidate whose decision read a foreign
  block, a wildcard key mask or a whole relation is handed back undecided
  and re-decided parent-side (counted as a ``cross_shard_fallback``).
  Compiled plans never read the active domain, so no read set depends on
  every shard.

Soundness of the optimistic decide
----------------------------------
Plan execution is deterministic and every probe key is derived from facts
found by earlier reads (the :class:`~repro.fo.compile.ReadSet` argument).
If every block the shard-local execution read is *owned* by the shard,
then each of those blocks has identical content in the shard database and
the full database — so the full-database execution replays identically,
read for read, and reaches the same verdict.  If the full-database
execution would ever read a foreign block, the shard execution (identical
up to that point) issues the same read, records it (probed-but-absent
blocks are recorded too), and validation rejects the candidate.  The
non-FO solvers record *static* per-atom support — fully pinned key masks
are validated like blocks (mask ⇒ whole block, Lemma 1 granularity);
wildcard masks and relation scans always fall back.  A
single-shard session is a full replica, so validation is vacuous there.

Failure containment
-------------------
A dead, erroring or stalled worker costs latency, never an answer: its
candidates re-decide on the parent, and a supervisor restarts it with a
fresh bootstrap after an exponential backoff.  A shard that keeps failing
degrades the session down :data:`DEGRADATION_LADDER` to serial serving on
the parent, with periodic probes back up to sharded serving.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
import traceback
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..certainty.solver import CertaintyOutcome
from ..faults import FaultPlan, FaultSpec, fire as _fire_fault, install as _install_faults
from ..faults import worker_fault_specs as _worker_fault_specs
from ..fo.compile import ReadSet
from ..model.atoms import Fact, RelationSchema
from ..model.database import DatabaseObserver, UncertainDatabase
from ..model.symbols import Constant, is_constant
from ..query.conjunctive import ConjunctiveQuery
from ..store import InternTable
from .cache import PlanCache
from .session import CertaintySession

#: Candidate tuples below this count decide inline: one pipe round-trip
#: costs more than a handful of sequential decisions.
MIN_SHARD_CANDIDATES = 4

#: Routing-table sentinel: the candidate's last decision was not
#: shard-local, so route it straight to the parent next time.
_PARENT = -1

#: Timeout sentinel for ``_recv_from``: "use the session's configured
#: dispatch deadline" (``None`` already means "wait forever").
_DEFAULT_TIMEOUT: Any = object()

#: A relation signature on the wire: enough to rebuild the schema.
_RelationSig = Tuple[str, int, int]  # (name, arity, key_size)

#: One wire delta group: a relation signature plus its integer rows.
_RowGroup = Tuple[str, int, int, Tuple[Tuple[int, ...], ...]]

#: Seconds a freshly spawned worker gets to acknowledge its bootstrap
#: partition (never less than the dispatch deadline).  A cold start —
#: forkserver spawn plus ``import repro`` — can outlast a dispatch window
#: tuned for steady-state replies.
STARTUP_DEADLINE = 30.0

#: Graceful-degradation ladder: a session whose workers keep failing steps
#: down to serial serving on the parent; a probe every few degraded
#: dispatches tries to climb back to sharded serving.
DEGRADATION_LADDER = ("sharded", "serial")


def _pool_mp_context() -> Optional[multiprocessing.context.BaseContext]:
    """The start-method context for shard workers.

    ``fork`` (the Linux default) duplicates the parent mid-flight, including
    any *held* lock — and this engine holds locks (plan cache, formula memo,
    classify counter) precisely when other threads are busy, so a fork racing
    a compile could hand workers a lock nobody will ever release.
    ``forkserver`` forks workers from a clean, single-threaded server
    process instead (and is still far cheaper than ``spawn``); platforms
    without it (Windows) fall back to their default, which is the equally
    safe ``spawn``.

    One carve-out: forkserver (like spawn) re-imports the parent's
    ``__main__`` in each worker, which is impossible when the parent runs
    from stdin or an embedded interpreter (``__main__.__file__`` names no
    real file) — workers would crash at startup.  Those parents fall back
    to the platform default (``fork``), which needs no re-import.
    """
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        return None
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - Windows
        return None


class DeadlineExceeded(TimeoutError):
    """An end-to-end request deadline expired before the work completed.

    Raised by the shard runtime when a dispatch's absolute deadline (a
    ``time.monotonic`` instant propagated from a service ticket) passes,
    and by the admission controller when a queued request's deadline
    expires before it even starts.  Deliberately **not** served by a
    fallback: blowing a deadline by silently re-deciding inline would be
    slower than the caller's budget, so the budget violation surfaces.
    """


def shard_of_key(key_constants: Sequence[Constant], n_shards: int) -> int:
    """The shard owning a block key — stable across processes and hash seeds.

    Hashes the *values* of the key constants (CRC32 over their reprs), not
    Python object hashes, which are salted per process.  The relation name
    is deliberately **not** hashed: blocks of different relations sharing a
    key land on the same shard (co-partitioning), so a join on the key —
    the common shape of certain rewritings — reads only shard-local blocks.
    """
    if n_shards <= 1:
        return 0
    payload = "\x1f".join(repr(c.value) for c in key_constants)
    return zlib.crc32(payload.encode("utf-8")) % n_shards


def _read_set_is_local(read_set: ReadSet, shard_id: int, n_shards: int) -> bool:
    """Was this (portable) read set satisfied entirely by shard-owned blocks?

    The validation half of the optimistic decide: see the module docstring
    for the soundness argument.  ``read_set`` must already be portable —
    object-space block keys, no store-local ids.
    """
    if n_shards <= 1:
        return True  # a single shard is a full replica
    if read_set.relations:
        return False
    for _name, key in read_set.blocks:
        if shard_of_key(key, n_shards) != shard_id:
            return False
    for _name, mask in read_set.key_masks:
        if any(m is None for m in mask):
            return False  # wildcard: may match blocks on any shard
        if shard_of_key(mask, n_shards) != shard_id:
            return False
    return True


class ShardStats:
    """Counters describing one :class:`ShardedCertaintySession`'s traffic.

    ``dispatches``
        decide rounds that consulted the worker pool;
    ``shard_decides`` / ``parent_decides``
        candidates whose verdict came from a worker (ownership-validated) /
        from the parent's inline session;
    ``cross_shard_fallbacks``
        candidates a worker decided but whose read set crossed shard
        boundaries, forcing a parent-side re-decision;
    ``delta_flushes`` / ``delta_bytes_shipped`` / ``delta_facts_shipped``
        incremental delta traffic to the pool (bytes are exact wire
        payload sizes); ``max_flush_bytes`` is the largest single flush —
        the number the bench compares against a full snapshot;
    ``bootstraps`` / ``bootstrap_bytes_shipped``
        full partitioned loads (pool start and post-crash restarts);
    ``worker_restarts``
        individual supervised worker restarts (spawn + shard re-bootstrap)
        after a detected failure;
    ``worker_failures``
        detected worker failures: dead pipes, error replies, and missed
        dispatch deadlines (each also schedules a backoff-gated restart);
    ``deadline_timeouts``
        commands where a worker missed its reply deadline (the dispatch
        deadline, or the startup budget for a bootstrap) and was declared
        dead (a slow or stalled worker, contained per shard);
    ``stale_replies_dropped``
        replies discarded because their sequence id belonged to a request
        aborted earlier (a caller deadline expired mid-gather) — fencing
        that keeps an old verdict from pairing with a new candidate bucket;
    ``degradations``
        steps taken down the sharded→serial ladder after a shard
        exhausted its restart budget;
    ``degraded_decides``
        candidates served serially on the parent while degraded;
    ``heartbeats``
        explicit :meth:`ShardedCertaintySession.heartbeat` sweeps.
    """

    __slots__ = (
        "dispatches",
        "shard_decides",
        "parent_decides",
        "cross_shard_fallbacks",
        "delta_flushes",
        "delta_bytes_shipped",
        "delta_facts_shipped",
        "max_flush_bytes",
        "bootstraps",
        "bootstrap_bytes_shipped",
        "worker_restarts",
        "worker_failures",
        "deadline_timeouts",
        "stale_replies_dropped",
        "degradations",
        "degraded_decides",
        "heartbeats",
    )

    def __init__(self) -> None:
        self.dispatches = 0
        self.shard_decides = 0
        self.parent_decides = 0
        self.cross_shard_fallbacks = 0
        self.delta_flushes = 0
        self.delta_bytes_shipped = 0
        self.delta_facts_shipped = 0
        self.max_flush_bytes = 0
        self.bootstraps = 0
        self.bootstrap_bytes_shipped = 0
        self.worker_restarts = 0
        self.worker_failures = 0
        self.deadline_timeouts = 0
        self.stale_replies_dropped = 0
        self.degradations = 0
        self.degraded_decides = 0
        self.heartbeats = 0

    def __repr__(self) -> str:
        return (
            f"ShardStats(dispatches={self.dispatches}, "
            f"shard={self.shard_decides}, parent={self.parent_decides}, "
            f"fallbacks={self.cross_shard_fallbacks}, "
            f"delta_bytes={self.delta_bytes_shipped}, "
            f"restarts={self.worker_restarts})"
        )


class _PendingDelta:
    """Net per-shard accumulation of routed mutations between flushes.

    Rows keep :class:`~repro.model.database.ChangeSet` net semantics at the
    wire level: a fact added and discarded between two flushes cancels out
    and ships nothing, so pending state is bounded by the net touched rows,
    never by the mutation churn.
    """

    __slots__ = ("added", "discarded")

    def __init__(self) -> None:
        # signature -> insertion-ordered row set (dict keys).
        self.added: Dict[_RelationSig, Dict[Tuple[int, ...], None]] = {}
        self.discarded: Dict[_RelationSig, Dict[Tuple[int, ...], None]] = {}

    def record(self, sig: _RelationSig, row: Tuple[int, ...], added: bool) -> None:
        cancel = self.discarded if added else self.added
        rows = cancel.get(sig)
        if rows is not None and row in rows:
            del rows[row]
            if not rows:
                del cancel[sig]
            return
        target = self.added if added else self.discarded
        target.setdefault(sig, {})[row] = None

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.discarded)

    def take(self) -> Tuple[Tuple[_RowGroup, ...], Tuple[_RowGroup, ...]]:
        """Drain into wire row groups (clears the pending state)."""
        added = tuple(
            (name, arity, key_size, tuple(rows))
            for (name, arity, key_size), rows in self.added.items()
        )
        discarded = tuple(
            (name, arity, key_size, tuple(rows))
            for (name, arity, key_size), rows in self.discarded.items()
        )
        self.added = {}
        self.discarded = {}
        return added, discarded


class _DeltaRouter(DatabaseObserver):
    """Observer hook routing each mutated fact to its owning shard's delta."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "ShardedCertaintySession") -> None:
        self._owner = owner

    def fact_added(self, fact: Fact) -> None:
        self._owner._record_mutation(fact, added=True)

    def fact_discarded(self, fact: Fact) -> None:
        self._owner._record_mutation(fact, added=False)

    # batch_applied: the default replay delivers the *net* ChangeSet through
    # the per-fact hooks, which is exactly the delta the shards need.


class _WorkerHandle:
    """Parent-side handle on one long-lived shard worker process."""

    __slots__ = ("process", "conn", "watermark", "next_seq")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Length of the wire intern table prefix already shipped.
        self.watermark = 0
        #: Sequence id of the next command sent on this pipe.  The worker
        #: echoes it in the reply, so the parent can discard replies that
        #: belong to a request it already gave up on (see ``_recv_from``).
        self.next_seq = 0


class _WorkerFailure(RuntimeError):
    """A worker replied with an error or died mid-conversation."""


# -- the worker process -----------------------------------------------------------


def _worker_relation(
    cache: Dict[_RelationSig, RelationSchema], sig: _RelationSig
) -> RelationSchema:
    relation = cache.get(sig)
    if relation is None:
        relation = RelationSchema(*sig)
        cache[sig] = relation
    return relation


def _worker_apply_delta(
    db: UncertainDatabase,
    mirror: InternTable,
    relations: Dict[_RelationSig, RelationSchema],
    base: int,
    values: Tuple[Any, ...],
    added: Tuple[_RowGroup, ...],
    discarded: Tuple[_RowGroup, ...],
) -> int:
    """Apply one shipped delta to the shard database; return its fact count."""
    mirror.extend_values(base, values)
    # The watermark-consistency crash window: the intern suffix is now in
    # the mirror but no row has been applied.  A worker dying here must
    # not leave the parent believing the suffix was absorbed — the
    # supervisor restarts the shard from watermark 0 with a full
    # re-bootstrap, so a half-applied delta can never skew the id space.
    fault = _fire_fault("shard.worker.delta")
    if fault is not None and fault.kind == "kill":
        os._exit(17)
    with db.batch():
        for name, arity, key_size, rows in discarded:
            relation = _worker_relation(relations, (name, arity, key_size))
            for row in rows:
                db.discard(Fact(relation, mirror.decode(row)))
        for name, arity, key_size, rows in added:
            relation = _worker_relation(relations, (name, arity, key_size))
            for row in rows:
                db.add(Fact(relation, mirror.decode(row)))
    return len(db)


def _worker_decide(
    session: CertaintySession,
    shard_id: int,
    n_shards: int,
    query: ConjunctiveQuery,
    candidates: Tuple[Tuple[Constant, ...], ...],
    allow_exponential: bool,
) -> List[Tuple[bool, bool]]:
    """Optimistically decide *candidates* on the shard; validate ownership.

    Returns one ``(certain, valid)`` pair per candidate, in input order.
    ``valid`` is the ownership verdict of the read set captured during the
    decision (made portable against the shard store first); invalid
    candidates' verdicts are meaningless and the parent re-decides them.
    """
    support: Dict[Tuple[Constant, ...], ReadSet] = {}
    certain = set(
        session.decide_candidates(
            query, list(candidates), allow_exponential=allow_exponential, support=support
        )
    )
    store = session.store
    return [
        (
            candidate in certain,
            _read_set_is_local(
                support[candidate].to_portable(store), shard_id, n_shards
            ),
        )
        for candidate in candidates
    ]


def _shard_worker_main(
    conn, shard_id: int, n_shards: int, fault_specs: Tuple[FaultSpec, ...] = ()
) -> None:
    """Command loop of one shard worker: apply deltas, decide candidates.

    The worker owns a persistent shard database and session for its whole
    lifetime — mutations arrive as integer-row deltas against the mirror
    intern table, never as fresh snapshots.  Every command carries a
    parent-assigned sequence id and every reply echoes it
    (``(seq, "ok"|"decided"|"error", ...)``), so the parent pairs requests
    with replies even after it abandoned an earlier request mid-gather;
    unexpected exceptions ship the traceback back instead of killing the
    process, and the parent treats them as a worker failure.

    *fault_specs* are the parent's active worker-process fault specs
    (shipped at spawn time because the parent's injector does not cross
    the process boundary); the worker installs a local injector over the
    specs addressed to its shard.
    """
    if fault_specs:
        # Keep only the specs addressed to this shard, then strip the pin:
        # in-process hook points (like the delta crash window) fire without
        # a shard argument, and everything left is already ours.
        _install_faults(
            FaultPlan(
                [
                    s._replace(shard=None)
                    for s in fault_specs
                    if s.shard is None or s.shard == shard_id
                ]
            )
        )
    mirror = InternTable()
    relations: Dict[_RelationSig, RelationSchema] = {}
    db = UncertainDatabase()
    # A worker-local plan cache (plans cannot cross process boundaries) and
    # an explicitly private intern table: the shard's id space belongs to
    # this worker alone, never to whatever else runs in the process.
    session = CertaintySession(
        db, plan_cache=PlanCache(maxsize=64), intern_table=InternTable()
    )
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):  # parent went away
            break
        seq = -1
        try:
            command = pickle.loads(payload)
            seq, kind = command[0], command[1]
            fault = _fire_fault("shard.worker.command", shard=shard_id)
            if fault is not None:
                if fault.kind == "kill":
                    os._exit(17)
                if fault.kind == "stall":
                    time.sleep(fault.delay or 0.2)
            if kind == "stop":
                conn.send((seq, "bye"))
                break
            if kind == "ping":
                conn.send((seq, "ok", "pong"))
            elif kind == "delta":
                _, _, base, values, added, discarded = command
                facts = _worker_apply_delta(
                    db, mirror, relations, base, values, added, discarded
                )
                conn.send((seq, "ok", facts))
            elif kind == "decide":
                _, _, query, candidates, allow_exponential = command
                conn.send(
                    (
                        seq,
                        "decided",
                        _worker_decide(
                            session,
                            shard_id,
                            n_shards,
                            query,
                            candidates,
                            allow_exponential,
                        ),
                    )
                )
            elif kind == "stats":
                conn.send((seq, "ok", {"facts": len(db), "constants": len(mirror)}))
            else:
                conn.send((seq, "error", f"unknown shard command {kind!r}"))
        except Exception:
            try:
                conn.send((seq, "error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    conn.close()


# -- the parent session -----------------------------------------------------------


class ShardedCertaintySession:
    """Certain answers over one mutating database, sharded by block-key hash.

    Parameters
    ----------
    db:
        The uncertain database to serve queries against.
    n_shards:
        Long-lived worker count (default ``min(os.cpu_count(), 4)``); the
        database partitions into exactly this many shard databases.
    min_shard_candidates:
        Below this candidate count decisions run inline on the parent.
    allow_exponential:
        Session-wide default for the brute-force escape hatch.
    plan_cache:
        Plan cache of the parent's inline session (workers always compile
        through worker-local caches).
    intern_table:
        Scoped intern table of the parent's inline session.  Defaults to
        the process-wide table; shard workers always intern against
        explicitly private worker-local tables, and the wire format uses
        its own private table regardless.
    dispatch_deadline:
        Seconds a worker gets to answer one command before the supervisor
        declares it dead (``None`` disables — waits forever).  Contains a
        stalled or wedged worker to one shard: its bucket re-decides on
        the parent, the process is killed, and a backoff-gated restart is
        scheduled.  A bootstrap reply gets at least
        :data:`STARTUP_DEADLINE` seconds, since it includes worker startup.
    restart_backoff / max_backoff:
        Base and cap of the exponential restart backoff: after ``k``
        consecutive failures of one shard, the next restart attempt waits
        ``min(restart_backoff * 2**(k-1), max_backoff)`` seconds.  During
        backoff the shard's candidates serve from the parent inline.
    degrade_after_failures:
        Consecutive failures of any single shard after which the session
        **degrades** to serial serving on the parent
        (counted in ``stats.degradations``).  Failure counts reset on any
        successful reply from the shard, so only persistent inability to
        serve escalates.
    degraded_probe_interval:
        Degraded dispatches between probes that try to climb back to
        sharded serving.
    clock:
        Injectable monotonic time source (default ``time.monotonic``) used
        for **every** deadline and backoff comparison in this session, so
        deadlines computed by an admission controller or service with the
        same injected clock live on the same timeline.

    Guarantees
    ----------
    ``certain_answers`` / ``decide_candidates`` return exactly what the
    sequential :class:`CertaintySession` returns — shard-local verdicts are
    accepted only when the decision's captured read set was satisfied
    entirely by shard-owned blocks, and everything else re-decides on the
    parent (see the module docstring for the soundness argument).
    Mutations between calls ship as O(delta) integer rows plus newly
    interned constant values; the worker pool is **never** rebuilt for a
    mutation.

    Example
    -------
    >>> with ShardedCertaintySession(db, n_shards=4) as shards:  # doctest: +SKIP
    ...     shards.certain_answers(open_query)
    ...     db.add(fact)                  # routed; ships as a delta
    ...     shards.certain_answers(open_query)
    """

    def __init__(
        self,
        db: UncertainDatabase,
        n_shards: Optional[int] = None,
        min_shard_candidates: int = MIN_SHARD_CANDIDATES,
        allow_exponential: bool = False,
        plan_cache: Optional[PlanCache] = None,
        intern_table: Optional[InternTable] = None,
        dispatch_deadline: Optional[float] = 30.0,
        restart_backoff: float = 0.05,
        max_backoff: float = 2.0,
        degrade_after_failures: int = 3,
        degraded_probe_interval: int = 8,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self._db = db
        self._n_shards = n_shards if n_shards is not None else min(os.cpu_count() or 1, 4)
        self._min_shard = min_shard_candidates
        self._allow_exponential = allow_exponential
        # Inline session first: its index observer registers before the
        # router, so routing always sees an up-to-date parent index.
        self._inner = CertaintySession(
            db,
            plan_cache=plan_cache,
            allow_exponential=allow_exponential,
            intern_table=intern_table,
        )
        #: Private wire intern table: ids on the wire are dense over the
        #: constants this session actually ships, independent of the
        #: process-global table, so delta byte counts reflect the workload.
        self._wire_table = InternTable()
        self._router = _DeltaRouter(self)
        db.register_observer(self._router)
        self._workers: Optional[List[Optional[_WorkerHandle]]] = None
        self._pending: List[_PendingDelta] = [
            _PendingDelta() for _ in range(self._n_shards)
        ]
        # -- supervision state ----------------------------------------------
        self._clock = clock or time.monotonic
        self._dispatch_deadline = dispatch_deadline
        self._restart_backoff = restart_backoff
        self._max_backoff = max_backoff
        self._degrade_after = max(1, degrade_after_failures)
        self._probe_interval = max(1, degraded_probe_interval)
        self._failures = [0] * self._n_shards
        self._backoff_until = [0.0] * self._n_shards
        self._degraded: Optional[str] = None  # None | "serial"
        self._degraded_since_probe = 0
        #: query -> candidate -> owning shard (or _PARENT), learned from
        #: validated decisions; a cheap guess seeds unknown candidates.
        self._routing: Dict[ConjunctiveQuery, Dict[Tuple[Constant, ...], int]] = {}
        self.stats = ShardStats()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and detach from the database (idempotent)."""
        if self._closed:
            return
        self._teardown_workers()
        self._db.unregister_observer(self._router)
        self._inner.close()
        self._closed = True

    def __enter__(self) -> "ShardedCertaintySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _teardown_workers(self) -> None:
        if self._workers is None:
            return
        live = [w for w in self._workers if w is not None]
        for worker in live:
            try:
                worker.conn.send_bytes(pickle.dumps((worker.next_seq, "stop")))
            except (BrokenPipeError, OSError):
                pass
        for worker in live:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.conn.close()
        self._workers = None
        self._pending = [_PendingDelta() for _ in range(self._n_shards)]

    # -- views -------------------------------------------------------------------

    @property
    def db(self) -> UncertainDatabase:
        """The wrapped database."""
        return self._db

    @property
    def n_shards(self) -> int:
        """The configured shard / worker count."""
        return self._n_shards

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    @property
    def pool_started(self) -> bool:
        """``True`` while the long-lived workers are alive."""
        return self._workers is not None

    @property
    def session(self) -> CertaintySession:
        """The parent's inline session (candidate enumeration, fallbacks)."""
        return self._inner

    @property
    def store(self):
        """The parent inline session's columnar store (portability helper)."""
        return self._inner.store

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardedCertaintySession({self._db!r}, shards={self._n_shards}, {state})"
        )

    def owner_of(self, key_constants: Sequence[Constant]) -> int:
        """The shard owning blocks keyed by *key_constants*."""
        return shard_of_key(key_constants, self._n_shards)

    def shard_fact_counts(self) -> List[int]:
        """Current fact count per shard (flushes pending deltas first)."""
        self._check_open()
        self._ensure_workers(force=True)
        self._flush_deltas()
        assert self._workers is not None
        counts: List[int] = []
        for shard, worker in enumerate(self._workers):
            sent = None if worker is None else self._send_to(shard, ("stats",))
            if sent is None:
                raise _WorkerFailure(f"shard {shard} is down")
            reply = self._recv_from(shard, sent[0], None)
            if reply is None or reply[0] != "ok":
                raise _WorkerFailure(f"shard {shard} failed to report stats")
            counts.append(reply[1]["facts"])
        return counts

    def heartbeat(self, timeout: Optional[float] = None) -> List[bool]:
        """Ping every worker; returns per-shard liveness (dead shards noted).

        A shard that misses the heartbeat window is declared failed —
        terminated, backoff-scheduled for restart — exactly as if a
        dispatch had caught it, so periodic heartbeats surface silent
        hangs before a query does.
        """
        self._check_open()
        if self._workers is None:
            return [False] * self._n_shards
        wait = self._dispatch_deadline if timeout is None else timeout
        self.stats.heartbeats += 1
        alive: List[bool] = []
        for shard, worker in enumerate(self._workers):
            if worker is None:
                alive.append(False)
                continue
            sent = self._send_to(shard, ("ping",))
            if sent is None:
                alive.append(False)
                continue
            reply = self._recv_from(shard, sent[0], None, dispatch_timeout=wait)
            alive.append(reply is not None and reply[0] == "ok")
        return alive

    @property
    def degraded_mode(self) -> Optional[str]:
        """``None`` while sharded; ``"serial"`` once degraded."""
        return self._degraded

    # -- sequential delegates ----------------------------------------------------

    def solve(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> CertaintyOutcome:
        """Decide ``db ∈ CERTAINTY(q)`` (single instance — runs inline)."""
        self._check_open()
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExceeded("request deadline expired before solve")
        return self._inner.solve(query, allow_exponential=allow_exponential)

    def is_certain(
        self, query: ConjunctiveQuery, allow_exponential: Optional[bool] = None
    ) -> bool:
        """``True`` iff every repair of the database satisfies *query*."""
        return self.solve(query, allow_exponential=allow_exponential).certain

    # -- mutation routing (observer callback target) -----------------------------

    def _record_mutation(self, fact: Fact, added: bool) -> None:
        if self._workers is None:
            return  # bootstrap reads the live database directly
        shard = shard_of_key(fact.key_terms, self._n_shards)
        relation = fact.relation
        sig = (relation.name, relation.arity, relation.key_size)
        row = self._wire_table.intern_many(fact.terms)
        self._pending[shard].record(sig, row, added)

    # -- worker pool -------------------------------------------------------------

    def _spawn_worker(self, shard_id: int) -> _WorkerHandle:
        ctx = _pool_mp_context() or multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard_id, self._n_shards, _worker_fault_specs()),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _ensure_workers(self, force: bool = False) -> None:
        """Start (or supervise back to life) the long-lived worker pool.

        First call: full bootstrap — every shard spawns and receives its
        partition as a delta-from-empty.  Later calls: each dead shard is
        restarted individually once its backoff window has passed
        (*force* overrides the backoff), re-bootstrapping **only that
        shard's** facts from the live database.  A restarted worker
        starts at intern watermark 0 and receives the complete wire-table
        prefix, so a crash mid-delta (intern suffix shipped, rows lost)
        can never leave a skewed replica id space behind.
        """
        if self._workers is None:
            self._workers = [None] * self._n_shards
            self._pending = [_PendingDelta() for _ in range(self._n_shards)]
            self.stats.bootstraps += 1
            for shard in range(self._n_shards):
                self._maybe_restart(shard, force=True, initial=True)
        else:
            for shard in range(self._n_shards):
                if self._workers[shard] is None:
                    self._maybe_restart(shard, force=force)

    def _maybe_restart(
        self, shard: int, force: bool = False, initial: bool = False
    ) -> None:
        """One supervised restart attempt for a dead shard (backoff-gated)."""
        if self._workers is None or self._workers[shard] is not None:
            return
        if not force and self._clock() < self._backoff_until[shard]:
            return
        try:
            self._start_shard(shard)
        except DeadlineExceeded:
            raise
        except Exception:
            self._note_failure(shard)
            return
        if self._workers[shard] is None:
            return  # the bootstrap failed; _start_shard noted it
        if not initial:
            self.stats.worker_restarts += 1
        # A successful spawn + bootstrap flush is real service: the worker
        # received and acknowledged its partition, so its failure streak ends.
        self._failures[shard] = 0
        self._backoff_until[shard] = 0.0

    def _start_shard(self, shard: int) -> None:
        """Spawn one worker and bootstrap it with its shard's partition.

        The bootstrap reply may take up to :data:`STARTUP_DEADLINE`
        seconds (or the dispatch deadline, if longer): it covers the
        worker's cold start, not only the delta apply.  A bootstrap that
        fails or times out is noted like any other worker failure and
        leaves the shard down.
        """
        assert self._workers is not None
        handle = self._spawn_worker(shard)
        self._workers[shard] = handle
        self._pending[shard] = _PendingDelta()
        pending = self._pending[shard]
        n = self._n_shards
        for fact in self._db:
            if shard_of_key(fact.key_terms, n) != shard:
                continue
            relation = fact.relation
            sig = (relation.name, relation.arity, relation.key_size)
            pending.record(sig, self._wire_table.intern_many(fact.terms), True)
        seq = self._flush_shard(shard, bootstrap=True)
        if seq is None:
            return
        budget = self._dispatch_deadline
        if budget is not None:
            budget = max(budget, STARTUP_DEADLINE)
        reply = self._recv_from(shard, seq, None, dispatch_timeout=budget)
        if reply is not None and reply[0] != "ok":
            self._note_failure(shard)

    def _flush_shard(self, shard: int, bootstrap: bool = False) -> Optional[int]:
        """Send one shard its pending delta plus the intern values it lacks.

        Returns the command's sequence id for the caller to await, or
        ``None`` when there was nothing to ship or the pipe was dead (the
        failure is then already noted).  The bootstrap send skips the
        ``shard.pipe`` fault site: fault plans are pinned by arrival
        count, and that site counts dispatch-time sends only.
        """
        assert self._workers is not None
        worker = self._workers[shard]
        assert worker is not None
        pending = self._pending[shard]
        values = self._wire_table.values_since(worker.watermark)
        if not pending and not values:
            return None
        added, discarded = pending.take()
        sent = self._send_to(
            shard,
            ("delta", worker.watermark, values, added, discarded),
            pipe_fault=not bootstrap,
        )
        if sent is None:
            return None
        seq, nbytes = sent
        worker.watermark += len(values)
        if bootstrap:
            self.stats.bootstrap_bytes_shipped += nbytes
        else:
            self.stats.delta_flushes += 1
            self.stats.delta_bytes_shipped += nbytes
            self.stats.delta_facts_shipped += sum(
                len(group[3]) for group in added + discarded
            )
            self.stats.max_flush_bytes = max(self.stats.max_flush_bytes, nbytes)
        return seq

    def _flush_deltas(self, deadline: Optional[float] = None) -> None:
        """Ship pending deltas (and new intern values) to every live stale shard.

        Failure-contained: a shard whose pipe drops, whose worker dies
        mid-apply, or whose reply misses the dispatch deadline is marked
        dead (supervised restart later re-bootstraps it from the live
        database) and the flush continues for every other shard.  Sends
        complete before any receive, so the shards apply concurrently.
        """
        assert self._workers is not None
        flushed: List[Tuple[int, int]] = []  # (shard, command seq)
        for shard, worker in enumerate(self._workers):
            if worker is None:
                continue
            seq = self._flush_shard(shard)
            if seq is not None:
                flushed.append((shard, seq))
        for shard, seq in flushed:
            reply = self._recv_from(shard, seq, deadline)
            if reply is None:
                continue  # failure noted; the restart re-bootstraps the shard
            if reply[0] != "ok":
                self._note_failure(shard)
            else:
                self._failures[shard] = 0

    # -- supervision -------------------------------------------------------------

    def _send_to(
        self, shard: int, command: Tuple[Any, ...], pipe_fault: bool = True
    ) -> Optional[Tuple[int, int]]:
        """Envelope and send one command to a live shard.

        Allocates the worker's next sequence id, prepends it to *command*,
        and returns ``(seq, payload_bytes)`` — or ``None`` (after noting
        the failure) on a dead pipe.  The worker echoes the sequence id in
        its reply, which is what lets :meth:`_recv_from` fence replies
        belonging to requests this session already abandoned.
        """
        assert self._workers is not None
        worker = self._workers[shard]
        if worker is None:
            return None
        seq = worker.next_seq
        worker.next_seq = seq + 1
        payload = pickle.dumps((seq,) + command, protocol=pickle.HIGHEST_PROTOCOL)
        fault = _fire_fault("shard.pipe", shard=shard) if pipe_fault else None
        if fault is not None and fault.kind == "drop":
            try:
                worker.conn.close()
            except OSError:
                pass
        try:
            worker.conn.send_bytes(payload)
            return seq, len(payload)
        except (BrokenPipeError, OSError):
            self._note_failure(shard)
            return None

    def _recv_from(
        self,
        shard: int,
        seq: int,
        deadline: Optional[float],
        dispatch_timeout: Optional[float] = _DEFAULT_TIMEOUT,
    ) -> Optional[tuple]:
        """The reply to command *seq* from a shard, bounded by two deadlines.

        Returns the reply with its sequence id stripped, ``None`` (after
        noting the failure) when the worker is dead, errored, or missed
        its **dispatch** deadline, and raises :class:`DeadlineExceeded`
        when the *caller's* end-to-end deadline expires first.  The two
        timeouts are deliberately distinct: only a blown dispatch window
        kills and penalises the worker — a healthy worker polled with a
        tiny remaining request budget stays alive, its in-flight reply
        fenced by the sequence id (stale replies, including those left
        behind by a previous gather the caller abandoned, are discarded
        here, never paired with a later request).
        """
        assert self._workers is not None
        worker = self._workers[shard]
        if worker is None:
            return None
        if dispatch_timeout is _DEFAULT_TIMEOUT:
            dispatch_timeout = self._dispatch_deadline
        now = self._clock()
        dispatch_by = None if dispatch_timeout is None else now + dispatch_timeout
        if deadline is not None and now >= deadline:
            raise DeadlineExceeded("request deadline expired at shard dispatch")
        while True:
            now = self._clock()
            wait = None if dispatch_by is None else dispatch_by - now
            if deadline is not None:
                remaining = deadline - now
                wait = remaining if wait is None else min(wait, remaining)
            # DeadlineExceeded is a TimeoutError, hence an OSError: the
            # try blocks below must cover ONLY the pipe operations, or the
            # leave-the-worker-alive raises would be swallowed by the
            # dead-pipe handler and kill a healthy worker.
            try:
                ready = wait is None or worker.conn.poll(max(wait, 0.0))
            except (EOFError, OSError):
                self._note_failure(shard)
                return None
            if not ready:
                now = self._clock()
                if deadline is not None and now >= deadline and (
                    dispatch_by is None or now < dispatch_by
                ):
                    # The request budget ran out while the worker was
                    # still inside its dispatch window: the worker is
                    # not at fault, so leave it alive.
                    raise DeadlineExceeded(
                        "request deadline expired waiting on a shard reply"
                    )
                self.stats.deadline_timeouts += 1
                self._note_failure(shard)
                if deadline is not None and now >= deadline:
                    raise DeadlineExceeded(
                        "request deadline expired waiting on a shard reply"
                    )
                return None
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                self._note_failure(shard)
                return None
            if reply[0] != seq:
                self.stats.stale_replies_dropped += 1
                continue
            return tuple(reply[1:])

    def _note_failure(self, shard: int) -> None:
        """Declare one shard dead: kill it, schedule a backoff-gated restart.

        The shard's pending delta is dropped (the restart re-bootstraps
        from the live database, which already contains every mutation)
        and its failure streak grows — exceeding the restart budget steps
        the whole session down the degradation ladder.
        """
        self.stats.worker_failures += 1
        if self._workers is not None:
            worker = self._workers[shard]
            if worker is not None:
                try:
                    if worker.process.is_alive():
                        worker.process.terminate()
                    worker.process.join(timeout=5)
                except Exception:  # pragma: no cover - teardown best effort
                    pass
                try:
                    worker.conn.close()
                except OSError:
                    pass
                self._workers[shard] = None
        self._pending[shard] = _PendingDelta()
        self._failures[shard] += 1
        delay = min(
            self._restart_backoff * (2 ** (self._failures[shard] - 1)),
            self._max_backoff,
        )
        self._backoff_until[shard] = self._clock() + delay
        if self._failures[shard] >= self._degrade_after:
            self._degrade()

    def _degrade(self) -> None:
        """Step down the sharded→serial ladder (teardown deferred).

        One step per failure episode: the failure ledger resets on entry,
        so N shards dying together cost one degradation, not N.
        """
        if self._degraded is not None:
            return
        self._degraded = "serial"
        self.stats.degradations += 1
        self._degraded_since_probe = 0
        self._failures = [0] * self._n_shards
        self._backoff_until = [0.0] * self._n_shards

    def _restart_workers(self) -> None:
        """Tear the pool down after a failure; the next dispatch re-bootstraps."""
        self.stats.worker_restarts += 1
        if self._workers is not None:
            for worker in self._workers:
                if worker is not None and worker.process.is_alive():
                    worker.process.terminate()
            for worker in self._workers:
                if worker is not None:
                    worker.process.join(timeout=5)
                    worker.conn.close()
            self._workers = None
        self._pending = [_PendingDelta() for _ in range(self._n_shards)]

    # -- the sharded loop --------------------------------------------------------

    def certain_answers(
        self,
        query: ConjunctiveQuery,
        allow_exponential: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> Set[Tuple[Constant, ...]]:
        """The certain answers of a non-Boolean query, sharded over workers.

        Identical to the sequential session's answer set: candidates are
        enumerated once on the live (parent) database, scattered to the
        shards that own their supporting blocks, and every non-shard-local
        decision re-runs on the parent.  *deadline* is an absolute instant
        on the session clock (``time.monotonic`` unless injected); blowing
        it raises :class:`DeadlineExceeded` instead of degrading silently.
        """
        self._check_open()
        if query.is_boolean:
            raise ValueError("certain_answers expects a query with free variables")
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExceeded("request deadline expired before dispatch")
        candidates = self._inner.candidate_answers(query)
        return set(
            self.decide_candidates(
                query,
                candidates,
                allow_exponential=allow_exponential,
                deadline=deadline,
            )
        )

    def decide_candidates(
        self,
        query: ConjunctiveQuery,
        candidates: Sequence[Tuple[Constant, ...]],
        allow_exponential: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> List[Tuple[Constant, ...]]:
        """The certain candidates, in input order, scattered across shards.

        The sharded counterpart of
        :meth:`CertaintySession.decide_candidates`: the same verdicts in the
        same order, without read-set capture.  Candidates route to the
        shard that decided them last (learned routing), else to the owner
        of their first fully pinned atom key; ownership validation sends
        every non-shard-local decision back to the parent.

        Failure containment: individual worker deaths are absorbed by the
        supervisor (dead shards' buckets re-decide on the parent inline),
        repeated failures step the session down the
        sharded→serial :data:`DEGRADATION_LADDER`, and only an
        exhausted *deadline* escapes as :class:`DeadlineExceeded`.
        """
        self._check_open()
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExceeded("request deadline expired before dispatch")
        allow = (
            self._allow_exponential if allow_exponential is None else allow_exponential
        )
        if len(candidates) < self._min_shard:
            certain = self._inner.decide_candidates(
                query, candidates, allow_exponential=allow
            )
            self.stats.parent_decides += len(candidates)
            return certain
        if self._degraded is not None:
            if self._workers is not None:
                self._teardown_workers()
            return self._decide_degraded(query, candidates, allow, deadline)
        self._ensure_workers()
        try:
            self._flush_deltas(deadline=deadline)
            return self._scatter(query, candidates, allow, deadline)
        except DeadlineExceeded:
            raise
        except (_WorkerFailure, BrokenPipeError, EOFError, OSError):
            # Something escaped per-shard containment: tear the pool down
            # and serve this call from the always-correct parent session.
            self._restart_workers()
            certain = self._inner.decide_candidates(
                query, candidates, allow_exponential=allow
            )
            self.stats.parent_decides += len(candidates)
            return certain

    def _decide_degraded(
        self,
        query: ConjunctiveQuery,
        candidates: Sequence[Tuple[Constant, ...]],
        allow: bool,
        deadline: Optional[float],
    ) -> List[Tuple[Constant, ...]]:
        """Serve one dispatch serially on the parent, probing back up.

        Every ``degraded_probe_interval`` dispatches the session clears
        its failure ledger and retries the sharded path once; a clean run
        promotes back, another failure drops straight back down.
        """
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExceeded("request deadline expired in degraded mode")
        self._degraded_since_probe += 1
        if self._degraded_since_probe > self._probe_interval:
            self._degraded = None
            self._degraded_since_probe = 0
            self._failures = [0] * self._n_shards
            self._backoff_until = [0.0] * self._n_shards
            try:
                result = self.decide_candidates(
                    query, candidates, allow_exponential=allow, deadline=deadline
                )
            except DeadlineExceeded:
                self._degraded = "serial"
                raise
            except (_WorkerFailure, BrokenPipeError, EOFError, OSError):
                self._degraded = "serial"
            else:
                if self._degraded is None and (
                    self._workers is None
                    or all(w is None for w in self._workers)
                ):
                    # Every answer came from the parent fallback: the pool
                    # never actually recovered, so the probe failed.
                    self._degraded = "serial"
                return result
        self.stats.degraded_decides += len(candidates)
        certain = self._inner.decide_candidates(
            query, candidates, allow_exponential=allow
        )
        self.stats.parent_decides += len(candidates)
        return certain

    def _scatter(
        self,
        query: ConjunctiveQuery,
        candidates: Sequence[Tuple[Constant, ...]],
        allow: bool,
        deadline: Optional[float] = None,
    ) -> List[Tuple[Constant, ...]]:
        assert self._workers is not None
        routing = self._routing_for(query)
        buckets: Dict[int, List[Tuple[Constant, ...]]] = {}
        parent_side: List[Tuple[Constant, ...]] = []
        for candidate in candidates:
            shard = routing.get(candidate)
            if shard is None:
                shard = self._guess_shard(query, candidate)
            if shard is not None and shard != _PARENT and self._workers[shard] is None:
                shard = None  # the owner is down: decide on the parent inline
            if shard is None or shard == _PARENT:
                parent_side.append(candidate)
            else:
                buckets.setdefault(shard, []).append(candidate)
        replies = self._scatter_decide(buckets, query, allow, deadline)
        verdicts: Dict[Tuple[Constant, ...], bool] = {}
        for shard, bucket in buckets.items():
            shard_replies = replies.get(shard)
            if shard_replies is None:
                # The worker died mid-decide: its whole bucket re-decides on
                # the parent without poisoning the routing table (the
                # restarted shard stays the natural owner).
                parent_side.extend(bucket)
                continue
            for candidate, (certain, valid) in zip(bucket, shard_replies):
                if valid:
                    verdicts[candidate] = certain
                    routing[candidate] = shard
                    self.stats.shard_decides += 1
                else:
                    parent_side.append(candidate)
                    routing[candidate] = _PARENT
                    self.stats.cross_shard_fallbacks += 1
        if parent_side:
            parent_certain = set(
                self._inner.decide_candidates(
                    query, parent_side, allow_exponential=allow
                )
            )
            for candidate in parent_side:
                verdicts[candidate] = candidate in parent_certain
            self.stats.parent_decides += len(parent_side)
        self.stats.dispatches += 1
        return [c for c in candidates if verdicts[c]]

    def _scatter_decide(
        self,
        buckets: Dict[int, List[Tuple[Constant, ...]]],
        query: ConjunctiveQuery,
        allow: bool,
        deadline: Optional[float] = None,
    ) -> Dict[int, List[Tuple[bool, bool]]]:
        """Send one decide command per non-empty shard; gather all replies.

        Sends complete before any receive, so the workers decide their
        buckets concurrently.  A shard that dies, errors, or misses the
        dispatch deadline is simply absent from the result — the caller
        re-decides its bucket on the parent.
        """
        assert self._workers is not None
        sent: List[Tuple[int, int]] = []  # (shard, command seq)
        for shard in sorted(buckets):
            dispatched = self._send_to(
                shard, ("decide", query, tuple(buckets[shard]), allow)
            )
            if dispatched is not None:
                sent.append((shard, dispatched[0]))
        replies: Dict[int, List[Tuple[bool, bool]]] = {}
        for shard, seq in sent:
            reply = self._recv_from(shard, seq, deadline)
            if reply is None:
                continue
            if reply[0] != "decided":
                self._note_failure(shard)
                continue
            replies[shard] = reply[1]
            self._failures[shard] = 0
        return replies

    # -- routing -----------------------------------------------------------------

    def _routing_for(
        self, query: ConjunctiveQuery
    ) -> Dict[Tuple[Constant, ...], int]:
        if len(self._routing) > 32:
            self._routing.clear()  # bound stale-query entries
        table = self._routing.get(query)
        if table is None:
            table = {}
            self._routing[query] = table
        elif len(table) > 100_000:
            table.clear()
        return table

    def _guess_shard(
        self, query: ConjunctiveQuery, candidate: Tuple[Constant, ...]
    ) -> Optional[int]:
        """First-fix routing guess: the owner of the first fully-pinned atom key.

        Candidate constants bind the query's free variables; any atom whose
        key positions are thereby all pinned names a concrete block key,
        and its owner is the shard most likely to hold the candidate's
        whole support (co-partitioning makes same-key atoms land together).
        A wrong guess costs one fallback, never correctness.
        """
        binding = dict(zip(query.free_variables, candidate))
        for atom in query.atoms:
            key: List[Constant] = []
            for term in atom.key_terms:
                if is_constant(term):
                    key.append(term)
                else:
                    value = binding.get(term)
                    if value is None:
                        key = []
                        break
                    key.append(value)
            else:
                if key or not atom.key_terms:
                    return shard_of_key(tuple(key), self._n_shards)
        return None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ShardedCertaintySession is closed")


def certain_answers_sharded(
    db: UncertainDatabase,
    query: ConjunctiveQuery,
    n_shards: Optional[int] = None,
    allow_exponential: bool = False,
) -> Set[Tuple[Constant, ...]]:
    """One-shot sharded certain answers (see :class:`ShardedCertaintySession`).

    For repeated queries against a mutating database prefer a long-lived
    session — the whole point of the shard runtime is that workers and
    their shard databases persist across calls and mutations.
    """
    with ShardedCertaintySession(
        db, n_shards=n_shards, allow_exponential=allow_exponential
    ) as session:
        return session.certain_answers(query)
