"""Service set-up, the closed-loop client driver, the answer oracle, restart.

Everything here goes through the public :class:`CertaintyService` API.
The driver runs one client thread per owned-tenant set; each thread sends
its next operation only after the previous one returned (a closed loop, as
``ticket.result()`` callers behave), so a slower service receives less load.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import PlanCache
from repro.engine.session import CertaintySession
from repro.model.database import UncertainDatabase
from repro.service import CertaintyService
from repro.store import InternTable
from repro.workloads.streaming import apply_mutation

from .traffic import OP_CLASS, Workload

#: Seconds a client waits for one queued answer before counting a failure.
RESULT_TIMEOUT = 60.0

#: Changelog fsync policy of the durable workload.
DURABILITY_SYNC = "commit"


def build_service(workload: Workload, durability_dir: Optional[Path] = None) -> CertaintyService:
    """Set up the served state: service, tenants, baseline checkpoints, and
    one warm-up read per query shape (which also registers the views)."""
    config = workload.service
    kwargs: Dict[str, object] = {"max_workers": config["max_workers"]}
    if config.get("plan_cache_size"):
        kwargs["plan_cache_size"] = config["plan_cache_size"]
    if config["shard_workers"]:
        kwargs["shard_workers"] = config["shard_workers"]
    if durability_dir is not None:
        kwargs["durability_dir"] = durability_dir
        kwargs["durability_sync"] = DURABILITY_SYNC
    service = CertaintyService(**kwargs)
    try:
        for spec in workload.tenants:
            service.create_tenant(spec.name, facts=spec.facts)
            if durability_dir is not None:
                service.checkpoint(spec.name)
            for kind, query in spec.warm:
                execute(service, spec.name, kind, query)
    except BaseException:
        service.close()
        raise
    return service


def execute(service: CertaintyService, tenant: str, kind: str, payload):
    """Issue one operation and return its answer (``None`` for writes)."""
    if kind == "write":
        batch, checkpoint = payload
        service.apply(tenant, list(batch))
        if checkpoint:
            service.checkpoint(tenant)
        return None
    if kind in ("view", "view_clean"):
        return service.tenant(tenant).view_answers(payload)
    return service.submit(tenant, payload).result(RESULT_TIMEOUT)


class ClientLog:
    """What one client thread did: per-operation latency, answer and error."""

    __slots__ = ("latencies", "answers", "errors", "finished")

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.answers: List[object] = []
        self.errors: Dict[int, str] = {}
        self.finished = 0.0


def drive(
    service: CertaintyService,
    workload: Workload,
    seconds: Optional[float] = None,
    counts: Optional[Sequence[int]] = None,
    tracer=None,
) -> Tuple[List[ClientLog], float]:
    """Run every client thread closed-loop; returns the logs and wall time.

    Time-bounded with *seconds*; with *counts*, thread *i* replays exactly
    its first ``counts[i]`` operations instead (the traced replay).
    """
    names = [spec.name for spec in workload.tenants]
    logs = [ClientLog() for _ in workload.threads]
    start = [0.0]
    barrier = threading.Barrier(
        len(workload.threads), action=lambda: start.__setitem__(0, time.perf_counter())
    )

    def client(thread: int) -> None:
        ops = workload.threads[thread]
        log = logs[thread]
        limit = len(ops) if counts is None else counts[thread]
        clock = time.perf_counter
        barrier.wait()
        end = start[0] + seconds if seconds is not None else float("inf")
        try:
            for index in range(limit):
                if clock() >= end:
                    break
                tenant, kind, payload = ops[index]
                if tracer is not None:
                    tracer.start_request(f"{thread}:{index}", kind)
                began = clock()
                answer = None
                try:
                    answer = execute(service, names[tenant], kind, payload)
                except Exception as exc:  # a failed request is data, not a crash
                    log.errors[index] = repr(exc)
                log.latencies.append(clock() - began)
                log.answers.append(answer)
                if tracer is not None:
                    tracer.end_request(None if answer is None else len(answer))
        finally:
            log.finished = clock()

    threads = [
        # Daemon threads: an interrupted run exits without waiting for them.
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}", daemon=True)
        for i in range(len(workload.threads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(log.finished for log in logs) - start[0]
    return logs, wall


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


CLASSES = ("scan", "read", "write")


def summarize(workload: Workload, logs: Sequence[ClientLog], wall: float) -> Dict[str, float]:
    """Whole-run latency percentiles per class, and throughput.

    Failed operations are left out of both.  Medians over windows of the
    run would guard against a transient slowdown, but on the sparser
    classes (a few hundred samples) they spread wider across seeds.
    """
    latencies: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
    done = 0
    for ops, log in zip(workload.threads, logs):
        for index, latency in enumerate(log.latencies):
            if index in log.errors:
                continue
            done += 1
            cls = OP_CLASS[ops[index][1]]
            if cls is not None:
                latencies[cls].append(latency)
    out: Dict[str, float] = {}
    for cls, values in latencies.items():
        out[f"{cls}_samples"] = len(values)
        for q in (50, 90):
            out[f"{cls}_p{q}_ms"] = percentile(values, q) * 1000 if values else 0.0
    out["ops_per_s"] = done / wall
    return out


# -- the oracle -----------------------------------------------------------------


def oracle(workload: Workload, counts: Sequence[int]) -> List[List[object]]:
    """Expected answers by independent sequential replay.

    Each tenant replays on a fresh database and a plain
    :class:`CertaintySession` with a private :class:`InternTable` and plan
    cache — no service, views, shards, or durability.  Tenants are
    independent and each belongs to one client thread, so replaying each
    thread's executed prefix in order reproduces every tenant's history.
    An answer is a function of the tenant's state and the query, so a read
    repeated with no write in between reuses the replica's previous answer.
    """
    replicas = []
    for spec in workload.tenants:
        db = UncertainDatabase(spec.facts)
        session = CertaintySession(
            db, plan_cache=PlanCache(maxsize=4096), allow_exponential=True, intern_table=InternTable()
        )
        replicas.append((db, session, {}))
    expected: List[List[object]] = []
    try:
        for ops, count in zip(workload.threads, counts):
            out: List[object] = []
            for tenant, kind, payload in ops[:count]:
                db, session, answered = replicas[tenant]
                if kind == "write":
                    with db.batch():
                        for op in payload[0]:
                            apply_mutation(db, op)
                    answered.clear()
                    out.append(None)
                    continue
                answer = answered.get(payload)
                if answer is None:
                    if payload.is_boolean:
                        answer = frozenset({()}) if session.is_certain(payload) else frozenset()
                    else:
                        answer = frozenset(session.certain_answers(payload))
                    answered[payload] = answer
                out.append(answer)
            expected.append(out)
    finally:
        for _, session, _ in replicas:
            session.close()
    return expected


def mismatches(logs: Sequence[ClientLog], expected: Sequence[Sequence[object]]) -> int:
    """Reads whose answer differs from the oracle's (failed reads excluded)."""
    wrong = 0
    for log, want in zip(logs, expected):
        for index, (got, answer) in enumerate(zip(log.answers, want)):
            if answer is not None and index not in log.errors and got != answer:
                wrong += 1
    return wrong


# -- durability -----------------------------------------------------------------


def disk_bytes(directory: Path) -> Dict[str, int]:
    """Segment and WAL bytes under a durability directory."""
    segments = wal = 0
    for path in directory.rglob("*"):
        if path.is_file():
            if path.suffix == ".seg":
                segments += path.stat().st_size
            elif path.name.startswith("wal-"):
                wal += path.stat().st_size
    return {"segment_bytes": segments, "wal_bytes": wal}


def restart(service: CertaintyService, workload: Workload, directory: Path) -> Tuple[float, List[str]]:
    """Close *service*, reopen it over *directory*, time it to its first
    correct read on every tenant, and check recovery was exact.

    Returns the restart seconds and a list of recovery discrepancies (empty
    when the recovered facts, ``mutation_version`` and answers all match).
    """
    before = {}
    for spec in workload.tenants:
        tenant = service.tenant(spec.name)
        before[spec.name] = (
            frozenset(tenant.db.facts),
            tenant.db.mutation_version,
            service.submit(spec.name, spec.view_query).result(RESULT_TIMEOUT),
        )
    service.close()
    began = time.perf_counter()
    reopened = CertaintyService(
        max_workers=workload.service["max_workers"],
        durability_dir=directory,
        durability_sync=DURABILITY_SYNC,
    )
    try:
        answers = {
            spec.name: reopened.submit(spec.name, spec.view_query).result(RESULT_TIMEOUT)
            for spec in workload.tenants
        }
        seconds = time.perf_counter() - began
        problems = []
        for spec in workload.tenants:
            facts, version, answer = before[spec.name]
            tenant = reopened.tenant(spec.name)
            if frozenset(tenant.db.facts) != facts:
                problems.append(f"{spec.name}: recovered facts differ")
            if tenant.db.mutation_version != version:
                problems.append(
                    f"{spec.name}: mutation_version {tenant.db.mutation_version} != {version}"
                )
            if answers[spec.name] != answer:
                problems.append(f"{spec.name}: recovered answers differ")
    finally:
        reopened.close()
    return seconds, problems


# -- process memory --------------------------------------------------------------


def rss_bytes(pid: object = "self") -> int:
    """Resident set size of a process from ``/proc`` (0 where unavailable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def children_rss_bytes() -> int:
    """Summed resident size of this process's live worker processes."""
    return sum(rss_bytes(child.pid) for child in multiprocessing.active_children())


#: Seconds a helper process gets to exit on its own before it is killed.
STOP_TIMEOUT = 10.0


def stop_processes(timeout: float = STOP_TIMEOUT) -> None:
    """Stop every process this run started, and wait until each has ended.

    Closed services have already joined their shard workers; any worker
    still alive (an error path) is terminated here.  Then the forkserver
    the workers were forked from and the resource tracker multiprocessing
    starts beside it are stopped: both live until the last holder of their
    pipe closes it, which would otherwise be after this process exits.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import forkserver, resource_tracker

    server = getattr(forkserver, "_forkserver", None)
    if server is not None:
        _stop_helper(server, "_forkserver_pid", "_forkserver_alive_fd", timeout)
        server._forkserver_address = None
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None:
        _stop_helper(tracker, "_pid", "_fd", timeout)


def _stop_helper(owner, pid_attr: str, fd_attr: str, timeout: float) -> None:
    """Close a multiprocessing helper's alive pipe and reap it (kill when stuck)."""
    pid, fd = getattr(owner, pid_attr, None), getattr(owner, fd_attr, None)
    if fd is not None:
        try:
            os.close(fd)
        except OSError:
            pass
        setattr(owner, fd_attr, None)
    if pid is None:
        return
    setattr(owner, pid_attr, None)
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped


# -- the environment record ------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: Path) -> str:
    """The filesystem type of the mount holding *path* (from ``/proc/mounts``)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def cpu_count() -> int:
    """CPUs this process may run on (the affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
