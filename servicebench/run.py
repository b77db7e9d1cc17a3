"""One service-level benchmark: seeded traffic mixes through ``CertaintyService``.

Usage (from the repository root)::

    python3 servicebench/run.py --workload fo_read_mostly --seed 1 --seconds 18 --trace 0

Two client threads drive a pre-recorded, seeded trace closed-loop through
the public service API for ``--seconds``; every answer is then checked
against an independent sequential replay.  ``--trace 0`` prints the
end-to-end metrics (measured with tracing off); ``--trace 1`` re-runs the
exact same operations with span wrappers installed and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--fingerprint`` prints the workload's fingerprint; ``--check-determinism``
compares it across two ``PYTHONHASHSEED`` values; ``--report PATH``
writes the full record (environment, metrics, checks, span table) as JSON;
``servicebench/compare.py`` diffs two such reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for _entry in (str(SRC), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

# Shard workers fork from a forkserver that preloads this module, so
# importing the engine here spares every worker its own import.
try:
    import repro.engine.shards  # noqa: F401
except ImportError:
    pass  # main() reports the missing program

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Minimum samples per reported latency class.
MIN_SAMPLES = 100

#: Scratch space for durability directories, inside the checkout.
WORK_DIR = ".servicebench_work"

#: The coNP repair search recurses one frame per block (~5 per gadget).
RECURSION_LIMIT = 50_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="write the full JSON record here")
    parser.add_argument("--fingerprint", action="store_true", help="print the workload fingerprint")
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="compare the fingerprint under two PYTHONHASHSEED values",
    )
    return parser.parse_args(argv)


def check_determinism(args) -> int:
    """Generate the workload in two processes with different hash seeds."""
    prints = {}
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--fingerprint"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        prints[hash_seed] = out.stdout.split()[-1]
    same = len(set(prints.values())) == 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "fingerprints": prints, "identical": same}))
    return 0 if same else 1


def environment(workload, fingerprint: str, work: Path) -> dict:
    from servicebench import harness

    return {
        "cpu_count": harness.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": harness.git_commit(ROOT),
        "workload": workload.name,
        "seed": workload.seed,
        "fingerprint": fingerprint,
        "client_threads": len(workload.threads),
        "loop": "closed",
        "service": dict(workload.service),
        "sync": harness.DURABILITY_SYNC if workload.service["durable"] else None,
        "durability_fs": harness.filesystem_type(work),
    }


def served_checks(workload, service, checks: dict) -> None:
    """Non-vacuity checks on the live service, before it closes."""
    from servicebench import tracing

    if workload.service["shard_workers"]:
        stats = tracing.counters(service)
        shard, parent = stats["shards.shard_decides"], stats["shards.parent_decides"]
        checks["shard_decides"] = shard
        checks["parent_fallback_share"] = parent / (shard + parent) if shard + parent else 0.0
        checks["shard_decides_positive"] = shard > 0


def finish_durable(service, workload, directory: Path, checks: dict) -> dict:
    """Disk usage at the end of the run, then the timed, verified restart."""
    from servicebench import harness

    facts = sum(len(service.tenant(spec.name).db) for spec in workload.tenants)
    disk = harness.disk_bytes(directory)
    seconds, problems = harness.restart(service, workload, directory)
    checks["restart_exact"] = not problems
    if problems:
        checks["restart_problems"] = problems
    return {
        "restart_s": seconds,
        **disk,
        "disk_bytes_per_fact": (disk["segment_bytes"] + disk["wal_bytes"]) / facts if facts else 0.0,
    }


def run_plain(workload, args, work: Path) -> dict:
    """The untraced run: end-to-end metrics."""
    from servicebench import harness

    durable = workload.service["durable"]
    stores = [work / f"setup{k}" if durable else None for k in range(SETUP_REPEATS)]
    checks: dict = {}
    gc.collect()
    baseline = harness.rss_bytes()
    setups = []
    began = time.perf_counter()
    service = harness.build_service(workload, stores[0])
    setups.append(time.perf_counter() - began)
    try:
        rss = harness.rss_bytes() - baseline + harness.children_rss_bytes()
        for store in stores[1:]:
            gc.collect()  # each set-up starts from the same collector state
            began = time.perf_counter()
            extra = harness.build_service(workload, store)
            setups.append(time.perf_counter() - began)
            extra.close()
        gc.collect()
        logs, wall = harness.drive(service, workload, seconds=args.seconds)
        served_checks(workload, service, checks)
        durability = finish_durable(service, workload, stores[0], checks) if durable else {}
    finally:
        service.close()
    counts = [len(log.answers) for log in logs]
    wrong = harness.mismatches(logs, harness.oracle(workload, counts))
    attempted = sum(counts)
    errors = sum(len(log.errors) for log in logs)
    per_class = harness.summarize(workload, logs, wall)
    metrics = {key: value for key, value in per_class.items() if not key.endswith("_samples")}
    metrics["rss_mb"] = rss / 2**20
    metrics["setup_s"] = statistics.median(setups)
    checks.update(_sample_checks(per_class))
    return {
        "attempted": attempted,
        "failed": errors + wrong,
        "errors": errors,
        "mismatches": wrong,
        "error_rate": (errors + wrong) / attempted if attempted else 1.0,
        "wall_s": wall,
        "setups_s": setups,
        "samples": {k: v for k, v in per_class.items() if k.endswith("_samples")},
        "durability": durability,
        "checks": checks,
        "metrics": metrics,
        "error_examples": _error_examples(logs),
    }


def run_traced(workload, args, work: Path) -> dict:
    """The traced run: replay the untraced run's operations under spans.

    A time-bounded untraced run fixes how many operations each client
    issues; those exact operations are then replayed twice on fresh
    services, untraced and traced, and the gap between the two replays is
    the tracing overhead (both replays start with the process warm).
    """
    from servicebench import harness, tracing

    durable = workload.service["durable"]
    stores = [work / f"setup{k}" if durable else None for k in range(3)]
    checks: dict = {}

    def untraced(store, **bound):
        service = harness.build_service(workload, store)
        try:
            gc.collect()
            return harness.drive(service, workload, **bound)
        finally:
            service.close()

    timed_logs, _ = untraced(stores[0], seconds=args.seconds)
    counts = [len(log.answers) for log in timed_logs]
    plain_logs, plain_wall = untraced(stores[1], counts=counts)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.phase(tracing.SETUP)
        service = harness.build_service(workload, stores[2])
        try:
            gc.collect()
            before = tracing.counters(service)
            logs, wall = harness.drive(service, workload, counts=counts, tracer=tracer)
            after = tracing.counters(service)
            served_checks(workload, service, checks)
            tracer.phase(tracing.RESTART)
            durability = finish_durable(service, workload, stores[2], checks) if durable else {}
        finally:
            service.close()
    finally:
        tracer.uninstall()

    expected = harness.oracle(workload, counts)
    all_logs = timed_logs + plain_logs + logs
    wrong = sum(
        harness.mismatches(run_logs, expected) for run_logs in (timed_logs, plain_logs, logs)
    )
    attempted = 3 * sum(counts)
    errors = sum(len(log.errors) for log in all_logs)
    plain = harness.summarize(workload, plain_logs, plain_wall)
    traced = harness.summarize(workload, logs, wall)

    def overhead(key: str) -> float:
        return (traced[key] / plain[key] - 1.0) * 100 if plain[key] else 0.0

    writes = [op for ops, n in zip(workload.threads, counts) for op in ops[:n] if op[1] == "write"]
    run = {
        "writes": len(writes),
        "mutations": sum(len(op[2][0]) for op in writes),
        "error_rate": (errors + wrong) / attempted if attempted else 1.0,
        "trace.overhead_pct": (wall / plain_wall - 1.0) * 100,
        "trace.scan_p50_overhead_pct": overhead("scan_p50_ms"),
        "trace.read_p50_overhead_pct": overhead("read_p50_ms"),
        "trace.write_p50_overhead_pct": overhead("write_p50_ms"),
        **durability,
    }
    checks.update(_sample_checks(plain))
    return {
        "attempted": attempted,
        "failed": errors + wrong,
        "errors": errors,
        "mismatches": wrong,
        "error_rate": run["error_rate"],
        "wall_s": {"untraced": plain_wall, "traced": wall},
        "durability": durability,
        "checks": checks,
        "metrics": tracing.layer_metrics(tracer, before, after, run),
        "spans": tracing.span_table([s for s in tracer.spans if ":" in s.request]),
        "error_examples": _error_examples(all_logs),
    }


def _sample_checks(per_class: dict) -> dict:
    counts = [per_class[f"{cls}_samples"] for cls in ("scan", "read", "write")]
    return {
        "classes_nonempty": min(counts) > 0,
        "sample_floor_met": min(counts) >= MIN_SAMPLES,
    }


def _error_examples(logs, limit: int = 5) -> list:
    return [error for log in logs for error in log.errors.values()][:limit]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    # A terminated run unwinds like an error, so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from servicebench import harness, metrics, traffic

    if args.check_determinism:
        return check_determinism(args)
    workload = traffic.generate(args.workload, args.seed, args.seconds)
    fingerprint = traffic.fingerprint(workload)
    if args.fingerprint:
        print(fingerprint)
        return 0
    # The pre-recorded trace is harness data: freezing it keeps its size out
    # of the collection pauses the service pays for its own objects.
    gc.collect()
    gc.freeze()

    work_root = ROOT / WORK_DIR
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        env = environment(workload, fingerprint, work)
        result = run_traced(workload, args, work) if args.trace else run_plain(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
        harness.stop_processes()

    # The sample floor is reported, not enforced: it is a sizing property.
    checks = result["checks"]
    correct = (
        result["failed"] == 0
        and checks["classes_nonempty"]
        and checks.get("shard_decides_positive", True)
        and checks.get("restart_exact", True)
    )
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = {name: result["metrics"][name] for name, *_ in catalogue}

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# checks {json.dumps(checks, sort_keys=True)} error_rate={result['error_rate']}")
    if result["error_examples"]:
        print(f"# errors {result['error_examples']}")
    for name, value in values.items():
        print(f"{name:36s} {value:14.4f} {metrics.UNITS[name]}")
    if args.report is not None:
        record = dict(result, env=env, correct=correct, trace=args.trace, seconds=args.seconds)
        args.report.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
