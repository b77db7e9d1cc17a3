"""Guard the emitted benchmark reports against performance regressions.

Compares a freshly emitted report against the committed baseline of the
same suite and fails when a guarded metric regresses by more than
``--factor`` (default 2×).  The guarded metrics are *ratios* (sharded
speedup over sequential, cold restart over full rebuild, throughput kept
under faults), not absolute wall-clock: ratios are stable across machines
of different speed, so the guard works on shared CI boxes where raw
timings are meaningless.  Suites that record only absolute times (such as
``all_bands``) have no guard.

Supported suites (detected from the reports' ``benchmark`` field, which
must match between baseline and current):

``sharded_runtime``
    Guards ``speedup_vs_sequential`` per worker count (worst case over the
    suite's sizes) — but only when the current machine has at least 4
    CPUs: sharded timings measured on 1–2 core boxes are dominated by
    worker startup, not by the code under test.  The skip is recorded in
    the guard's output.  The in-run identity check (``all_agree``) and the
    O(delta) shipping invariant (``all_deltas_below_bootstrap``: no single
    delta flush may outweigh the session's own bootstrap payload) are
    enforced unconditionally — they are correctness properties, not
    timings.

``service_load``
    Guards the concurrent-vs-sequential throughput ratio of the
    multi-tenant service (same cpu-count skip).  The in-run identity check
    (``all_answers_match``: every admitted answer equals a sequential
    per-tenant replay) and the isolation check (``zero_intern_collisions``)
    are enforced unconditionally.

``fault_recovery``
    The chaos identity checks are enforced unconditionally: every answer
    produced under the injected fault schedule must equal the sequential
    replay (``all_agree``), the fault plan must actually have fired
    (``faults_exercised``), and the durable store must not have lost a
    single acknowledged batch across the injected-fsync crash
    (``zero_acknowledged_lost``).  The two bigger-is-better ratios —
    ``throughput_retained_under_faults`` and ``recovery_responsiveness``
    per size — are guarded only on runners with at least
    :data:`MIN_CPUS_FOR_PARALLEL_CHECK` CPUs (recorded skip below that):
    both are dominated by worker respawn cost, which a contended 1–2 core
    box measures too noisily to guard on.

``durability``
    Guards ``speedup_restart_vs_rebuild`` per shared changelog-tail size —
    cold restart from segment + changelog tail must keep beating a
    full-history rebuild.  The suite is single-process, so the ratio is
    checked on any CPU count.  The in-run recovery identity
    (``all_agree``: recovered facts, ``mutation_version``, and certain
    answers equal the pre-crash live state) is enforced unconditionally.

Run with::

    python benchmarks/emit_bench.py --suite durability --smoke \
        --output bench_durability_smoke.json
    python benchmarks/check_bench_regression.py \
        BENCH_durability.json bench_durability_smoke.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Sequence

#: Below this CPU count, parallel-scaling ratios are skipped (recorded in
#: the output): a 1–2 core box measures process startup, not scaling.
MIN_CPUS_FOR_PARALLEL_CHECK = 4


def _rows_by_size(report: Dict, key: str) -> Dict[int, Dict]:
    return {row[key]: row for row in report.get("results", ())}


def _check_ratio(label: str, baseline: float, current: float, factor: float) -> int:
    floor = baseline / factor
    verdict = "ok" if current >= floor else "REGRESSED"
    print(
        f"{label} baseline={baseline:6.2f}x current={current:6.2f}x "
        f"floor={floor:6.2f}x {verdict}"
    )
    return 0 if current >= floor else 1


def _worst_sharded_speedups(report: Dict) -> Dict[int, float]:
    """Per worker count, the minimum sharded-vs-sequential speedup over sizes."""
    worst: Dict[int, float] = {}
    for row in report.get("results", ()):
        for worker_row in row.get("workers", ()):
            workers = worker_row["workers"]
            speedup = worker_row.get("speedup_vs_sequential") or 0.0
            worst[workers] = min(worst.get(workers, speedup), speedup)
    return worst


def check_sharded_runtime(baseline: Dict, current: Dict, factor: float) -> int:
    """Guard sharded vs sequential serving; skip ratios on small boxes."""
    if not current.get("all_agree", False):
        print(
            "ERROR: current report records a sharded/sequential disagreement",
            file=sys.stderr,
        )
        return 1
    if not current.get("all_deltas_below_bootstrap", False):
        print(
            "ERROR: a delta flush outweighed the bootstrap payload "
            "(delta shipping is not O(delta))",
            file=sys.stderr,
        )
        return 1
    cpus = current.get("cpu_count") or 0
    if cpus < MIN_CPUS_FOR_PARALLEL_CHECK:
        # Recorded skip: the sharded-vs-sequential ratio is dominated by
        # worker spawn cost, which a contended 1–2 core CI box measures too
        # noisily to guard on.  Agreement and the O(delta) invariant were
        # still enforced above.
        print(
            f"SKIPPED: sharded-vs-sequential ratio checks skipped "
            f"(cpu_count={cpus} < {MIN_CPUS_FOR_PARALLEL_CHECK}); "
            f"agreement and delta-below-bootstrap checks passed"
        )
        return 0
    baseline_worst = _worst_sharded_speedups(baseline)
    current_worst = _worst_sharded_speedups(current)
    shared = sorted(set(baseline_worst) & set(current_worst))
    if not shared:
        print("ERROR: the reports share no worker counts", file=sys.stderr)
        return 1
    status = 0
    for workers in shared:
        status |= _check_ratio(
            f"workers={workers}",
            baseline_worst[workers],
            current_worst[workers],
            factor,
        )
    return status


def check_service_load(baseline: Dict, current: Dict, factor: float) -> int:
    """Guard the multi-tenant service suite; skip the ratio on small boxes.

    The identity assertion (every concurrent answer equals the sequential
    per-tenant replay) and the isolation assertion (zero cross-tenant
    intern-id collisions) are enforced unconditionally.  The concurrent-vs
    -sequential throughput ratio is only guarded on runners with at least
    :data:`MIN_CPUS_FOR_PARALLEL_CHECK` CPUs — below that, the concurrent
    run measures GIL churn and thread wakeups, not the serving layer.
    """
    if not current.get("all_answers_match", False):
        print(
            "ERROR: current report records a service answer diverging "
            "from the sequential replay",
            file=sys.stderr,
        )
        return 1
    if not current.get("zero_intern_collisions", False):
        print(
            "ERROR: current report records a cross-tenant intern-id "
            "collision (tenant isolation broken)",
            file=sys.stderr,
        )
        return 1
    cpus = current.get("cpu_count") or 0
    if cpus < MIN_CPUS_FOR_PARALLEL_CHECK:
        # Recorded skip: identity and isolation were still enforced above.
        print(
            f"SKIPPED: service throughput ratio check skipped "
            f"(cpu_count={cpus} < {MIN_CPUS_FOR_PARALLEL_CHECK}); "
            f"answer-identity and intern-isolation checks passed"
        )
        return 0
    return _check_ratio(
        "service_load throughput",
        baseline.get("throughput_ratio_vs_sequential") or 0.0,
        current.get("throughput_ratio_vs_sequential") or 0.0,
        factor,
    )


def check_durability(baseline: Dict, current: Dict, factor: float) -> int:
    """Guard restart-vs-rebuild per tail; recovery identity unconditional.

    No cpu-count skip: both legs are single-process and the ratio divides
    out machine speed, so it is meaningful even on a 1-core runner.
    """
    if not current.get("all_agree", False):
        print(
            "ERROR: current report records a recovered database diverging "
            "from the pre-crash state",
            file=sys.stderr,
        )
        return 1
    baseline_rows = _rows_by_size(baseline, key="tail")
    current_rows = _rows_by_size(current, key="tail")
    shared = sorted(set(baseline_rows) & set(current_rows))
    if not shared:
        print("ERROR: the reports share no changelog-tail sizes", file=sys.stderr)
        return 1
    status = 0
    for tail in shared:
        status |= _check_ratio(
            f"tail={tail:6d}",
            baseline_rows[tail].get("speedup_restart_vs_rebuild") or 0.0,
            current_rows[tail].get("speedup_restart_vs_rebuild") or 0.0,
            factor,
        )
    return status


def check_fault_recovery(baseline: Dict, current: Dict, factor: float) -> int:
    """Chaos identity unconditional; recovery ratios guarded on big boxes."""
    if not current.get("all_agree", False):
        print(
            "ERROR: current report records an answer under injected faults "
            "diverging from the sequential replay",
            file=sys.stderr,
        )
        return 1
    if not current.get("zero_acknowledged_lost", False):
        print(
            "ERROR: current report records an acknowledged batch lost "
            "across the injected crash",
            file=sys.stderr,
        )
        return 1
    if not current.get("faults_exercised", False):
        print(
            "ERROR: current report records the fault plan never firing "
            "(the chaos run measured nothing)",
            file=sys.stderr,
        )
        return 1
    cpus = current.get("cpu_count") or 0
    if cpus < MIN_CPUS_FOR_PARALLEL_CHECK:
        # Recorded skip: identity, fault-coverage, and durability checks
        # were still enforced above.  The guarded ratios price worker
        # respawns, which small contended boxes time too noisily.
        print(
            f"SKIPPED: fault-recovery ratio checks skipped "
            f"(cpu_count={cpus} < {MIN_CPUS_FOR_PARALLEL_CHECK}); "
            f"identity, fault-coverage, and zero-loss checks passed"
        )
        return 0
    baseline_rows = _rows_by_size(baseline, key="size")
    current_rows = _rows_by_size(current, key="size")
    shared = sorted(set(baseline_rows) & set(current_rows))
    if not shared:
        print("ERROR: the reports share no benchmark sizes", file=sys.stderr)
        return 1
    status = 0
    for size in shared:
        base, cur = baseline_rows[size], current_rows[size]
        status |= _check_ratio(
            f"size={size:5d} retained      ",
            base.get("throughput_retained_under_faults") or 0.0,
            cur.get("throughput_retained_under_faults") or 0.0,
            factor,
        )
        status |= _check_ratio(
            f"size={size:5d} responsiveness",
            base.get("recovery_responsiveness") or 0.0,
            cur.get("recovery_responsiveness") or 0.0,
            factor,
        )
    return status


_CHECKERS = {
    "sharded_runtime": check_sharded_runtime,
    "service_load": check_service_load,
    "durability": check_durability,
    "fault_recovery": check_fault_recovery,
}


def check_regression(baseline: Dict, current: Dict, factor: float) -> int:
    """Return 0 when *current* holds up against *baseline*, 1 otherwise."""
    suite = current.get("benchmark")
    if suite != baseline.get("benchmark"):
        print(
            "ERROR: baseline and current reports come from different suites",
            file=sys.stderr,
        )
        return 1
    checker = _CHECKERS.get(suite)
    if checker is None:
        print(
            f"ERROR: no regression checks defined for suite {suite!r} "
            f"(supported: {', '.join(sorted(_CHECKERS))})",
            file=sys.stderr,
        )
        return 1
    return checker(baseline, current, factor)


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path, help="committed baseline JSON")
    parser.add_argument("current", type=pathlib.Path, help="freshly emitted JSON")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated regression factor on the guarded ratios",
    )
    args = parser.parse_args(list(argv) or None)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    return check_regression(baseline, current, args.factor)


if __name__ == "__main__":
    raise SystemExit(main())
