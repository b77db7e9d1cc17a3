"""The benchmark's metric catalogue (mirrored by ``BENCHMARK.json``).

End-to-end metrics come from the untraced run; per-layer metrics from the
traced run.  Each per-layer metric names the end-to-end metric it should
move and the workload on which it should move it.

Latency classes: ``scan`` is an FO open-query ``certain_answers`` served
inline; ``read`` is the workload's other read — the FO Boolean point
lookup (``fo_read_mostly``, ``sharded_reads``), the queued PTIME / coNP
read from ``submit`` to ``result`` (``bands_queued``), or
``Tenant.view_answers`` with writes pending, including the deferred view
flush (``durable_writes_views``); ``write`` is one ``CertaintyService.apply``
batch, including the WAL commit and any due checkpoint when durable.

The read class is guarded on its median only.  Its p90 stays in the
``--report`` record, but on ``sharded_reads`` the lookup p90 falls on the
edge between lookups that wait for the interpreter lock behind a scan and
lookups that do not, and ten seeds spread it over 2.6–6.1 ms.
"""

#: ``(name, unit, better, bound)``: bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: The reference host is a shared 2-CPU box whose speed drifts by up to 2x
#: within seconds, so CPU-bound figures get the widest bound allowed.
END_TO_END = (
    ("scan_p50_ms", "ms", "lower", 0.25),
    ("scan_p90_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

#: ``(name, unit, better, should move, on workload)``.
PER_LAYER = (
    ("service.queue_wait_p50_ms", "ms", "lower", "read_p50_ms", "bands_queued"),
    ("service.queue_wait_p90_ms", "ms", "lower", "read_p50_ms", "bands_queued"),
    ("service.lock_wait_p50_ms", "ms", "lower", "scan_p50_ms", "bands_queued"),
    ("service.lock_wait_p90_ms", "ms", "lower", "scan_p90_ms", "bands_queued"),
    ("service.inline_ratio", "ratio", "higher", "ops_per_s", "bands_queued"),
    ("service.rejected", "count", "lower", "ops_per_s", "bands_queued"),
    ("service.shed", "count", "lower", "ops_per_s", "bands_queued"),
    ("service.error_rate", "ratio", "lower", "ops_per_s", "bands_queued"),
    ("engine.plan.hit_ratio", "ratio", "higher", "read_p50_ms", "sharded_reads"),
    ("engine.plan.compiles", "count", "lower", "read_p50_ms", "sharded_reads"),
    ("engine.plan.compile_ms", "ms", "lower", "read_p50_ms", "sharded_reads"),
    ("engine.candidates_ms", "ms", "lower", "scan_p90_ms", "sharded_reads"),
    ("engine.candidates.memo_hit_ratio", "ratio", "higher", "scan_p90_ms", "sharded_reads"),
    ("engine.candidates_per_answer", "ratio", "lower", "scan_p50_ms", "sharded_reads"),
    ("engine.decide.fo_ms", "ms", "lower", "scan_p50_ms", "sharded_reads"),
    ("engine.decide.theorem3_ms", "ms", "lower", "read_p50_ms", "bands_queued"),
    ("engine.decide.theorem4_ms", "ms", "lower", "read_p50_ms", "bands_queued"),
    ("engine.decide.brute_force_ms", "ms", "lower", "read_p50_ms", "bands_queued"),
    ("store.index_apply_ms", "ms", "lower", "write_p50_ms", "durable_writes_views"),
    ("store.bytes_per_fact", "B", "lower", "rss_mb", "sharded_reads"),
    ("store.intern_constants", "count", "lower", "rss_mb", "sharded_reads"),
    ("model.apply_self_ms", "ms", "lower", "write_p50_ms", "durable_writes_views"),
    ("incremental.flush_ms", "ms", "lower", "read_p50_ms", "durable_writes_views"),
    ("incremental.redecided_per_flush", "count", "lower", "read_p50_ms", "durable_writes_views"),
    ("incremental.dirty_ratio", "ratio", "lower", "read_p50_ms", "durable_writes_views"),
    ("incremental.full_refreshes", "count", "lower", "read_p50_ms", "durable_writes_views"),
    ("durability.commit_ms", "ms", "lower", "write_p90_ms", "durable_writes_views"),
    ("durability.wal_bytes_per_op", "B", "lower", "write_p90_ms", "durable_writes_views"),
    ("durability.checkpoint_ms", "ms", "lower", "write_p90_ms", "durable_writes_views"),
    ("durability.recover_ms", "ms", "lower", "restart (durability.restart_s)", "durable_writes_views"),
    ("durability.restart_s", "s", "lower", "restart (no end-to-end row)", "durable_writes_views"),
    ("durability.segment_bytes", "B", "lower", "durability.disk_bytes_per_fact", "durable_writes_views"),
    ("durability.wal_bytes", "B", "lower", "durability.disk_bytes_per_fact", "durable_writes_views"),
    ("durability.disk_bytes_per_fact", "B", "lower", "disk (no end-to-end row)", "durable_writes_views"),
    ("shards.dispatch_ms", "ms", "lower", "scan_p50_ms", "sharded_reads"),
    ("shards.shard_decides", "count", "higher", "scan_p50_ms", "sharded_reads"),
    ("shards.parent_decides", "count", "lower", "scan_p50_ms", "sharded_reads"),
    ("shards.shard_decide_ratio", "ratio", "higher", "scan_p50_ms", "sharded_reads"),
    ("shards.cross_shard_fallbacks", "count", "lower", "scan_p50_ms", "sharded_reads"),
    ("shards.delta_bytes_per_write", "B", "lower", "write_p50_ms", "sharded_reads"),
    ("shards.worker_restarts", "count", "lower", "ops_per_s", "sharded_reads"),
    ("shards.bootstrap_ms", "ms", "lower", "setup_s", "sharded_reads"),
    ("trace.overhead_pct", "%", "lower", "tracing cost (traced vs untraced wall)", "all"),
    ("trace.scan_p50_overhead_pct", "%", "lower", "tracing cost on scan_p50_ms", "all"),
    ("trace.read_p50_overhead_pct", "%", "lower", "tracing cost on read_p50_ms", "all"),
    ("trace.write_p50_overhead_pct", "%", "lower", "tracing cost on write_p50_ms", "all"),
    ("trace.spans", "count", "lower", "tracing cost", "all"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
