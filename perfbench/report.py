"""Turning raw repetitions into the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

#: Per-layer metrics with their units, in report order.  A layer that does
#: not run on a workload reports 0.
PER_LAYER_UNITS = {
    "execution.self_s": "s",
    "execution.rounds": "count",
    "execution.idle_rounds": "count",
    "execution.empty_round_ratio": "ratio",
    "execution.deadline_cuts": "count",
    "blocking.busy_s": "s",
    "blocking.profiles": "count",
    "metablocking.busy_s": "s",
    "metablocking.calls": "count",
    "metablocking.kept_ratio": "ratio",
    "pier.ingest_self_s": "s",
    "pier.emit_s": "s",
    "pier.refill_s": "s",
    "pier.stale_ratio": "ratio",
    "pier.queue_depth_max": "count",
    "priority.pq_ops": "count",
    "priority.bloom_probes": "count",
    "incremental.self_s": "s",
    "matching.busy_s": "s",
    "matching.pairs": "count",
    "matching.dp_ratio": "ratio",
    "matching.match_ratio": "ratio",
    "evaluation.record_s": "s",
    "parallel.create_s": "s",
    "parallel.scatter_s": "s",
    "parallel.pairs_sharded": "count",
    "parallel.shm_bytes": "B",
    "parallel.fallbacks": "count",
    "parallel.evictions": "count",
    "service.exec_p50_ms": "ms",
    "service.exec_p99_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.shed": "count",
    "service.backlog_max": "count",
    "datasets.gen_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.max_rate_ops": "ops/s",
    "trace.wall_s": "s",
    "trace.span_share": "ratio",
    "trace.overhead_s": "s",
}

#: Span names whose self time is one layer's share of the traced wall.
LAYER_SPANS = {
    "execution": ("execution",),
    "blocking": ("blocking",),
    "metablocking": ("metablocking",),
    "pier": ("pier.ingest", "pier.emit", "pier.refill"),
    "incremental": ("incremental",),
    "matching": ("matching",),
    "evaluation": ("evaluation",),
    "parallel": ("parallel.scatter",),
    "service": ("service",),
    "bench": ("bench.read",),
}


def tail_rank(n: int) -> int:
    """The highest whole percentile (at most 99) with 10 samples beyond it."""
    if n <= 0:
        return 50
    return max(50, min(99, math.floor(100 - 1000 / n)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def latency_pair(seconds: list[float]) -> tuple[float, float, str]:
    """(p50 ms, tail ms, how the tail was taken) for latency samples in s."""
    q = tail_rank(len(seconds))
    return (
        percentile(seconds, 50) * 1000.0,
        percentile(seconds, q) * 1000.0,
        f"p{q} of {len(seconds)} samples",
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def sum_counters(counter_dicts) -> dict:
    total: dict = {}
    for counters in counter_dicts:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return total


def engine_layers(counters: dict, tracer) -> dict:
    """Per-layer metrics shared by every workload (counters + spans)."""
    counts = tracer.counts
    self_s = tracer.self_s
    emitted = counters.get("pier.comparisons_emitted", 0)
    stale = counters.get("pier.dequeued_already_executed", 0)
    return {
        "execution.self_s": self_s.get("execution", 0.0),
        "execution.rounds": counters.get("engine.emission_rounds", 0),
        "execution.idle_rounds": counters.get("engine.idle_rounds", 0),
        "execution.empty_round_ratio": ratio(
            counts["execution.empty_emits"], counts["execution.emits"]
        ),
        "execution.deadline_cuts": counters.get("engine.comparisons_cut_by_deadline", 0),
        "blocking.busy_s": self_s.get("blocking", 0.0),
        "blocking.profiles": counts["blocking.profiles"],
        "metablocking.busy_s": self_s.get("metablocking", 0.0),
        "metablocking.calls": counts["metablocking.calls"],
        "metablocking.kept_ratio": ratio(counts["metablocking.kept"], counts["metablocking.ops"]),
        "pier.ingest_self_s": self_s.get("pier.ingest", 0.0),
        "pier.emit_s": self_s.get("pier.emit", 0.0),
        "pier.refill_s": self_s.get("pier.refill", 0.0),
        "pier.stale_ratio": ratio(stale, emitted + stale),
        "pier.queue_depth_max": counts["pier.queue_depth_max"],
        "priority.pq_ops": counts["priority.pq_ops"],
        "priority.bloom_probes": counts["priority.bloom_probes"],
        "incremental.self_s": self_s.get("incremental", 0.0),
        "matching.busy_s": self_s.get("matching", 0.0),
        "matching.pairs": counts["matching.pairs"],
        "matching.dp_ratio": ratio(
            counters.get("matcher.kernel.dp_calls", 0), counters.get("matcher.evaluations", 0)
        ),
        "matching.match_ratio": ratio(
            counters.get("matcher.matches", 0), counters.get("engine.comparisons_executed", 0)
        ),
        "evaluation.record_s": self_s.get("evaluation", 0.0),
        "parallel.create_s": self_s.get("parallel.create", 0.0),
        "parallel.scatter_s": self_s.get("parallel.scatter", 0.0),
        "parallel.pairs_sharded": counters.get("parallel.pairs_sharded", 0),
        "parallel.shm_bytes": counters.get("parallel.shm_bytes", 0),
        "parallel.fallbacks": counters.get("parallel.fallbacks", 0),
        "parallel.evictions": counters.get("parallel.supervision.evictions", 0),
        "datasets.gen_s": self_s.get("datasets", 0.0),
    }


def layer_shares(tracer, wall: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    return {
        layer: ratio(sum(tracer.self_s.get(name, 0.0) for name in names), wall)
        for layer, names in LAYER_SPANS.items()
    }


def complete_layers(values: dict) -> dict:
    """Every per-layer metric, 0 where the layer did not run."""
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER_UNITS}
