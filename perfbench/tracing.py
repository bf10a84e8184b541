"""Spans and counts around the public calls into each layer of ``repro``.

Only the traced run installs these wrappers; they patch class and module
attributes of the imported program from the benchmark's side and never
touch ``src/``.  Every span records its name, start, end, parent span and
run id and is kept in memory until the benchmark writes the trace out at
exit.  A span's self time is its duration minus the time its direct
children cover; self times therefore add up to the duration of the root
spans, which is how the traced run accounts for its wall time.

Layer names follow the package names of ``repro``:

=================  ====================================================
span name          wrapped call
=================  ====================================================
``execution``      ``PushRun.feed`` / ``drain`` / ``results`` (roots)
``blocking``       ``IncrementalTokenBlocking.process_increment``
``metablocking``   ``ComparisonGenerator.generate``, ``partner_weights``
                   as imported by ``repro.pier.ipbs`` and ``repro.pier.base``
``pier.ingest``    ``PierSystem.ingest``
``pier.emit``      ``PierSystem.emit``
``pier.refill``    ``PierSystem.on_idle``, ``GetComparisons.next_batch``
``incremental``    ``IBaseSystem.ingest`` / ``emit``
``matching``       ``Matcher.evaluate_batch``
``evaluation``     ``ProgressRecorder.record`` / ``mark``
``parallel.*``     ``WorkerPool.create`` / ``batch_scores``
``datasets``       ``repro.datasets.registry.load_dataset``
``service``        ``TenantSession.ingest`` / ``drain`` / ``matches`` /
                   ``results``
``bench.read``     the benchmark's own match-list reads
=================  ====================================================

``repro.priority`` is counted, not timed: its calls are so short that a
timer around each would distort them (``BoundedPriorityQueue``
enqueue/dequeue, ``ScalableBloomFilter`` add/membership).
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    """In-memory span store plus per-layer counts."""

    def __init__(self) -> None:
        self.run_id = 0
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Per service op: (tenant, op) -> list of exec durations in order.
        self.service_exec: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[tuple, dict, object, float], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                with tracer._lock:
                    tracer.spans.append(
                        (
                            frame[0],
                            parent[0] if parent is not None else 0,
                            name,
                            frame[1],
                            end,
                            tracer.run_id,
                        )
                    )
                    tracer.self_s[name] += duration - frame[2]
            if on_result is not None:
                on_result(args, kwargs, result, end - frame[1])
            return result

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted under ``name`` (no timer)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attribute: str, replacement: Callable) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_span(self, owner: object, attribute: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, on_result))
        else:
            wrapped = self.wrap(name, original, on_result)
        self.patch(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------
    def roots_s(self, run_id: int) -> float:
        """Summed duration of one run's root spans (what its self times add to)."""
        return sum(
            end - start
            for _, parent, _, start, end, run in self.spans
            if parent == 0 and run == run_id
        )

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "start", "end", "run"]
        with path.open("w") as out:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, out)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install_setup_spans(tracer: Tracer) -> None:
    """Spans around set-up calls: dataset generation and pool spawn."""
    from repro.datasets import registry
    from repro.parallel.pool import WorkerPool

    tracer.patch_span(registry, "load_dataset", "datasets")
    tracer.patch_span(WorkerPool, "create", "parallel.create")


def install_layer_spans(tracer: Tracer) -> None:
    """Spans and counts at every engine-layer boundary."""
    import repro.pier.base as pier_base
    import repro.pier.ipbs as pier_ipbs
    from repro.blocking.token_blocking import IncrementalTokenBlocking
    from repro.evaluation.recorder import ProgressRecorder
    from repro.execution.push import PushRun
    from repro.incremental.ibase import IBaseSystem
    from repro.matching.matcher import Matcher
    from repro.parallel.pool import WorkerPool
    from repro.priority.bloom import ScalableBloomFilter
    from repro.priority.bounded_pq import BoundedPriorityQueue
    from repro.service.tenant import TenantSession

    counts = tracer.counts

    for method in ("feed", "drain", "results"):
        tracer.patch_span(PushRun, method, "execution")

    def on_increment(args, kwargs, result, duration):
        counts["blocking.profiles"] += len(args[1].profiles)

    tracer.patch_span(
        IncrementalTokenBlocking, "process_increment", "blocking", on_increment
    )

    def on_generate(args, kwargs, result, duration):
        kept, ops = result
        counts["metablocking.calls"] += 1
        counts["metablocking.kept"] += len(kept)
        counts["metablocking.ops"] += ops

    tracer.patch_span(pier_base.ComparisonGenerator, "generate", "metablocking", on_generate)

    def on_partner_weights(args, kwargs, result, duration):
        counts["metablocking.calls"] += 1
        counts["metablocking.kept"] += len(result)
        counts["metablocking.ops"] += len(args[2])

    for module in (pier_base, pier_ipbs):
        tracer.patch(
            module,
            "partner_weights",
            tracer.wrap("metablocking", module.partner_weights, on_partner_weights),
        )

    def on_emit(args, kwargs, result, duration):
        counts["execution.emits"] += 1
        if not result.batch:
            counts["execution.empty_emits"] += 1

    tracer.patch_span(pier_base.PierSystem, "ingest", "pier.ingest")
    tracer.patch_span(pier_base.PierSystem, "emit", "pier.emit", on_emit)
    traced_emit = pier_base.PierSystem.emit

    def emit(system, stats):
        # Queue depth as the round starts, before this emission drains it.
        depth = len(system.strategy)
        if depth > counts["pier.queue_depth_max"]:
            counts["pier.queue_depth_max"] = depth
        return traced_emit(system, stats)

    tracer.patch(pier_base.PierSystem, "emit", emit)
    tracer.patch_span(pier_base.PierSystem, "on_idle", "pier.refill")
    tracer.patch_span(pier_base.GetComparisons, "next_batch", "pier.refill")
    tracer.patch_span(IBaseSystem, "ingest", "incremental")
    tracer.patch_span(IBaseSystem, "emit", "incremental", on_emit)

    def on_evaluate(args, kwargs, result, duration):
        counts["matching.pairs"] += len(args[1])

    tracer.patch_span(Matcher, "evaluate_batch", "matching", on_evaluate)
    tracer.patch_span(ProgressRecorder, "record", "evaluation")
    tracer.patch_span(ProgressRecorder, "mark", "evaluation")
    tracer.patch_span(WorkerPool, "batch_scores", "parallel.scatter")

    for method in ("enqueue", "dequeue", "dequeue_with_key"):
        tracer.patch(
            BoundedPriorityQueue,
            method,
            tracer.counting("priority.pq_ops", BoundedPriorityQueue.__dict__[method]),
        )
    for method in ("add", "__contains__", "contains"):
        tracer.patch(
            ScalableBloomFilter,
            method,
            tracer.counting("priority.bloom_probes", ScalableBloomFilter.__dict__[method]),
        )

    for method in ("ingest", "drain", "matches", "results"):

        def on_service(args, kwargs, result, duration, op=method):
            tracer.service_exec[(args[0].config.tenant_id, op)].append(duration)

        tracer.patch_span(TenantSession, method, "service", on_service)
