"""Tests for the process-parallel matching fleet (``repro.parallel``).

The contract under test is the tentpole guarantee: parallelism is an
executor choice, never a semantics choice.  Whatever the worker count,

* a run's progress curve, duplicates, comparison count, and virtual
  clocks are bit-identical to the serial run;
* the exported metric snapshot differs only in the ``parallel.*``
  telemetry and the wall-only ``scatter`` phase
  (:func:`strip_parallel_telemetry` removes exactly that surface);
* mid-run checkpoints carry byte-identical ``metrics_state`` — parallel
  telemetry flushes at finalize, after the last possible checkpoint;
* a pool that cannot start or breaks degrades to in-process scoring with
  the same results, counted in ``parallel.fallbacks``;
* fresh profiles cross the process boundary once, through read-only
  shared-memory segments when the startup probe succeeds (inline pickles
  otherwise) — transport choice never changes results;
* matchers that cannot batch (``FaultyMatcher``) never reach the pool.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ERSession
from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.experiments import ExperimentConfig, _build_matcher, _build_system
from repro.parallel import WorkerPool, strip_parallel_telemetry
from repro.parallel.cells import run_cells
from repro.resilience import ResilienceConfig, SimulatedCrash
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

STRATEGIES = ["I-PCS", "I-PBS", "I-PES", "I-BASE"]
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}
BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


@pytest.fixture(scope="module")
def plan(small_dblp_acm):
    increments = split_into_increments(small_dblp_acm, 8, seed=0)
    return make_stream_plan(increments, rate=5.0)


@pytest.fixture(scope="module")
def ed_pool():
    """One shared 2-worker ED pool for the whole module (spawn is slow).

    ``min_shard=1`` so even the small per-round batches of the test
    dataset shard — the production threshold only changes *when* the pool
    is consulted, never the results.
    """
    pool = WorkerPool.create(2, _build_matcher("ED"), min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    yield pool
    pool.close()


def _comparable(result):
    """Everything observable about a run except wall clocks and the
    parallel telemetry (the documented divergence surface)."""
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "stream_consumed_at": result.stream_consumed_at,
        "work_exhausted": result.work_exhausted,
        "increments_ingested": result.increments_ingested,
        "match_events": result.match_events,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    """The deterministic portion of a checkpoint — only wall clocks go.

    Notably ``metrics_state`` is compared *without* any parallel
    stripping: mid-run telemetry never reaches the registry, so the
    checkpoint bytes must already coincide across worker counts.
    """
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        phase: (virtual_s, count)
        for phase, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
    }
    return (
        checkpoint.engine,
        checkpoint.budget,
        checkpoint.plan_fingerprint,
        checkpoint.clock,
        checkpoint.ingest_clock,
        checkpoint.next_arrival,
        checkpoint.consumed_at,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.shed,
        checkpoint.duplicates_dropped,
        checkpoint.seen_increments,
        checkpoint.duplicates,
        checkpoint.quarantined,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        metrics_state,
    )


def _run(engine_cls, dataset, plan, strategy, *, workers=1, pool=None, **kwargs):
    engine = engine_cls(
        _build_matcher("ED"), budget=BUDGET, workers=workers, pool=pool, **kwargs
    )
    result = engine.run(_build_system(strategy, dataset), plan, dataset.ground_truth)
    engine.close_pool()
    return result, engine.last_checkpoint


# ----------------------------------------------------------------------
# Pool unit level: sharded scoring is the in-process kernel, verbatim
# ----------------------------------------------------------------------
@pytest.mark.parametrize("matcher_name", ["JS", "ED"])
def test_pool_batch_scores_bit_identical(dataset, matcher_name):
    matcher = _build_matcher(matcher_name)
    rng = random.Random(3)
    profiles = dataset.profiles
    pairs = [
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(150)
    ]
    reference = _build_matcher(matcher_name)._batch_scores(pairs)
    pool = WorkerPool.create(2, matcher, min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    try:
        pool.begin_run()
        assert pool.batch_scores(pairs) == reference
        # A second round reuses the workers' profile caches; still identical.
        assert pool.batch_scores(pairs[::-1]) == (reference[0][::-1], reference[1][::-1])
    finally:
        pool.close()


def test_pool_shm_transport_publishes_each_profile_once(dataset, ed_pool):
    """With shm active, fresh profiles ship once through shared memory and
    repeat rounds publish nothing new — while staying bit-identical."""
    if not ed_pool.shm_active:
        pytest.skip("shared-memory transport unavailable on this host")
    rng = random.Random(11)
    profiles = dataset.profiles
    pairs = [
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(120)
    ]
    reference = _build_matcher("ED")._batch_scores(pairs)
    ed_pool.begin_run()
    segments_before = ed_pool.shm_segments_published
    assert ed_pool.batch_scores(pairs) == reference
    first_round = ed_pool.shm_segments_published - segments_before
    assert first_round > 0
    assert ed_pool.shm_bytes_published > 0
    # Same profiles again: the per-run published set makes the second
    # round metadata-only.
    assert ed_pool.batch_scores(pairs[::-1]) == (
        reference[0][::-1],
        reference[1][::-1],
    )
    assert ed_pool.shm_segments_published - segments_before == first_round


def test_pool_pickle_fallback_bit_identical(dataset):
    """A pool whose shm probe failed degrades to inline pickled profiles
    with identical results and zero shm telemetry."""
    pool = WorkerPool.create(2, _build_matcher("ED"), min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    try:
        pool._use_shm = False
        rng = random.Random(13)
        profiles = dataset.profiles
        pairs = [
            (
                profiles[rng.randrange(len(profiles))],
                profiles[rng.randrange(len(profiles))],
            )
            for _ in range(80)
        ]
        reference = _build_matcher("ED")._batch_scores(pairs)
        pool.begin_run()
        assert not pool.shm_active
        assert pool.batch_scores(pairs) == reference
        assert pool.shm_segments_published == 0
        assert pool.shm_bytes_published == 0
    finally:
        pool.close()


def test_pool_create_refuses_single_worker():
    assert WorkerPool.create(1, _build_matcher("JS")) is None


def test_pool_close_is_idempotent():
    pool = WorkerPool.create(2, _build_matcher("JS"), min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    pool.close()
    pool.close()
    assert not pool.healthy


# ----------------------------------------------------------------------
# Engine level: worker-count invariance across strategies and engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_worker_count_invariance_serial_engine(dataset, plan, strategy, ed_pool):
    serial, serial_ckpt = _run(
        StreamingEngine, dataset, plan, strategy, checkpoint_every=2.0
    )
    sharded, sharded_ckpt = _run(
        StreamingEngine,
        dataset,
        plan,
        strategy,
        workers=ed_pool.size,
        pool=ed_pool,
        checkpoint_every=2.0,
    )
    assert _comparable(sharded) == _comparable(serial)
    assert _checkpoint_fingerprint(sharded_ckpt) == _checkpoint_fingerprint(serial_ckpt)
    counters = sharded.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] > 0
    assert counters["parallel.fallbacks"] == 0
    assert sharded.details["metrics"]["gauges"]["parallel.workers"] == ed_pool.size
    assert serial.details["metrics"]["gauges"]["parallel.workers"] == 1.0


def test_worker_count_invariance_pipelined_engine(dataset, plan, ed_pool):
    serial, _ = _run(PipelinedStreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        PipelinedStreamingEngine,
        dataset,
        plan,
        "I-PES",
        workers=ed_pool.size,
        pool=ed_pool,
    )
    assert _comparable(sharded) == _comparable(serial)
    assert sharded.details["metrics"]["counters"]["parallel.rounds_sharded"] > 0


def test_sharded_run_reports_shm_and_kernel_telemetry(dataset, plan, ed_pool):
    """Sharded runs surface the shm transfer counters, and the workers'
    staged-scoring outcomes merge back so ``matcher.kernel.*`` telemetry is
    bit-identical to the serial run (it is NOT stripped by
    :func:`strip_parallel_telemetry`)."""
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=ed_pool.size, pool=ed_pool
    )
    counters = sharded.details["metrics"]["counters"]
    serial_counters = serial.details["metrics"]["counters"]
    kernel_keys = [key for key in counters if key.startswith("matcher.kernel.")]
    assert kernel_keys
    assert counters["matcher.kernel.dp_calls"] > 0
    for key in kernel_keys:
        assert counters[key] == serial_counters[key]
    if ed_pool.shm_active:
        assert counters["parallel.shm_segments"] > 0
        assert counters["parallel.shm_bytes"] > 0
    assert serial_counters["parallel.shm_segments"] == 0


def test_metric_schema_invariant_across_worker_counts(dataset, plan, ed_pool):
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    sharded, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=ed_pool.size, pool=ed_pool
    )
    serial_metrics = serial.details["metrics"]
    sharded_metrics = sharded.details["metrics"]
    assert set(serial_metrics["counters"]) == set(sharded_metrics["counters"])
    assert set(serial_metrics["gauges"]) == set(sharded_metrics["gauges"])
    assert set(serial_metrics["phases"]) == set(sharded_metrics["phases"])


def test_pool_reused_across_datasets_matches_serial():
    """One pool serving ED runs over two generated datasets whose pids
    collide: the per-run reset must also drop the worker matchers'
    pid-keyed text caches, or the second dataset is scored with the
    first one's texts."""
    datasets = [load_dataset("census_2m", scale=0.15, seed=seed) for seed in (1, 2)]
    first_pids = {profile.pid for profile in datasets[0].profiles}
    assert first_pids & {profile.pid for profile in datasets[1].profiles}
    pool = WorkerPool.create(2, _build_matcher("ED"), min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    try:
        for dataset in datasets:
            plan = make_stream_plan(split_into_increments(dataset, 6, seed=0), rate=5.0)
            serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
            pooled, _ = _run(StreamingEngine, dataset, plan, "I-PES", workers=2, pool=pool)
            assert pooled.details["metrics"]["counters"]["parallel.rounds_sharded"] > 0
            assert _comparable(pooled) == _comparable(serial)
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Degradation: a fleet that cannot start changes nothing but a counter
# ----------------------------------------------------------------------
def test_pool_startup_failure_degrades_in_process(dataset, plan, monkeypatch):
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    monkeypatch.setattr(
        "repro.parallel.pool.WorkerPool.create",
        classmethod(lambda cls, *args, **kwargs: None),
    )
    degraded, _ = _run(StreamingEngine, dataset, plan, "I-PES", workers=4)
    assert _comparable(degraded) == _comparable(serial)
    counters = degraded.details["metrics"]["counters"]
    assert counters["parallel.fallbacks"] == 1
    assert counters["parallel.rounds_sharded"] == 0
    assert degraded.details["metrics"]["gauges"]["parallel.workers"] == 1.0


def test_closed_pool_is_bypassed(dataset, plan):
    pool = WorkerPool.create(2, _build_matcher("ED"), min_shard=1)
    if pool is None:
        pytest.skip("process pool unavailable on this host")
    pool.close()
    serial, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    bypassed, _ = _run(
        StreamingEngine, dataset, plan, "I-PES", workers=2, pool=pool
    )
    assert _comparable(bypassed) == _comparable(serial)
    assert bypassed.details["metrics"]["counters"]["parallel.rounds_sharded"] == 0


# ----------------------------------------------------------------------
# Composition: faults stay serial, checkpoints resume across fleets
# ----------------------------------------------------------------------
def test_faulty_matcher_never_shards(dataset):
    def run(workers):
        with ERSession(
            dataset,
            systems=("I-PES",),
            matcher="ED",
            n_increments=8,
            rate=5.0,
            budget=BUDGET,
            faults=7,
            workers=workers,
        ) as session:
            return session.run()

    serial = run(1)
    parallel = run(4)
    assert _comparable(parallel) == _comparable(serial)
    counters = parallel.details["metrics"]["counters"]
    assert counters["parallel.rounds_sharded"] == 0
    assert counters["parallel.fallbacks"] == 0


def test_resume_crosses_worker_counts(dataset, plan, ed_pool):
    """A checkpoint taken serially resumes bit-identically on a fleet."""
    engine = StreamingEngine(
        _build_matcher("ED"),
        budget=BUDGET,
        resilience=ResilienceConfig(checkpoint_every=1.0, crash_at=4.0),
    )
    with pytest.raises(SimulatedCrash) as exc:
        engine.run(_build_system("I-PES", dataset), plan, dataset.ground_truth)
    checkpoint = exc.value.checkpoint
    assert checkpoint is not None

    resumed = StreamingEngine(
        _build_matcher("ED"), budget=BUDGET, workers=ed_pool.size, pool=ed_pool
    ).run(
        _build_system("I-PES", dataset),
        plan,
        dataset.ground_truth,
        resume_from=checkpoint,
    )
    uninterrupted, _ = _run(StreamingEngine, dataset, plan, "I-PES")
    assert resumed.duplicates == uninterrupted.duplicates
    assert resumed.clock_end == uninterrupted.clock_end
    assert resumed.final_pc == uninterrupted.final_pc


# ----------------------------------------------------------------------
# Tier B: fanned-out comparison cells collate exactly like the serial loop
# ----------------------------------------------------------------------
def test_run_cells_parallel_collation_matches_serial():
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=("I-PES", "I-BASE"),
        matcher="JS",
        scale=0.2,
        n_increments=8,
        rate=5.0,
        budget=5.0,
    )
    serial = run_cells(config, config.systems, workers=1)
    fanned = run_cells(config, config.systems, workers=2)
    assert [_comparable(r) for r in fanned] == [_comparable(r) for r in serial]
