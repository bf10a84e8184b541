"""The three benchmark workloads and how one repetition of each runs.

In-process workloads (``stream-js``, ``budget-ed``) resolve
their cells one after another through the push API, the way a caller
feeding a live stream does: each increment is fed at its virtual arrival
time and the run is drained to that time (one *ingest*), then the current
match list is read (one *read*, the same work as the service's
``matches`` op).  After the last increment the run drains to its budget
and finalizes.  The loop is closed: each op is due when the previous one
returned, so its latency is its own duration.

``service-mix`` drives a ``python -m repro.service`` server from an
open-loop generator (see :mod:`loadgen`).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from loadgen import LoadGenerator, Op

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamSpec:
    dataset: str
    scale: float
    matcher: str
    systems: tuple[str, ...]
    n_increments: int
    rate: float
    budget: float
    #: Cells that run a second time on the first dataset instance, scored
    #: through a ``workers``-process ``WorkerPool``.
    pooled: tuple[str, ...] = ()
    workers: int = 1
    #: Dataset instances the repetitions cycle through (see SEED_STRIDE).
    instances: int = 3
    #: Smallest round the pool shards (``WorkerPool.create``'s ``min_shard``).
    min_shard: int = 64


STREAM_SPECS = {
    # Clean-clean, cheap matcher, run until work is exhausted.
    "stream-js": StreamSpec(
        dataset="dblp_acm",
        scale=0.25,
        matcher="JS",
        systems=("I-PCS", "I-PBS", "I-PES"),
        n_increments=100,
        rate=10.0,
        budget=1.0e6,
    ),
    # Dirty, expensive matcher, a budget that cuts work at the deadline;
    # the I-PES cell runs serially and again through a two-worker pool.
    "budget-ed": StreamSpec(
        dataset="census_2m",
        scale=0.4,
        matcher="ED",
        systems=("I-PES", "I-PBS", "I-BASE"),
        n_increments=100,
        rate=10.0,
        budget=12.0,
        # Only on the first instance: a pool shared by runs over different
        # datasets returns stale ED scores (worker-side text caches outlive
        # the per-run reset).
        pooled=("I-PES",),
        workers=2,
        # With the pool's default of 64, some seeds (8, 9, 17 of 0-23) emit
        # no round that large and the pool would score nothing; at 32 every
        # seed checked shards 50-80% of its pairs.
        min_shard=32,
    ),
}

WORKLOADS = (*STREAM_SPECS, "service-mix")

#: Dataset seeds per run seed.  Repetitions cycle through a workload's
#: instances, so a run's medians average over several generated inputs
#: instead of resting on one draw of the data.
SEED_STRIDE = 3


def instance_seed(seed: int, instance: int) -> int:
    """Dataset seed of one instance of a run at ``seed``."""
    return seed * SEED_STRIDE + instance


def expected_fingerprints(key: str, seed: int) -> dict | None:
    """Recorded fingerprints for ``key`` at ``seed`` (``None`` if unrecorded)."""
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    return table.get(key, {}).get(str(seed))


def peak_rss_self_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_matches(push) -> list:
    """One read: the current match list, as the service's ``matches`` op builds it."""
    return sorted(map(list, push.matches))


@dataclass
class CellRun:
    system: str
    fingerprint: str
    wall_s: float
    comparisons: int
    counters: dict
    ingest_s: list[float]
    read_s: list[float]
    pooled: bool = False


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class StreamWorkload:
    """One in-process workload: datasets, optional pool, sessions, plans."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.spec = STREAM_SPECS[name]
        self.seed = seed
        self.pool = None
        self.sessions: list = []
        self.pooled_session = None

    def setup(self) -> None:
        from repro.api import ERSession
        from repro.datasets import registry

        spec = self.spec
        self.datasets = [
            registry.load_dataset(
                spec.dataset, scale=spec.scale, seed=instance_seed(self.seed, instance)
            )
            for instance in range(spec.instances)
        ]
        self.sessions = [self.new_session(instance, 1, None) for instance in range(spec.instances)]
        self.plans = [
            {system: session.plan_for(system) for system in spec.systems}
            for session in self.sessions
        ]
        if spec.pooled:
            from repro.parallel.pool import WorkerPool

            with ERSession(self.datasets[0], matcher=spec.matcher) as bootstrap:
                template = bootstrap.build_matcher()
            self.pool = WorkerPool.create(spec.workers, template, min_shard=spec.min_shard)
            if self.pool is None:
                raise RuntimeError("the worker pool could not start")
            self.pooled_session = self.new_session(0, spec.workers, self.pool)
            self.pooled_plans = {
                system: self.pooled_session.plan_for(system) for system in spec.pooled
            }

    def new_session(self, instance: int, workers: int, pool):
        from repro.api import EngineOptions, ERSession

        spec = self.spec
        return ERSession(
            self.datasets[instance],
            systems=spec.systems,
            matcher=spec.matcher,
            engine=EngineOptions(workers=workers),
            n_increments=spec.n_increments,
            rate=spec.rate,
            budget=spec.budget,
            seed=instance_seed(self.seed, instance),
            pool=pool,
        )

    def run_cell(self, session, plan, system: str, pooled: bool = False) -> CellRun:
        from repro.service.protocol import result_fingerprint

        ingest_s: list[float] = []
        read_s: list[float] = []
        push = session.push(system)
        start = perf_counter()
        for at, increment in plan:
            began = perf_counter()
            push.feed(increment, at=at)
            if at > 0.0:
                push.drain(at)
            fed = perf_counter()
            read_matches(push)
            ingest_s.append(fed - began)
            read_s.append(perf_counter() - fed)
        push.drain(self.spec.budget)
        result = push.results()
        wall = perf_counter() - start
        return CellRun(
            system=system,
            fingerprint=result_fingerprint(result),
            wall_s=wall,
            comparisons=result.comparisons_executed,
            counters=dict(result.details["metrics"]["counters"]),
            ingest_s=ingest_s,
            read_s=read_s,
            pooled=pooled,
        )

    def run_rep(self, instance: int) -> list[CellRun]:
        """Every cell of the workload on one dataset instance."""
        session, plans = self.sessions[instance], self.plans[instance]
        cells = [self.run_cell(session, plans[system], system) for system in self.spec.systems]
        if instance == 0 and self.pooled_session is not None:
            cells += [
                self.run_cell(self.pooled_session, self.pooled_plans[system], system, pooled=True)
                for system in self.spec.pooled
            ]
        return cells

    def reference(self) -> tuple[list[dict[str, str]], str]:
        """Expected fingerprint per instance and cell, and where it came from.

        Recorded seeds come from ``expected.json``.  For any other seed the
        reference is computed here, outside the timed region, along a path
        other than the timed one where the workload has one: the one-shot
        ``ERSession.run`` for runs that end by exhausting work (there the
        two schedules agree), and serial runs for budget-ed, whose pooled
        cells must match them.  Otherwise the untimed run only pins
        determinism.
        """
        systems = self.spec.systems
        recorded = expected_fingerprints(self.name, self.seed)
        if recorded is not None:
            return [
                {system: recorded[str(instance)][system] for system in systems}
                for instance in range(self.spec.instances)
            ], "recorded"
        if self.spec.budget >= 1.0e6:
            return self.one_shot_fingerprints(), "computed: one-shot run"
        return self.serial_fingerprints(), "computed: serial push run"

    def one_shot_fingerprints(self) -> list[dict[str, str]]:
        from repro.service.protocol import result_fingerprint

        return [
            {system: result_fingerprint(session.run(system)) for system in self.spec.systems}
            for session in self.sessions
        ]

    def serial_fingerprints(self) -> list[dict[str, str]]:
        fingerprints = []
        for instance in range(self.spec.instances):
            with self.new_session(instance, 1, None) as serial:
                plans = self.plans[instance]
                fingerprints.append({
                    system: self.run_cell(serial, plans[system], system).fingerprint
                    for system in self.spec.systems
                })
        return fingerprints

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        if self.pooled_session is not None:
            self.pooled_session.close()
        if self.pool is not None:
            self.pool.close()


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
SERVICE = {
    "dataset": "census_2m",
    "tenants": 8,
    # At most one connection per core (two on the reference host).
    "connections": min(2, os.cpu_count() or 1),
    "systems": ("I-PES", "I-PCS", "I-PBS"),
    "matcher": "JS",
    "batch": 2,
    # Offered rates in ops/s, one equal-length step each.  The gated latency
    # metrics come from the first ``steady_steps``, where the drain executor
    # is mostly idle, so their figures track per-op cost rather than how
    # close the host runs to saturation; the steps above probe capacity for
    # ``max_rate_ops``.
    "rates": (30.0, 60.0, 90.0, 150.0, 250.0),
    "steady_steps": 3,
    "latency_limit_ms": 50.0,
    # Every fourth round over the tenants is a ``matches`` read.
    "read_every": 4,
    "virtual_interval": 1.0,
    "queue_limit": 1_000_000,
}


def conn_of(index: int) -> int:
    """The connection tenant ``index`` is sent over."""
    return index * SERVICE["connections"] // SERVICE["tenants"]


@dataclass
class TenantPlan:
    tenant: str
    system: str
    pipelined: bool
    batches: list
    budget: float = 0.0
    accepted: list = field(default_factory=list)


def build_schedule(seed: int, seconds: float, dataset) -> tuple[list[TenantPlan], list[Op]]:
    """Deterministic tenants and op schedule for one ``service-mix`` run."""
    from repro.service.protocol import encode_profiles

    n = SERVICE["tenants"]
    profiles = list(dataset.profiles)
    random.Random(seed).shuffle(profiles)
    tenants = [
        TenantPlan(
            tenant=f"t{index}",
            system=SERVICE["systems"][index % len(SERVICE["systems"])],
            pipelined=index % 2 == 1,
            batches=[],
        )
        for index in range(n)
    ]
    slices = [profiles[index::n] for index in range(n)]
    step_s = seconds / len(SERVICE["rates"])
    ops: list[Op] = []
    k = 0
    offset0 = 0.0
    for step, rate in enumerate(SERVICE["rates"]):
        count = int(round(rate * step_s))
        for j in range(count):
            index = k % n
            tenant = tenants[index]
            if (k // n) % SERVICE["read_every"] == SERVICE["read_every"] - 1:
                kind, fields, batch = "matches", {}, None
            else:
                ordinal = len(tenant.batches)
                size = SERVICE["batch"]
                batch = slices[index][ordinal * size : (ordinal + 1) * size]
                if len(batch) < size:
                    raise ValueError("dataset too small for the schedule")
                tenant.batches.append(batch)
                kind = "ingest"
                fields = {
                    "profiles": encode_profiles(batch),
                    "at": ordinal * SERVICE["virtual_interval"],
                }
            # Far above the ids the generator hands out to control requests.
            request_id = 1_000_000 + k
            line = LoadGenerator.encode(request_id, kind, tenant=tenant.tenant, **fields)
            ops.append(
                Op(
                    offset=offset0 + j / rate,
                    conn=conn_of(index),
                    kind=kind,
                    tenant=tenant.tenant,
                    step=step,
                    line=line,
                    request_id=request_id,
                    extra=batch,
                )
            )
            k += 1
        offset0 += step_s
    for tenant in tenants:
        tenant.budget = (len(tenant.batches) + 1) * SERVICE["virtual_interval"]
    return tenants, ops


def service_scale(seconds: float) -> float:
    """Dataset scale that covers every ingest of a ``seconds``-long schedule."""
    step_s = seconds / len(SERVICE["rates"])
    ops = sum(int(round(rate * step_s)) for rate in SERVICE["rates"])
    profiles = ops * SERVICE["batch"] + SERVICE["tenants"] * SERVICE["batch"] * 4
    return round(profiles / 3000 + 0.01, 2)


class ServerProcess:
    """``python -m repro.service`` as a child process on a free port."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--port",
                "0",
                "--max-tenants",
                str(SERVICE["tenants"] * 2),
                "--queue-limit",
                str(SERVICE["queue_limit"]),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


class ServerThread:
    """An :class:`ERServer` in this process (the traced run wraps its calls)."""

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(60) or self._error is not None:
            raise RuntimeError(f"in-process service did not start: {self._error!r}")

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # surfaced to the starting thread
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.service.server import ERServer

        async with ERServer(
            max_tenants=SERVICE["tenants"] * 2, queue_limit=SERVICE["queue_limit"]
        ) as server:
            self.port = server.port
            self._ready.set()
            await server.serve_until_stopped()

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    def stop(self) -> None:
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("in-process service did not stop")


@dataclass
class ServiceRun:
    tenants: list[TenantPlan]
    ops: list[Op]
    wall_s: float
    comparisons: int
    fingerprints: dict[str, str]
    payloads: dict[str, dict]
    counters: dict
    peak_rss_mb: float
    in_flight: list
    failed_replies: int


class ServiceWorkload:
    """One ``service-mix`` run: server, generator, schedule, replays."""

    def __init__(self, seed: int, seconds: float, root: Path, in_process: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.in_process = in_process
        self.server = None
        self.gen = None

    def setup(self) -> None:
        from repro.datasets import registry

        dataset = registry.load_dataset(
            SERVICE["dataset"], scale=service_scale(self.seconds), seed=self.seed
        )
        self.tenants, self.ops = build_schedule(self.seed, self.seconds, dataset)
        self.start_server()

    def start_server(self) -> None:
        self.server = ServerThread() if self.in_process else ServerProcess(self.root)
        self.gen = LoadGenerator("127.0.0.1", self.server.port, SERVICE["connections"])
        reply = self.gen.call([(0, "ping", {})])[0]
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")

    def run(self) -> ServiceRun:
        gen = self.gen
        opened = gen.call(
            [
                (
                    conn_of(index),
                    "open",
                    {
                        "tenant": plan.tenant,
                        "system": plan.system,
                        "matcher": SERVICE["matcher"],
                        "budget": plan.budget,
                        "pipelined": plan.pipelined,
                    },
                )
                for index, plan in enumerate(self.tenants)
            ]
        )
        failed = sum(1 for reply in opened if not reply.get("ok"))
        start = perf_counter()
        gen.run_schedule(self.ops, timeout=150.0)
        finals = gen.call(
            [
                request
                for index, plan in enumerate(self.tenants)
                for request in (
                    (conn_of(index), "drain", {"tenant": plan.tenant, "until": plan.budget}),
                    (conn_of(index), "results", {"tenant": plan.tenant}),
                )
            ]
        )
        wall = perf_counter() - start
        fingerprints, payloads = {}, {}
        comparisons = 0
        for index, plan in enumerate(self.tenants):
            drained, result = finals[2 * index], finals[2 * index + 1]
            if not (drained.get("ok") and result.get("ok")):
                failed += 1
                continue
            fingerprints[plan.tenant] = result["fingerprint"]
            payloads[plan.tenant] = result["result"]
            comparisons += result["result"]["comparisons_executed"]
        for op in self.ops:
            if op.kind == "ingest" and op.reply.get("ok"):
                tenant = self.tenants[int(op.tenant[1:])]
                tenant.accepted.append((op.reply["at"], op.extra))
        stats = gen.call([(0, "stats", {})])[0]
        counters = stats.get("metrics", {}).get("counters", {})
        peak = self.server.peak_rss_mb()
        return ServiceRun(
            tenants=self.tenants,
            ops=self.ops,
            wall_s=wall,
            comparisons=comparisons,
            fingerprints=fingerprints,
            payloads=payloads,
            counters=counters,
            peak_rss_mb=peak,
            in_flight=list(gen.in_flight),
            failed_replies=failed,
        )

    def expected(self) -> dict[str, str] | None:
        """Recorded per-tenant fingerprints for this seed and run length."""
        recorded = expected_fingerprints("service-mix", self.seed)
        if recorded is None or recorded.get("seconds") != self.seconds:
            return None
        return recorded["tenants"]

    def replay(self) -> dict[str, str]:
        """Each tenant's accepted log through a standalone in-process session."""
        from repro.service import TenantConfig, TenantSession, result_fingerprint

        fingerprints = {}
        for plan in self.tenants:
            session = TenantSession(
                TenantConfig(
                    tenant_id=plan.tenant,
                    system=plan.system,
                    matcher=SERVICE["matcher"],
                    budget=plan.budget,
                    pipelined=plan.pipelined,
                )
            )
            try:
                for at, batch in plan.accepted:
                    session.ingest(batch, at=at)
                session.drain(plan.budget)
                fingerprints[plan.tenant] = result_fingerprint(session.results())
            finally:
                session.close()
        return fingerprints

    def close(self) -> None:
        if self.gen is not None:
            try:
                self.gen.call([(0, "shutdown", {})], timeout=30.0)
            finally:
                self.gen.close()
                self.gen = None
        if self.server is not None:
            self.server.stop()
            self.server = None
