"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-js --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``
``end_to_end``); ``--trace 1`` runs the workload once untraced and once
with spans around every layer and prints the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is non-zero when any output is wrong.

The command itself only orchestrates.  The workload runs in a child
process (``--role workload``) so that set-up time counts interpreter
start, imports, dataset generation, session construction, pool spawn and
server start up to the first ``ping`` reply, and so that peak memory is
the workload's own.  Two more children (``--role setup``) repeat only the
set-up; ``setup_s`` is the median of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import report
import tracing
import workloads

HERE = Path(__file__).resolve().parent

WORKLOADS = ("stream-js", "budget-ed", "service-mix")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmp_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}

#: The ``end_to_end`` metrics of BENCHMARK.json, in its order.  The
#: latencies (``ingest_*``, ``read_*``) are printed by every run but not
#: gated: on a 2-core shared host their spread over runs is wider than any
#: usable bound.
GATED = ("wall_s", "cmp_per_s", "setup_s", "peak_rss_mb")

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "workload", "setup"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: ./src/repro is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.role == "main":
        return orchestrate(args, root)
    sys.path.insert(0, str(src))
    if args.role == "setup":
        return setup_only(args, root)
    return run_workload(args, root)


# ----------------------------------------------------------------------
# Orchestration (parent process)
# ----------------------------------------------------------------------
def child(args, root: Path, role: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, started: float, relay: bool) -> tuple[float | None, list[str], int]:
    """Read a child's output: (time to READY, other lines, exit code)."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = None
    lines: list[str] = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - started
                continue
            lines.append(line)
            if relay and not line.startswith("{"):
                print(line, end="", flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return ready, lines, code


def orchestrate(args, root: Path) -> int:
    started = perf_counter()
    ready, lines, code = collect(child(args, root, "workload"), started, relay=True)
    report = None
    for line in reversed(lines):
        if line.startswith("{"):
            report = json.loads(line)
            break
    if report is None or ready is None:
        print(f"perfbench: the workload process failed (exit {code})", file=sys.stderr)
        return 1
    metrics = report["metrics"]
    if not args.trace:
        samples = [ready]
        for _ in range(SETUP_SAMPLES - 1):
            started = perf_counter()
            sample, _, probe_code = collect(child(args, root, "setup"), started, relay=False)
            if sample is None or probe_code != 0:
                print(f"perfbench: a set-up probe failed (exit {probe_code})", file=sys.stderr)
                return 1
            samples.append(sample)
        samples.sort()
        setup_s = samples[len(samples) // 2]
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"  {'setup_s':<16} {setup_s:>14.6f} s       median of {len(samples)} set-ups "
              f"({', '.join(f'{s:.3f}' for s in samples)})")
        metrics = {name: metrics[name] for name in GATED}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if code == 0 and report["correct"] else 1


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def make_workload(args, root: Path, in_process_server: bool = False):
    if args.workload == "service-mix":
        return workloads.ServiceWorkload(args.seed, args.seconds, root, in_process=in_process_server)
    return workloads.StreamWorkload(args.workload, args.seed)


def setup_only(args, root: Path) -> int:
    workload = make_workload(args, root)
    try:
        workload.setup()
        print("READY", flush=True)
    finally:
        workload.close()
    return 0


class Outcome:
    """Op accounting and correctness messages for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)


def run_workload(args, root: Path) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_setup_spans(tracer)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}",
        flush=True,
    )
    outcome = Outcome()
    if args.workload == "service-mix":
        metrics, units, notes = run_service(args, root, tracer, outcome)
    else:
        metrics, units, notes = run_stream(args, root, tracer, outcome)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]:<6} {notes.get(name, '')}".rstrip())
    print(f"  {'ops_failed_frac':<28} {outcome.failed / max(1, outcome.attempted):>16.6f} "
          f"ratio  {outcome.failed} of {outcome.attempted} ops")
    for problem in outcome.problems[:20]:
        print(f"  ! {problem}")
    report = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "notes": notes, "problems": outcome.problems, **report,
    }
    path = root / OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(report), flush=True)
    return 0 if outcome.failed == 0 else 1


# -- in-process workloads ---------------------------------------------
def check_rep(workload, rep, expected: dict, first_rep, outcome: Outcome) -> None:
    for index, cell in enumerate(rep):
        outcome.attempted += len(cell.ingest_s) + len(cell.read_s) + 1
        if cell.fingerprint != expected[cell.system]:
            outcome.fail(f"{cell.system}: fingerprint {cell.fingerprint[:16]} != "
                         f"expected {expected[cell.system][:16]}")
        if cell.pooled and (
            cell.counters.get("parallel.fallbacks", 0) > 0
            or cell.counters.get("parallel.rounds_sharded", 0) == 0
        ):
            outcome.fail(f"{cell.system}: the pool did not score the run "
                         f"(fallbacks={cell.counters.get('parallel.fallbacks')}, "
                         f"rounds_sharded={cell.counters.get('parallel.rounds_sharded')})")
        if first_rep is not None:
            before = first_rep[index].counters
            drift = sorted(
                name for name in set(before) | set(cell.counters)
                if before.get(name) != cell.counters.get(name)
            )
            if drift:
                outcome.fail(f"{cell.system}: counters drifted between repetitions: {drift}")


def run_stream(args, root: Path, tracer, outcome: Outcome):
    workload = make_workload(args, root)
    try:
        workload.setup()
        print("READY", flush=True)
        expected, source = workload.reference()
        print(f"  expected fingerprints: {source}", flush=True)
        reps = []
        firsts: dict[int, list] = {}

        def repetition(instance: int) -> list:
            rep = workload.run_rep(instance)
            check_rep(workload, rep, expected[instance], firsts.get(instance), outcome)
            firsts.setdefault(instance, rep)
            return rep

        if tracer is None:
            # Repeat until --seconds have passed.  The first cycle over the
            # instances warms caches and lazy state and pins the counters
            # later repetitions must repeat; it counts toward --seconds but
            # not toward the figures.  At least one timed cycle follows it.
            instances = workload.spec.instances
            deadline = perf_counter() + args.seconds
            for instance in range(instances):
                repetition(instance)
            while len(reps) < instances or perf_counter() < deadline:
                reps.append(repetition(len(reps) % instances))
        else:
            untraced = repetition(0)
            tracing.install_layer_spans(tracer)
            tracer.patch(workloads, "read_matches",
                         tracer.wrap("bench.read", workloads.read_matches))
            tracer.run_id = 1
            traced = repetition(0)
            tracer.uninstall()
            reps = [untraced, traced]
    finally:
        workload.close()

    if tracer is None:
        # Median per dataset instance, then the mean over instances: every
        # instance weighs the same however their costs and repetition
        # counts differ.
        instances = workload.spec.instances
        groups = [reps[instance::instances] for instance in range(instances)]
        walls = [report.median([sum(c.wall_s for c in rep) for rep in group]) for group in groups]
        work = [sum(cell.comparisons for cell in group[0]) for group in groups]
        ingest = [[x for rep in group for cell in rep for x in cell.ingest_s] for group in groups]
        reads = [[x for rep in group for cell in rep for x in cell.read_s] for group in groups]
        ingest_tail, ingest_how = report.latency_pair(sum(ingest, []))[1:]
        read_tail, read_how = report.latency_pair(sum(reads, []))[1:]
        metrics = {
            "wall_s": sum(walls) / instances,
            "cmp_per_s": sum(work) / sum(walls),
            "peak_rss_mb": workloads.peak_rss_self_mb(),
            "ingest_p50_ms": sum(report.latency_pair(xs)[0] for xs in ingest) / instances,
            "ingest_p99_ms": ingest_tail,
            "read_p50_ms": sum(report.latency_pair(xs)[0] for xs in reads) / instances,
            "read_p99_ms": read_tail,
        }
        counts = "/".join(str(len(group)) for group in groups)
        notes = {
            "wall_s": f"mean over {instances} dataset instances of the median of "
                      f"{counts} timed repetitions",
            "cmp_per_s": f"{sum(work)} comparisons per cycle over the instances",
            "ingest_p50_ms": "mean over the instances of their medians",
            "ingest_p99_ms": ingest_how,
            "read_p99_ms": read_how,
        }
        if workload.spec.pooled:
            notes["pooled"] = pooled_gap(groups[0])
            print(f"  {notes['pooled']}")
        return metrics, END_TO_END_UNITS, notes

    untraced, traced = reps
    wall_u = sum(cell.wall_s for cell in untraced)
    wall_t = sum(cell.wall_s for cell in traced)
    counters = report.sum_counters(cell.counters for cell in traced)
    values = report.engine_layers(counters, tracer)
    roots = tracer.roots_s(run_id=1)
    values.update({
        "trace.wall_s": wall_t,
        "trace.span_share": roots / wall_t,
        "trace.overhead_s": wall_t - wall_u,
    })
    write_trace(args, root, tracer)
    print_shares(report.layer_shares(tracer, wall_t), wall_t)
    return report.complete_layers(values), report.PER_LAYER_UNITS, {}


def pooled_gap(group: list) -> str:
    """The pooled cells against their serial twins on the first instance."""
    def median_of(system: str, pooled: bool) -> float:
        return report.median([
            c.wall_s for rep in group for c in rep if c.system == system and c.pooled == pooled
        ])

    parts = [
        f"{c.system} pooled {median_of(c.system, True):.3f} s vs serial "
        f"{median_of(c.system, False):.3f} s"
        for c in group[0] if c.pooled
    ]
    return "fleet: " + ", ".join(parts) + " (instance 0 medians)"


def write_trace(args, root: Path, tracer) -> None:
    path = root / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "nproc": os.cpu_count(), "python": platform.python_version()})
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(root)}")


def print_shares(shares: dict, wall: float) -> None:
    text = ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items() if share > 0)
    print(f"  layer shares of traced wall {wall:.3f} s: {text}")


# -- service-mix -------------------------------------------------------
def run_service(args, root: Path, tracer, outcome: Outcome):
    if tracer is None:
        workload = make_workload(args, root)
        try:
            workload.setup()
            print("READY", flush=True)
            run = workload.run()
        finally:
            workload.close()
        check_service(workload, run, outcome)
        return service_end_to_end(run)

    # Traced: the server runs in this process so its calls can be wrapped;
    # one untraced pass first gives the overhead baseline.
    baseline = make_workload(args, root, in_process_server=True)
    try:
        baseline.setup()
        print("READY", flush=True)
        untraced = baseline.run()
    finally:
        baseline.close()
    check_service(baseline, untraced, outcome)
    tracing.install_layer_spans(tracer)
    tracer.run_id = 1
    workload = make_workload(args, root, in_process_server=True)
    try:
        workload.setup()
        run = workload.run()
    finally:
        workload.close()
        tracer.uninstall()
    check_service(workload, run, outcome)

    counters = report.sum_counters(
        payload["metrics"]["counters"] for payload in run.payloads.values()
    )
    values = report.engine_layers(counters, tracer)
    execs, waits = [], []
    ordinals: dict = {}
    for op in run.ops:
        if not op.reply.get("ok"):
            continue  # failed ops are counted by check_service; they may not have run
        key = (op.tenant, op.kind)
        position = ordinals.get(key, 0)
        ordinals[key] = position + 1
        exec_s = tracer.service_exec[key][position]
        execs.append(exec_s)
        waits.append(max(0.0, op.replied - op.sent - exec_s))
    exec_p50, exec_tail, _ = report.latency_pair(execs)
    wait_p50, wait_tail, _ = report.latency_pair(waits)
    late = [op.sent - op.due for op in run.ops]
    steps = service_steps(run)
    values.update({
        "service.exec_p50_ms": exec_p50,
        "service.exec_p99_ms": exec_tail,
        "service.queue_wait_p50_ms": wait_p50,
        "service.queue_wait_p99_ms": wait_tail,
        "service.shed": run.counters.get("service.tenant.shed", 0),
        "service.backlog_max": max((n for _, n in run.in_flight), default=0),
        "loadgen.late_p99_ms": report.latency_pair(late)[1],
        "loadgen.max_rate_ops": max_rate(steps),
        "trace.wall_s": run.wall_s,
        "trace.span_share": tracer.roots_s(run_id=1) / run.wall_s,
        "trace.overhead_s": run.wall_s - untraced.wall_s,
    })
    write_trace(args, root, tracer)
    print_shares(report.layer_shares(tracer, run.wall_s), run.wall_s)
    print("  (service-mix shares are of the schedule's wall time: their sum is "
          "the drain executor's utilization)")
    print_steps(steps, workloads.SERVICE["latency_limit_ms"])
    return report.complete_layers(values), report.PER_LAYER_UNITS, {}


def check_service(workload, run, outcome: Outcome) -> None:
    outcome.attempted += len(run.ops) + 3 * len(run.tenants)
    if run.failed_replies:
        outcome.fail(f"{run.failed_replies} open/drain/results requests failed",
                     run.failed_replies)
    for op in run.ops:
        if not op.reply.get("ok"):
            outcome.fail(f"{op.tenant} {op.kind}: {op.reply.get('error')} reply")
    replayed = workload.replay()
    for plan in run.tenants:
        served = run.fingerprints.get(plan.tenant)
        if served is not None and served != replayed[plan.tenant]:
            outcome.fail(f"{plan.tenant}: service fingerprint {served[:16]} != standalone "
                         f"replay {replayed[plan.tenant][:16]}")
    recorded = workload.expected()
    if recorded is not None:
        for tenant, fingerprint in recorded.items():
            if run.fingerprints.get(tenant) != fingerprint:
                outcome.fail(f"{tenant}: fingerprint differs from the recorded one")
    print(f"  expected fingerprints: standalone replay"
          f"{' + recorded' if recorded is not None else ''}", flush=True)


def service_steps(run) -> list[dict]:
    """Latency, lateness and backlog trend per offered-rate step."""
    steps = []
    for step, rate in enumerate(workloads.SERVICE["rates"]):
        ops = [op for op in run.ops if op.step == step]
        if not ops:
            continue
        ingest = [op.replied - op.due for op in ops if op.kind == "ingest"]
        reads = [op.replied - op.due for op in ops if op.kind == "matches"]
        failed = sum(1 for op in ops if not op.reply.get("ok"))
        first = ops[0].due - run.ops[0].due
        last = ops[-1].due - run.ops[0].due
        window = [n for t, n in run.in_flight if first <= t <= last]
        quarter = max(1, len(window) // 4)
        head = report.median(window[:quarter])
        tail = report.median(window[-quarter:])
        growing = tail > head + max(4.0, 0.05 * len(ops))
        p50, tail_ms, how = report.latency_pair(ingest)
        steps.append({
            "rate": rate,
            "ops": len(ops),
            "ingest": ingest,
            "reads": reads,
            "ingest_p50_ms": p50,
            "ingest_tail_ms": tail_ms,
            "how": how,
            "failed": failed,
            "backlog_head": head,
            "backlog_tail": tail,
            "growing": growing,
        })
    return steps


def max_rate(steps: list[dict]) -> float:
    best = 0.0
    for step in steps:
        if (
            step["ingest_tail_ms"] <= workloads.SERVICE["latency_limit_ms"]
            and not step["growing"]
            and step["failed"] == 0
        ):
            best = max(best, step["rate"])
    return best


def print_steps(steps: list[dict], limit_ms: float) -> None:
    for step in steps:
        verdict = "meets" if (step["ingest_tail_ms"] <= limit_ms and not step["growing"]) else "misses"
        print(f"  rate {step['rate']:>6.0f} ops/s: {step['ops']} ops, ingest p50 "
              f"{step['ingest_p50_ms']:.2f} ms, tail {step['ingest_tail_ms']:.2f} ms "
              f"({step['how']}), backlog {step['backlog_head']:.0f}->{step['backlog_tail']:.0f}"
              f"{' growing' if step['growing'] else ''}; {verdict} the {limit_ms:g} ms limit")


def service_end_to_end(run):
    steps = service_steps(run)
    steady = steps[: workloads.SERVICE["steady_steps"]]
    ingest = [x for step in steady for x in step["ingest"]]
    reads = [x for step in steady for x in step["reads"]]
    ingest_p50, ingest_tail, ingest_how = report.latency_pair(ingest)
    read_p50, read_tail, read_how = report.latency_pair(reads)
    late = [op.sent - op.due for op in run.ops]
    metrics = {
        "wall_s": run.wall_s,
        "cmp_per_s": run.comparisons / run.wall_s,
        "peak_rss_mb": run.peak_rss_mb,
        "ingest_p50_ms": ingest_p50,
        "ingest_p99_ms": ingest_tail,
        "read_p50_ms": read_p50,
        "read_p99_ms": read_tail,
    }
    rates = ", ".join(f"{step['rate']:g}" for step in steady)
    notes = {
        "wall_s": "first ingest to last results reply",
        "cmp_per_s": f"{run.comparisons} comparisons over {len(run.tenants)} tenants",
        "peak_rss_mb": "server process",
        "ingest_p99_ms": f"{ingest_how} at {rates} ops/s",
        "read_p99_ms": f"{read_how} at {rates} ops/s",
        "max_rate_ops": f"{max_rate(steps):g} ops/s",
        "loadgen.late_p99_ms": f"{report.latency_pair(late)[1]:.6f} ms",
    }
    print_steps(steps, workloads.SERVICE["latency_limit_ms"])
    print(f"  {'max_rate_ops':<28} {max_rate(steps):>16.6f} ops/s  highest offered rate within "
          f"{workloads.SERVICE['latency_limit_ms']:g} ms with no growing backlog")
    print(f"  {'loadgen.late_p99_ms':<28} {report.latency_pair(late)[1]:>16.6f} ms")
    return metrics, END_TO_END_UNITS, notes


if __name__ == "__main__":
    sys.exit(main())
