"""Record the expected result fingerprints that every timed run checks.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record.py --seeds 0-31 --seconds 30

Fingerprints (``repro.service.protocol.result_fingerprint``) are computed
along paths other than the timed ones: the one-shot ``ERSession.run`` for
``stream-js`` (its runs end by exhausting work, where the one-shot and the
per-increment schedules agree), a serial push run for ``budget-ed`` (which
its pooled I-PES cell must also reproduce), and, for
``service-mix``, each tenant's full ingest log replayed through a
standalone ``TenantSession`` without any server.  The result is merged
into ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import (
    EXPECTED_PATH,
    SERVICE,
    ServiceWorkload,
    StreamWorkload,
    build_schedule,
    service_scale,
)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def stream_fingerprints(name: str, seed: int) -> dict:
    workload = StreamWorkload(name, seed)
    try:
        workload.setup()
        if name == "stream-js":
            found = workload.one_shot_fingerprints()
        else:
            found = workload.serial_fingerprints()
    finally:
        workload.close()
    return {str(instance): cells for instance, cells in enumerate(found)}


def service_fingerprints(seed: int, seconds: float) -> dict:
    from repro.datasets import registry

    workload = ServiceWorkload(seed, seconds, Path.cwd(), in_process=True)
    dataset = registry.load_dataset(
        SERVICE["dataset"], scale=service_scale(seconds), seed=seed
    )
    workload.tenants, workload.ops = build_schedule(seed, seconds, dataset)
    for plan in workload.tenants:
        plan.accepted = [
            (ordinal * SERVICE["virtual_interval"], batch)
            for ordinal, batch in enumerate(plan.batches)
        ]
    return {"seconds": seconds, "tenants": workload.replay()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,2,5-9")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length the service-mix schedule is built for")
    parser.add_argument("--workloads", default="stream-js,budget-ed,service-mix")
    args = parser.parse_args(argv)
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name in args.workloads.split(","):
        entries = table.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            if name == "service-mix":
                entries[str(seed)] = service_fingerprints(seed, args.seconds)
            else:
                entries[str(seed)] = stream_fingerprints(name, seed)
            print(f"{name} seed {seed} recorded", flush=True)
        EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
