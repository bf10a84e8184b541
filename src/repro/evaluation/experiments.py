"""Experiment harness: build systems/matchers by name and run configurations.

This is the layer the benchmarks, examples, and EXPERIMENTS.md reproduction
scripts sit on.  A :class:`ExperimentConfig` pins everything that defines
one paper experiment cell (dataset, increments, input rate, matcher,
algorithms, virtual budget); :func:`run_experiment` executes it and returns
one :class:`RunResult` per algorithm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import EngineOptions

from repro.blocking.substrate import BlockingConfig
from repro.core.dataset import Dataset, ERKind
from repro.datasets.registry import load_dataset
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher, Matcher
from repro.pier.base import PierSystem
from repro.pier.heuristic import make_chosen_strategy
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.progressive.batch import BatchERSystem
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem
from repro.progressive.psn import GSPSNSystem, LSPSNSystem
from repro.streaming.engine import RunResult
from repro.streaming.system import ERSystem

__all__ = [
    "SYSTEM_NAMES",
    "BATCH_SYSTEMS",
    "WEIGHTING_SYSTEMS",
    "ExperimentConfig",
    "make_matcher",
    "make_system",
    "run_experiment",
]

# Systems that require the full dataset upfront (single-increment plans in
# static experiments); all others consume the increment stream as-is.
BATCH_SYSTEMS = frozenset({"PPS", "PBS", "BATCH", "LS-PSN", "GS-PSN"})

SYSTEM_NAMES = (
    "I-PES",
    "I-PCS",
    "I-PBS",
    "I-AUTO",
    "I-BASE",
    "PPS",
    "PBS",
    "LS-PSN",
    "GS-PSN",
    "PPS-GLOBAL",
    "PPS-LOCAL",
    "PBS-GLOBAL",
    "BATCH",
)


def _build_matcher(name: str, *, ed_kernel: str = "auto") -> Matcher:
    """JS (cheap) or ED (expensive) matcher with experiment thresholds.

    ``ed_kernel`` selects the ED matcher's edit-distance kernel (ignored
    for JS); every kernel computes identical distances, so it is a
    wall-clock escape hatch only.
    """
    if name.upper() == "JS":
        return JaccardMatcher(threshold=0.35)
    if name.upper() == "ED":
        return EditDistanceMatcher(threshold=0.7, kernel=ed_kernel)
    raise ValueError(f"unknown matcher {name!r}; use 'JS' or 'ED'")


#: Systems that generate candidates through the single-sweep weighting
#: kernel and therefore honor the ``per_pair_weighting`` escape hatch.
#: I-PBS and the PPS/PBS baselines weigh pairs they already hold and have no
#: per-pair switch, and the sorted-neighborhood and exhaustive-batch
#: baselines do not weight comparisons, so the flag is ignored for them.
WEIGHTING_SYSTEMS = frozenset({"I-PES", "I-PCS", "I-AUTO", "I-BASE"})


def _build_system(
    name: str,
    dataset: Dataset,
    *,
    per_pair_weighting: bool = False,
    blocking: "BlockingConfig | None" = None,
    **overrides,
) -> ERSystem:
    """Instantiate an ER system by its paper name for a given dataset.

    ``per_pair_weighting=True`` selects the legacy per-pair meta-blocking
    weighting path instead of the single-sweep kernel for the systems that
    generate candidates (bit-identical results; exists for bisection).

    ``blocking`` selects the candidate-generation substrate
    (token / lsh / lsh-prefilter) for every system; ``None`` keeps the
    paper's token blocking.  For the PIER strategies it lands on the host
    :class:`PierSystem` (the strategy objects never see the substrate —
    they read it through the protocol).
    """
    clean_clean = dataset.kind is ERKind.CLEAN_CLEAN
    key = name.upper()
    if per_pair_weighting and key in WEIGHTING_SYSTEMS:
        overrides["per_pair_weighting"] = True
    if key == "I-PES":
        return PierSystem(IPES(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-PCS":
        return PierSystem(IPCS(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-PBS":
        return PierSystem(IPBS(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-AUTO":
        # The future-work heuristic: inspect a data sample, pick a strategy.
        sample = dataset.profiles[: min(len(dataset.profiles), 256)]
        system = PierSystem(
            make_chosen_strategy(sample, **overrides),
            clean_clean=clean_clean,
            blocking=blocking,
        )
        system.name = f"I-AUTO[{system.strategy.name}]"
        return system
    if key == "I-BASE":
        return IBaseSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key in ("PPS", "PPS-GLOBAL"):
        system = PPSSystem(
            clean_clean=clean_clean, scope="all", blocking=blocking, **overrides
        )
        system.name = key
        return system
    if key == "PPS-LOCAL":
        return PPSSystem(
            clean_clean=clean_clean, scope="last", blocking=blocking, **overrides
        )
    if key in ("PBS", "PBS-GLOBAL"):
        system = PBSSystem(
            clean_clean=clean_clean, scope="all", blocking=blocking, **overrides
        )
        system.name = key
        return system
    if key == "LS-PSN":
        return LSPSNSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key == "GS-PSN":
        return GSPSNSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key == "BATCH":
        return BatchERSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One experiment cell: dataset x stream shape x matcher x algorithms.

    ``rate=None`` is the *static* setting (everything available at t=0);
    otherwise increments arrive at ``rate`` ΔD per virtual second.  Batch
    baselines (PPS/PBS/BATCH) always receive the full dataset as one
    increment in the static setting, matching how the paper runs them.
    """

    dataset_name: str
    systems: tuple[str, ...]
    matcher: str = "JS"
    scale: float = 1.0
    n_increments: int = 100
    rate: float | None = None
    budget: float = 300.0
    seed: int = 0
    dataset: Dataset | None = field(default=None, compare=False)
    #: Engine knobs — see :class:`repro.api.EngineOptions` for the full
    #: set: execution escape hatches (``pipelined``, ``scalar_matching``,
    #: ``per_pair_weighting``, ``workers``, ``ed_kernel``), the fleet
    #: supervision knobs (``reply_timeout_s``, ``handshake_timeout_s``,
    #: ``max_respawns``, ``min_shard``), and the blocking-substrate choice
    #: (``blocking``, ``lsh_bands``, ``lsh_rows``, ``lsh_seed`` — the one
    #: group that changes *what* is computed).  ``None`` means all
    #: defaults: serial engine, batched kernel, sweep weighting, one
    #: worker, token blocking.
    engine: "EngineOptions | None" = None

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def load(self) -> Dataset:
        if self.dataset is not None:
            return self.dataset
        return load_dataset(self.dataset_name, scale=self.scale)


_DEPRECATION_TEMPLATE = (
    "{name} is deprecated; build an repro.api.ERSession instead "
    "(it unifies system/matcher/plan/engine construction and adds the "
    "parallel execution knobs)"
)


def make_matcher(name: str) -> Matcher:
    """Deprecated shim for :func:`_build_matcher`; use :class:`repro.api.ERSession`."""
    warnings.warn(
        _DEPRECATION_TEMPLATE.format(name="make_matcher"),
        DeprecationWarning,
        stacklevel=2,
    )
    return _build_matcher(name)


def make_system(
    name: str, dataset: Dataset, *, per_pair_weighting: bool = False, **overrides
) -> ERSystem:
    """Deprecated shim for :func:`_build_system`; use :class:`repro.api.ERSession`."""
    warnings.warn(
        _DEPRECATION_TEMPLATE.format(name="make_system"),
        DeprecationWarning,
        stacklevel=2,
    )
    return _build_system(
        name, dataset, per_pair_weighting=per_pair_weighting, **overrides
    )


def run_experiment(config: ExperimentConfig) -> dict[str, RunResult]:
    """Run every configured system over the configured stream; return
    results keyed by system name.

    Deprecated shim: the implementation lives in
    :meth:`repro.api.ERSession.compare`, which honors ``config.engine``
    (pipelined/scalar/per-pair/workers) and builds each stream plan once
    instead of re-splitting the dataset per batch system.
    """
    warnings.warn(
        _DEPRECATION_TEMPLATE.format(name="run_experiment"),
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api import ERSession

    with ERSession.from_config(config) as session:
        return session.compare()
