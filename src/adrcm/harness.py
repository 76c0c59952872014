"""Replication engine and normality diagnostics for subgraph-count statistics.

Plans are pure data: a model, a statistic, a replicate count and a master
seed.  Every replicate derives its own seed, so results are reproducible and
independent of the executing thread count; reductions always run in replicate
order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import special

from ._parallel import ReplicateFailure, parallel_map
from .cliques import count_cliques_upto
from .model import (
    ModelParams, ParameterError, PointConfig, _derive_seeds, _rng, _shared_adjacency,
    derive_seed, neighborhood_adjacency, sample_config,
)
from .trees import (
    BlockSums,
    DirectedTreeSpec,
    block_sums,
    count_trees,
)

__all__ = [
    "DegenerateSampleError",
    "ReplicateFailure",
    "CliqueStatistic",
    "TreeStatistic",
    "ExperimentPlan",
    "ReplicateResult",
    "run_replicates",
    "samples_matrix",
    "run_block_replicates",
    "standardize",
    "ks_distance_normal",
    "wasserstein1_distance_normal",
    "bootstrap_ci",
    "ScalingRow",
    "ScalingResult",
    "variance_scaling",
    "replicates_csv",
]


class DegenerateSampleError(ValueError):
    """The sample admits no meaningful standardization or test."""


@dataclass(frozen=True)
class CliqueStatistic:
    """Measure the total clique count for every size in k_list."""

    k_list: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ParameterError("k_list must be nonempty with entries >= 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"cliques_k{k}" for k in self.k_list)

    def count(self, config: PointConfig) -> np.ndarray:
        totals = count_cliques_upto(config, max(self.k_list))
        return np.asarray([totals[k - 1] for k in self.k_list], dtype=np.float64)


@dataclass(frozen=True)
class TreeStatistic:
    """Measure the total embedding count of one directed tree."""

    spec: DirectedTreeSpec

    @property
    def labels(self) -> tuple[str, ...]:
        return ("tree_total",)

    def count(self, config: PointConfig) -> np.ndarray:
        return np.asarray([count_trees(config, self.spec)], dtype=np.float64)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative Monte Carlo experiment over independent configurations."""

    params: ModelParams
    statistic: CliqueStatistic | TreeStatistic
    replicate_count: int
    master_seed: int
    n_list: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.replicate_count < 2:
            raise ParameterError("replicate_count must be >= 2")


@dataclass(frozen=True)
class ReplicateResult:
    """What a count returned for one sampled configuration: a statistic vector, or BlockSums.

    edges and max_up_degree describe the configuration's graph: its edge
    count and its largest number of higher-mark neighbours.  wall_time is
    the replicate's count plus an even share of its chunk's sampling and
    edge lists.
    """

    values: np.ndarray | BlockSums
    point_count: int
    edges: int
    max_up_degree: int
    wall_time: float
    seed: int


# In one process, consecutive replicates of a run on a torus of length n
# below _CHUNK_BELOW share a chunk of _CHUNK_POINTS // ceil(n) tori; a
# longer torus is a chunk of its own.  Per k <= 3 clique replicate (medians
# of 15 runs, 2-core x86-64, numpy 2.4), chunks took 280 -> 272 us at n =
# 250 and 322 -> 333 us at 300, but 342 -> 364 us at 350, 362 -> 428 us at
# 400 and 442 -> 574 us at 500.  A process pool's batches of tasks would split chunks, and
# each part would sample its whole chunk, so with several workers every
# replicate is a chunk of its own.
_CHUNK_POINTS = 4096
_CHUNK_BELOW = 300.0


class _Chunk:
    """The tori of consecutive replicates of one run, sampled together at first use.

    The first of the chunk's replicates to run samples every torus of the
    chunk with sample_config and builds their edge lists together
    (model._shared_adjacency); each replicate then takes its own
    configuration, which the chunk drops.
    """

    def __init__(self, params: ModelParams, seeds: list[int]):
        self.params = params
        self.seeds = seeds
        self._configs: list[PointConfig | None] | None = None
        self._share = 0.0

    def take(self, i: int) -> tuple[PointConfig, float]:
        """The configuration of the chunk's replicate i, sample_config(params, seeds[i]).

        Also returns the replicate's part of the sampling time: the time the chunk
        took to sample and build edge lists together, spread evenly over its
        replicates.  A failed draw raises a ReplicateFailure naming its torus's seed.
        """
        if self._configs is None:
            start = time.perf_counter()
            configs = []
            for seed in self.seeds:
                try:
                    configs.append(sample_config(self.params, seed))
                except Exception as exc:  # noqa: BLE001 - reported with the failing torus's seed
                    raise ReplicateFailure(seed, repr(exc)) from exc
            if len(configs) > 1:
                _shared_adjacency(configs)
            self._configs = configs
            self._share = (time.perf_counter() - start) / len(self.seeds)
        config, self._configs[i] = self._configs[i], None
        return config, self._share


def _replicate(task: tuple[Callable[[PointConfig], object], _Chunk, int, int]) -> ReplicateResult:
    count, chunk, i, seed = task
    config, sampling = chunk.take(i)
    start = time.perf_counter()
    values = count(config)
    wall_time = sampling + time.perf_counter() - start
    # The configuration keeps its edge list, so this reads the one the count built.
    indptr = neighborhood_adjacency(config)[0]
    return ReplicateResult(
        values=values,
        point_count=len(config),
        edges=int(indptr[-1]),
        max_up_degree=int(np.diff(indptr).max(initial=0)),
        wall_time=wall_time,
        seed=seed,
    )


def _map_replicates(
    count: Callable, runs: Sequence[tuple[ModelParams, int]], r: int, threads: int
) -> list[list[ReplicateResult]]:
    """The r replicates of every (params, master seed) run, from one parallel_map call.

    Replicate i of a run samples under derive_seed(master_seed, 0, i), and a
    run derives its r seeds in one call.  There is one task per replicate;
    the tasks of a chunk of consecutive replicates, cut by index alone,
    share a _Chunk.  The lists come back in run order, each in replicate
    order.
    """
    tasks = []
    for params, master_seed in runs:
        seeds = _derive_seeds(master_seed, (0,), np.arange(r)).tolist()
        n = params.torus_length
        size = _CHUNK_POINTS // math.ceil(n) if n < _CHUNK_BELOW and threads <= 1 else 1
        for first in range(0, r, size):
            chunk = _Chunk(params, seeds[first : first + size])
            tasks += [(count, chunk, i, seed) for i, seed in enumerate(chunk.seeds)]
    results = parallel_map(_replicate, tasks, threads)
    return [results[j * r : (j + 1) * r] for j in range(len(runs))]


def run_replicates(plan: ExperimentPlan, threads: int = 1) -> list[ReplicateResult]:
    """Sample and measure all replicates of the plan, in replicate order."""
    run = (plan.params, plan.master_seed)
    return _map_replicates(plan.statistic.count, [run], plan.replicate_count, threads)[0]


def samples_matrix(results: Sequence[ReplicateResult]) -> np.ndarray:
    """Replicate-by-statistic matrix of measured values."""
    return np.stack([r.values for r in results])


def run_block_replicates(
    params: ModelParams,
    spec: DirectedTreeSpec,
    replicate_count: int,
    master_seed: int,
    threads: int = 1,
) -> list[BlockSums]:
    """Independent replicates of per-block embedding sums."""
    count = partial(block_sums, spec=spec)
    results = _map_replicates(count, [(params, master_seed)], replicate_count, threads)[0]
    return [r.values for r in results]


# -- one-sample normality diagnostics ---------------------------------------


def standardize(samples: np.ndarray) -> np.ndarray:
    """Center and scale to empirical mean 0, variance 1 (population moments)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DegenerateSampleError("need at least two samples")
    sd = float(x.std(ddof=0))
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateSampleError("zero-variance sample cannot be standardized")
    return (x - x.mean()) / sd


MIN_TEST_SAMPLES = 30


def ks_distance_normal(samples: np.ndarray) -> tuple[float, float]:
    """One-sample Kolmogorov statistic against N(0, 1) with asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    m = x.size
    if m < MIN_TEST_SAMPLES:
        raise DegenerateSampleError(f"need >= {MIN_TEST_SAMPLES} samples, got {m}")
    cdf = special.ndtr(x)
    grid = np.arange(1, m + 1) / m
    statistic = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / m))))
    p_value = float(special.kolmogorov(math.sqrt(m) * statistic))
    return statistic, p_value


def wasserstein1_distance_normal(samples: np.ndarray) -> float:
    """Exact integral of |empirical CDF - normal CDF| for the given sample."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    m = x.size
    if m < MIN_TEST_SAMPLES:
        raise DegenerateSampleError(f"need >= {MIN_TEST_SAMPLES} samples, got {m}")

    def antiderivative(t: np.ndarray) -> np.ndarray:
        # Integral of the normal CDF from -inf to t.
        return t * special.ndtr(t) + np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    total = float(antiderivative(np.asarray(x[0])))  # tail below the sample
    # Tail above: integral of (1 - CDF) equals antiderivative mirrored.
    total += float(antiderivative(np.asarray(-x[-1])))
    levels = np.arange(1, m) / m
    a, b = x[:-1], x[1:]
    crossing = np.clip(special.ndtri(levels), a, b)
    j_a, j_b, j_s = antiderivative(a), antiderivative(b), antiderivative(crossing)
    total += float(
        np.sum(levels * (crossing - a) - (j_s - j_a) + (j_b - j_s) - levels * (b - crossing))
    )
    return total


def bootstrap_ci(
    samples: np.ndarray, stat_fn: Callable[[np.ndarray], np.ndarray], seed: int
) -> tuple[float, float]:
    """Percentile bootstrap 95% confidence interval with a derived seed.

    The 1000 resamples are drawn in one call, one per row, and stat_fn
    reduces that matrix along its last axis.
    """
    x = np.asarray(samples)
    values = stat_fn(x[_rng(seed).integers(0, x.size, size=(1000, x.size))])
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


# -- scaling study -------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    n: float
    label: str
    var_over_n: float
    ci_lo: float | None
    ci_hi: float | None


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[ScalingRow, ...]
    replicates: dict[float, list[ReplicateResult]] = field(repr=False)


def variance_scaling(
    plan: ExperimentPlan, threads: int = 1, *, labels: Sequence[str] | None = None
) -> ScalingResult:
    """Per-size sample variance divided by n, with percentile bootstrap CIs.

    Rows run over n_list, whose lengths must differ, then over the statistic's
    labels, or over those in labels alone: a caller that reports some labels
    pays no bootstrap for the others.  Length index i replicates under the
    master seed derive_seed(master_seed, 1, i), and the CI of its label j (the
    label's index among the statistic's) uses the seed derive_seed(master_seed,
    2, i, j); with fewer than MIN_TEST_SAMPLES replicates a row has no CI.
    """
    if not plan.n_list or len(set(plan.n_list)) < len(plan.n_list):
        raise ParameterError(f"variance scaling needs torus lengths, none repeated: {plan.n_list}")
    runs = [
        (ModelParams(plan.params.gamma, plan.params.beta, n), derive_seed(plan.master_seed, 1, i))
        for i, n in enumerate(plan.n_list)
    ]
    ladder = _map_replicates(plan.statistic.count, runs, plan.replicate_count, threads)
    rows: list[ScalingRow] = []
    replicates = dict(zip(plan.n_list, ladder))
    for n_index, (n, results) in enumerate(replicates.items()):
        matrix = samples_matrix(results)

        def var_over_n(a: np.ndarray) -> np.ndarray:
            return np.var(a, axis=-1, ddof=1) / n

        for j, label in enumerate(plan.statistic.labels):
            if labels is not None and label not in labels:
                continue
            col = matrix[:, j]
            lo = hi = None
            if col.size >= MIN_TEST_SAMPLES:
                seed = derive_seed(plan.master_seed, 2, n_index, j)
                lo, hi = bootstrap_ci(col, var_over_n, seed)
            rows.append(ScalingRow(n, label, float(var_over_n(col)), lo, hi))
    return ScalingResult(rows=tuple(rows), replicates=replicates)


# -- serialization -----------------------------------------------------------


def replicates_csv(results: Sequence[ReplicateResult], labels: Sequence[str]) -> str:
    """One CSV row per replicate: seed, point count, edges, largest up-degree, wall time, statistics.

    The statistics come last, so the last column is the last label's.
    """
    lines = ["replicate,seed,point_count,edges,max_up_degree,wall_time," + ",".join(labels)]
    for i, r in enumerate(results):
        stats_part = ",".join("%d" % v if float(v).is_integer() else "%.17g" % v for v in r.values)
        lines.append(
            f"{i},{r.seed},{r.point_count},{r.edges},{r.max_up_degree},%.6f,{stats_part}"
            % r.wall_time
        )
    return "\n".join(lines) + "\n"
