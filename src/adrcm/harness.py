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
from typing import Callable, Sequence

import numpy as np
from scipy import special

from ._parallel import ReplicateFailure, parallel_map
from .cliques import count_cliques_upto
from .model import ModelParams, ParameterError, derive_seed, sample_config
from .trees import (
    BlockSums,
    DirectedTreeSpec,
    block_sums,
    count_trees,
    validate_tree,
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


@dataclass(frozen=True)
class TreeStatistic:
    """Measure the total embedding count of one directed tree."""

    spec: DirectedTreeSpec

    @property
    def labels(self) -> tuple[str, ...]:
        return ("tree_total",)


Statistic = CliqueStatistic | TreeStatistic


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative Monte Carlo experiment over independent configurations."""

    params: ModelParams
    statistic: Statistic
    replicate_count: int
    master_seed: int
    n_list: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.replicate_count < 2:
            raise ParameterError("replicate_count must be >= 2")


def _replicate_seeds(master_seed: int, count: int) -> list[int]:
    """Seeds of replicates 0..count-1 under one master seed; every replicate set uses them."""
    return [derive_seed(master_seed, 0, i) for i in range(count)]


@dataclass(frozen=True)
class ReplicateResult:
    """Measured statistic vector for one sampled configuration."""

    values: np.ndarray
    point_count: int
    wall_time: float
    seed: int


def _measure(args: tuple[ModelParams, Statistic, int]) -> ReplicateResult:
    params, statistic, seed = args
    start = time.perf_counter()
    config = sample_config(params, seed)
    if isinstance(statistic, CliqueStatistic):
        totals = count_cliques_upto(config, max(statistic.k_list))
        values = np.asarray([totals[k - 1] for k in statistic.k_list], dtype=np.float64)
    else:
        values = np.asarray([count_trees(config, statistic.spec)], dtype=np.float64)
    return ReplicateResult(
        values=values,
        point_count=len(config),
        wall_time=time.perf_counter() - start,
        seed=seed,
    )


def run_replicates(plan: ExperimentPlan, threads: int = 1) -> list[ReplicateResult]:
    """Sample and measure all replicates of the plan, in replicate order."""
    tasks = [
        (plan.params, plan.statistic, seed)
        for seed in _replicate_seeds(plan.master_seed, plan.replicate_count)
    ]
    return parallel_map(_measure, tasks, threads)


def _run_ladder(plan: ExperimentPlan, threads: int) -> list[list[ReplicateResult]]:
    """Replicates at every torus length of plan.n_list, from one parallel_map call.

    Length j replicates the plan on a torus of length n_list[j] under the
    master seed derive_seed(master_seed, 1, j); the lists come back in
    n_list order.
    """
    r = plan.replicate_count
    tasks = [
        (ModelParams(plan.params.gamma, plan.params.beta, n), plan.statistic, seed)
        for j, n in enumerate(plan.n_list)
        for seed in _replicate_seeds(derive_seed(plan.master_seed, 1, j), r)
    ]
    results = parallel_map(_measure, tasks, threads)
    return [results[j * r : (j + 1) * r] for j in range(len(plan.n_list))]


def samples_matrix(results: Sequence[ReplicateResult]) -> np.ndarray:
    """Replicate-by-statistic matrix of measured values."""
    return np.stack([r.values for r in results])


def _block_task(args) -> BlockSums:
    params, spec, seed = args
    return block_sums(sample_config(params, seed), spec)


def run_block_replicates(
    params: ModelParams,
    spec: DirectedTreeSpec,
    replicate_count: int,
    master_seed: int,
    threads: int = 1,
) -> list[BlockSums]:
    """Independent replicates of per-block embedding sums."""
    spec = validate_tree(spec) if spec.leaf_count is None else spec
    tasks = [(params, spec, seed) for seed in _replicate_seeds(master_seed, replicate_count)]
    return parallel_map(_block_task, tasks, threads)


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
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = stat_fn(x[rng.integers(0, x.size, size=(1000, x.size))])
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


def variance_scaling(plan: ExperimentPlan, threads: int = 1) -> ScalingResult:
    """Per-size sample variance divided by n, with percentile bootstrap CIs.

    Rows run over n_list, then over the statistic's labels.  The CI of label
    j at length index i uses the seed derive_seed(master_seed, 2, i, j); with
    fewer than MIN_TEST_SAMPLES replicates a row has no CI.
    """
    if not plan.n_list:
        raise ParameterError("variance scaling needs at least one torus length")
    rows: list[ScalingRow] = []
    replicates = dict(zip(plan.n_list, _run_ladder(plan, threads)))
    for n_index, (n, results) in enumerate(replicates.items()):
        matrix = samples_matrix(results)

        def var_over_n(a: np.ndarray) -> np.ndarray:
            return np.var(a, axis=-1, ddof=1) / n

        for j, label in enumerate(plan.statistic.labels):
            col = matrix[:, j]
            lo = hi = None
            if col.size >= MIN_TEST_SAMPLES:
                seed = derive_seed(plan.master_seed, 2, n_index, j)
                lo, hi = bootstrap_ci(col, var_over_n, seed)
            rows.append(ScalingRow(n, label, float(var_over_n(col)), lo, hi))
    return ScalingResult(rows=tuple(rows), replicates=replicates)


# -- serialization -----------------------------------------------------------


def replicates_csv(results: Sequence[ReplicateResult], labels: Sequence[str]) -> str:
    """One CSV row per replicate: seed, point count, wall time, statistics."""
    lines = ["replicate,seed,point_count,wall_time," + ",".join(labels)]
    for i, r in enumerate(results):
        stats_part = ",".join("%d" % v if float(v).is_integer() else "%.17g" % v for v in r.values)
        lines.append(f"{i},{r.seed},{r.point_count},%.6f,{stats_part}" % r.wall_time)
    return "\n".join(lines) + "\n"
