"""Replication engine and normality-diagnostic tests, with self-calibration."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import special

from adrcm.harness import (
    CliqueStatistic,
    DegenerateSampleError,
    ExperimentPlan,
    ReplicateFailure,
    SCHEMA_VERSION,
    TreeStatistic,
    bootstrap_ci,
    ks_distance_normal,
    poisson_chi_square,
    replicates_csv,
    run_block_replicates,
    run_replicates,
    samples_matrix,
    standardize,
    summary_document,
    variance_scaling,
    wasserstein1_distance_normal,
)
from adrcm.model import ModelParams, ParameterError, derive_seed
from adrcm.trees import DirectedTreeSpec, tree_wedge


def _plan(k_list=(1,), r=50, n=100.0, seed=7, gamma=0.3, beta=1.0, n_list=()):
    return ExperimentPlan(
        params=ModelParams(gamma, beta, n),
        statistic=CliqueStatistic(k_list=k_list),
        replicate_count=r,
        master_seed=seed,
        n_list=n_list,
    )


# -- replication ------------------------------------------------------------


def test_run_replicates_deterministic():
    plan = _plan(k_list=(1, 2), r=8)
    a = samples_matrix(run_replicates(plan))
    b = samples_matrix(run_replicates(plan))
    assert np.array_equal(a, b)


def test_run_replicates_threads_do_not_change_values():
    plan = _plan(k_list=(1, 2, 3), r=12, n=60.0)
    seq = samples_matrix(run_replicates(plan, threads=1))
    par = samples_matrix(run_replicates(plan, threads=3))
    assert np.array_equal(seq, par)


def test_run_replicates_poisson_mean():
    plan = _plan(k_list=(1,), r=400, n=100.0)
    counts = samples_matrix(run_replicates(plan))[:, 0]
    se = math.sqrt(100.0 / 400)
    assert abs(counts.mean() - 100.0) <= 3.0 * se


def test_run_replicates_wall_time_positive():
    plan = _plan(r=3)
    for rep in run_replicates(plan):
        assert rep.wall_time > 0.0
        assert rep.point_count >= 0


def test_replicate_failure_identifies_seed():
    bogus = DirectedTreeSpec(2, ((1, 2), (2, 1)), 1)  # invalid: caught in-worker
    plan = ExperimentPlan(
        params=ModelParams(0.3, 1.0, 10.0),
        statistic=TreeStatistic(spec=bogus),
        replicate_count=3,
        master_seed=5,
    )
    with pytest.raises(ReplicateFailure) as err:
        run_replicates(plan)
    assert err.value.seed == derive_seed(5, 0, 0)


def test_plan_validation():
    with pytest.raises(ParameterError):
        _plan(r=1)
    with pytest.raises(ParameterError):
        CliqueStatistic(k_list=())


# -- standardize ----------------------------------------------------------------


def test_standardize_two_point_example():
    out = standardize(np.array([0.0, 2.0]))
    assert out.tolist() == [-1.0, 1.0]


def test_standardize_constant_rejected():
    with pytest.raises(DegenerateSampleError):
        standardize(np.full(10, 3.3))


def test_standardize_moments_machine_precision():
    rng = np.random.default_rng(0)
    out = standardize(rng.gamma(2.0, size=500))
    assert abs(out.mean()) < 1e-12
    assert abs(out.std(ddof=0) - 1.0) < 1e-12


# -- KS test ----------------------------------------------------------------------


def test_ks_large_normal_sample():
    rng = np.random.default_rng(40)
    stat, p = ks_distance_normal(rng.standard_normal(100000))
    assert stat < 0.01
    assert p > 0.05


def test_ks_requires_enough_samples():
    with pytest.raises(DegenerateSampleError):
        ks_distance_normal(np.zeros(10))


def test_ks_self_calibration_type_one_error():
    rng = np.random.default_rng(7)
    trials = 200
    alpha = 0.05
    rejections = 0
    for _ in range(trials):
        _, p = ks_distance_normal(rng.standard_normal(5000))
        rejections += p <= alpha
    se = math.sqrt(alpha * (1 - alpha) / trials)
    assert abs(rejections / trials - alpha) <= 3.0 * se


def test_ks_power_against_uniform():
    rng = np.random.default_rng(3)
    raw = rng.uniform(size=10000)
    _, p = ks_distance_normal(standardize(raw))
    assert p < 0.001


# -- Wasserstein ---------------------------------------------------------------------


def test_w1_quantile_grid_vanishes():
    m = 10000
    samples = special.ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert wasserstein1_distance_normal(samples) < 0.02
    m_small = 500
    coarse = special.ndtri((np.arange(1, m_small + 1) - 0.5) / m_small)
    assert wasserstein1_distance_normal(samples) < wasserstein1_distance_normal(coarse)


def test_w1_location_shift_identity():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(20000)
    shift = 0.5
    d = wasserstein1_distance_normal(base + shift)
    assert abs(d - shift) <= 0.1 * shift


def test_w1_nonnegative_and_guarded():
    rng = np.random.default_rng(12)
    assert wasserstein1_distance_normal(rng.standard_normal(50)) >= 0.0
    with pytest.raises(DegenerateSampleError):
        wasserstein1_distance_normal(np.zeros(5))


# -- chi-square GOF ---------------------------------------------------------------------


def test_poisson_chi_square_accepts_poisson():
    rng = np.random.default_rng(21)
    counts = rng.poisson(1.43, size=4000)
    stat, p = poisson_chi_square(counts, 1.43)
    assert p > 0.01


def test_poisson_chi_square_rejects_overdispersed():
    rng = np.random.default_rng(22)
    counts = rng.poisson(rng.uniform(0.2, 4.0, size=4000))
    _, p = poisson_chi_square(counts, counts.mean())
    assert p < 0.01


# -- bootstrap and scaling -------------------------------------------------------------


def test_bootstrap_ci_deterministic_and_covering():
    rng = np.random.default_rng(31)
    data = rng.normal(5.0, 2.0, size=400)
    ci1 = bootstrap_ci(data, lambda a: float(np.mean(a)), seed=9)
    ci2 = bootstrap_ci(data, lambda a: float(np.mean(a)), seed=9)
    assert ci1 == ci2
    assert ci1[0] < 5.0 < ci1[1]


def test_variance_scaling_poisson_counts():
    plan = _plan(k_list=(1,), r=250, n_list=(50.0, 100.0), seed=13)
    result = variance_scaling(plan, resamples=400)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.ci_lo <= 1.0 <= row.ci_hi
        assert row.var_over_n == pytest.approx(1.0, rel=0.35)


def test_variance_scaling_runs_the_ladder_in_one_pool(monkeypatch):
    plan = _plan(k_list=(1, 2), r=200, n_list=(20.0, 30.0, 40.0), seed=3)
    serial = variance_scaling(plan, resamples=50)
    started = []
    init = ProcessPoolExecutor.__init__

    def counting(pool, *args, **kwargs):
        started.append(1)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    parallel = variance_scaling(plan, threads=2, resamples=50)
    assert len(started) == 1
    assert parallel.rows == serial.rows
    assert parallel.samples.keys() == serial.samples.keys()
    for j, n in enumerate(plan.n_list):
        assert np.array_equal(parallel.samples[n], serial.samples[n])
        # Length j replicates the plan on its torus under the master seed (1, j).
        sub = _plan(k_list=(1, 2), r=200, n=n, seed=derive_seed(3, 1, j))
        assert np.array_equal(serial.samples[n], samples_matrix(run_replicates(sub)))


def test_variance_scaling_requires_ladder_and_replicates():
    with pytest.raises(ParameterError):
        variance_scaling(_plan(r=250, n_list=()))
    with pytest.raises(ParameterError):
        variance_scaling(_plan(r=50, n_list=(50.0, 100.0)))


# -- blocks and serialization ---------------------------------------------------------------


def test_run_block_replicates_partition():
    params = ModelParams(0.2, 1.0, 12.0)
    reps = run_block_replicates(params, tree_wedge(), 5, master_seed=3)
    assert len(reps) == 5
    assert all(r.values.size == 12 for r in reps)


def test_replicates_csv_layout():
    plan = _plan(k_list=(1, 2), r=3)
    text = replicates_csv(run_replicates(plan), CliqueStatistic((1, 2)).labels)
    lines = text.strip().splitlines()
    assert lines[0] == "replicate,seed,point_count,wall_time,cliques_k1,cliques_k2"
    assert len(lines) == 4


def test_summary_document_schema():
    doc = summary_document(
        plan_fields={"mode": "cliques"},
        estimates={"x": 1.0},
        std_errors={},
        test_statistics={},
        p_values={},
        seeds={"master": 1},
        wall_time=0.1,
    )
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) >= {"plan", "estimates", "std_errors", "p_values", "seeds"}
