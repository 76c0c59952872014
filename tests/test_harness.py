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
    MIN_TEST_SAMPLES,
    ReplicateFailure,
    TreeStatistic,
    bootstrap_ci,
    ks_distance_normal,
    replicates_csv,
    run_block_replicates,
    run_replicates,
    samples_matrix,
    standardize,
    variance_scaling,
    wasserstein1_distance_normal,
)
import adrcm._parallel as _parallel
import adrcm.harness as harness
from adrcm._parallel import parallel_map
from adrcm.cliques import count_cliques_upto
from adrcm.model import (
    ModelParams, ParameterError, derive_seed, neighborhood_adjacency, sample_config,
)
from adrcm.trees import block_sums, count_trees

from oracles import bootstrap_ci_looped, poisson_chi_square, tree_wedge


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


def test_replicate_failure_identifies_seed(monkeypatch):
    def failing(config, spec):
        raise RuntimeError("count failed")

    monkeypatch.setattr(harness, "count_trees", failing)
    plan = ExperimentPlan(
        params=ModelParams(0.3, 1.0, 10.0),
        statistic=TreeStatistic(spec=tree_wedge()),
        replicate_count=3,
        master_seed=5,
    )
    with pytest.raises(ReplicateFailure) as err:
        run_replicates(plan)
    assert err.value.seed == derive_seed(5, 0, 0)


def _replicate_rows(results):
    return [(r.values.tolist(), r.point_count, r.seed) for r in results]


def _replicates_run(threads):
    return _replicate_rows(run_replicates(_plan(k_list=(1, 2, 3), r=6, n=40.0), threads))


def _ladder_run(threads):
    result = variance_scaling(_plan(k_list=(2,), r=5, n_list=(16.0, 24.0)), threads)
    return result.rows, {n: _replicate_rows(reps) for n, reps in result.replicates.items()}


def _blocks_run(threads):
    reps = run_block_replicates(ModelParams(0.1, 1.0, 16.0), tree_wedge(), 4, 3, threads)
    return [(b.values.tolist(), b.params) for b in reps]


@pytest.mark.parametrize(
    "runner", [_replicates_run, _ladder_run, _blocks_run], ids=lambda f: f.__name__.strip("_")
)
def test_whole_torus_runs_map_one_replicate_task(monkeypatch, runner):
    mapped = []

    def recording(fn, items, threads=1):
        mapped.append(fn)
        return parallel_map(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", recording)
    serial, parallel = runner(1), runner(2)
    assert mapped == [harness._replicate, harness._replicate]
    assert serial == parallel


def test_replicates_record_the_edge_list_of_their_configuration():
    # 64 tori of n = 64 per chunk, so 70 replicates make chunks of 64 and 6.
    params = ModelParams(0.2, 1.0, 64.0)
    cliques = run_replicates(ExperimentPlan(params, CliqueStatistic((1, 2, 3)), 70, 9))
    trees = run_replicates(ExperimentPlan(params, TreeStatistic(tree_wedge()), 70, 9))
    sums = run_block_replicates(params, tree_wedge(), 70, 9)
    for i in range(70):
        config = sample_config(params, derive_seed(9, 0, i))
        indptr, indices = neighborhood_adjacency(config)
        for rep in (cliques[i], trees[i]):
            assert (rep.seed, rep.point_count) == (config.seed, len(config))
            assert (rep.edges, rep.max_up_degree) == (indices.size, np.diff(indptr).max(initial=0))
        assert cliques[i].values.tolist() == count_cliques_upto(config, 3)
        assert trees[i].values.tolist() == [count_trees(config, tree_wedge())]
        assert sums[i].values.tolist() == block_sums(config, tree_wedge()).values.tolist()
    assert sum(rep.values[2] for rep in cliques) > 0


def test_a_serial_run_samples_each_torus_once_in_chunks(monkeypatch):
    sampled, shared = [], []
    sample, share = harness.sample_config, harness._shared_adjacency

    def recording_sample(params, seed):
        sampled.append(seed)
        return sample(params, seed)

    def recording_share(configs):
        shared.append(len(configs))
        share(configs)

    monkeypatch.setattr(harness, "sample_config", recording_sample)
    monkeypatch.setattr(harness, "_shared_adjacency", recording_share)
    run_replicates(ExperimentPlan(ModelParams(0.3, 1.0, 64.0), CliqueStatistic((2,)), 130, 2))
    assert sampled == [derive_seed(2, 0, i) for i in range(130)]
    assert shared == [64, 64, 2]
    # A torus of _CHUNK_BELOW or more is a chunk of its own.
    run_replicates(
        ExperimentPlan(ModelParams(0.3, 1.0, harness._CHUNK_BELOW), CliqueStatistic((2,)), 3, 2)
    )
    assert shared == [64, 64, 2]


def test_a_chunk_spreads_its_sampling_time_evenly(monkeypatch):
    class TickingClock:
        """A clock that advances one second at every reading."""

        now = 0.0

        def perf_counter(self):
            self.now += 1.0
            return self.now

    # 70 replicates at n = 64: chunks of 64 and 6 tori.  Each chunk's
    # sampling reads the clock twice (1 s), and so does each count.
    monkeypatch.setattr(harness, "time", TickingClock())
    plan = ExperimentPlan(ModelParams(0.3, 1.0, 64.0), CliqueStatistic((2,)), 70, 2)
    wall = [r.wall_time for r in run_replicates(plan)]
    assert wall == pytest.approx([1.0 + 1.0 / 64] * 64 + [1.0 + 1.0 / 6] * 6)


def test_with_several_workers_every_replicate_is_its_own_chunk(monkeypatch):
    chunks = []

    def recording(fn, items, threads=1):
        chunks.extend(len(chunk.seeds) for _, chunk, _, _ in items)
        return parallel_map(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", recording)
    plan = ExperimentPlan(ModelParams(0.3, 1.0, 64.0), CliqueStatistic((2,)), 6, 2)
    assert [r.values.tolist() for r in run_replicates(plan, 2)] == [
        r.values.tolist() for r in run_replicates(plan, 1)
    ]
    assert chunks == [1] * 6 + [6] * 6


def test_a_failing_draw_in_a_chunk_names_its_own_seed(monkeypatch):
    sample = harness.sample_config
    bad = derive_seed(5, 0, 7)

    def failing(params, seed):
        if seed == bad:
            raise RuntimeError("draw failed")
        return sample(params, seed)

    monkeypatch.setattr(harness, "sample_config", failing)
    plan = ExperimentPlan(ModelParams(0.3, 1.0, 10.0), CliqueStatistic((2,)), 12, 5)
    with pytest.raises(ReplicateFailure) as err:
        run_replicates(plan)
    assert err.value.seed == bad


def test_empty_tori_record_no_points_and_no_edges():
    params = ModelParams(0.3, 1.0, 0.7)
    results = run_replicates(ExperimentPlan(params, CliqueStatistic((1, 2)), 40, 1))
    sums = run_block_replicates(ModelParams(0.3, 1.0, 1.0), tree_wedge(), 40, 1)
    for rep in results:
        config = sample_config(params, rep.seed)
        indptr, indices = neighborhood_adjacency(config)
        assert rep.values.tolist() == count_cliques_upto(config, 2)
        assert (rep.point_count, rep.edges) == (len(config), indices.size)
        assert rep.max_up_degree == np.diff(indptr).max(initial=0)
    assert sum(rep.point_count == 0 for rep in results) >= 10
    assert sum(rep.edges > 0 for rep in results) >= 5
    assert all(b.values.size == 1 for b in sums)


def _edge_run(threads):
    plan = ExperimentPlan(ModelParams(0.3, 1.0, 16.0), CliqueStatistic((2, 3)), 22, 4)
    results = run_replicates(plan, threads)
    reps = run_block_replicates(ModelParams(0.1, 1.0, 16.0), tree_wedge(), 22, 4, threads)
    return (
        [(r.values.tolist(), r.point_count, r.edges, r.max_up_degree, r.seed) for r in results],
        [b.values.tolist() for b in reps],
    )


def test_edge_columns_do_not_depend_on_the_worker_count():
    one = _edge_run(1)
    assert _edge_run(2) == one
    assert _edge_run(3) == one


@pytest.mark.parametrize("threads, items, workers", [(3, 2, 2), (5, 1, None), (2, 4, 2)])
def test_parallel_map_starts_no_more_workers_than_tasks(monkeypatch, threads, items, workers):
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingExecutor)
    tasks = [(i, derive_seed(1, i)) for i in range(items)]
    assert parallel_map(lambda task: task[0] * 2, tasks, threads) == [2 * i for i in range(items)]
    assert started == ([] if workers is None else [workers])


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


def _mean(a: np.ndarray) -> np.ndarray:
    return np.mean(a, axis=-1)


def test_bootstrap_ci_deterministic_and_covering():
    rng = np.random.default_rng(31)
    data = rng.normal(5.0, 2.0, size=400)
    ci1 = bootstrap_ci(data, _mean, seed=9)
    ci2 = bootstrap_ci(data, _mean, seed=9)
    assert ci1 == ci2
    assert ci1[0] < 5.0 < ci1[1]


@pytest.mark.parametrize("size", [30, 31, 250, 251, 2000])
def test_bootstrap_ci_equals_the_looped_bootstrap(size):
    rng = np.random.default_rng(size)
    # Heavy-tailed integers, like replicate counts.
    data = np.floor(rng.pareto(1.5, size=size) * 100.0)
    for vectorized, looped in (
        (lambda a: np.var(a, axis=-1, ddof=1) / 250.0, lambda a: float(np.var(a, ddof=1) / 250.0)),
        (_mean, lambda a: float(np.mean(a))),
    ):
        seed = derive_seed(11, size)
        assert bootstrap_ci(data, vectorized, seed) == bootstrap_ci_looped(data, looped, seed)


def test_variance_scaling_poisson_counts():
    plan = _plan(k_list=(1,), r=250, n_list=(50.0, 100.0), seed=13)
    result = variance_scaling(plan)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.ci_lo <= 1.0 <= row.ci_hi
        assert row.var_over_n == pytest.approx(1.0, rel=0.35)


def test_variance_scaling_runs_the_ladder_in_one_pool(monkeypatch):
    plan = _plan(k_list=(1, 2), r=200, n_list=(20.0, 30.0, 40.0), seed=3)
    serial = variance_scaling(plan)
    started = []
    init = ProcessPoolExecutor.__init__

    def counting(pool, *args, **kwargs):
        started.append(1)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    parallel = variance_scaling(plan, threads=2)
    assert len(started) == 1
    assert parallel.rows == serial.rows
    assert list(serial.replicates) == list(plan.n_list)
    for j, n in enumerate(plan.n_list):
        assert np.array_equal(
            samples_matrix(parallel.replicates[n]), samples_matrix(serial.replicates[n])
        )
        # Length j replicates the plan on its torus under the master seed (1, j).
        sub = _plan(k_list=(1, 2), r=200, n=n, seed=derive_seed(3, 1, j))
        assert np.array_equal(
            samples_matrix(serial.replicates[n]), samples_matrix(run_replicates(sub))
        )


def test_variance_scaling_rows_and_their_bootstrap_seeds():
    plan = _plan(k_list=(1, 2), r=40, n_list=(30.0, 60.0), seed=5)
    result = variance_scaling(plan)
    assert [(row.n, row.label) for row in result.rows] == [
        (n, label) for n in plan.n_list for label in ("cliques_k1", "cliques_k2")
    ]
    for row in result.rows:
        i = plan.n_list.index(row.n)
        j = ("cliques_k1", "cliques_k2").index(row.label)
        col = samples_matrix(result.replicates[row.n])[:, j]
        assert row.var_over_n == float(np.var(col, ddof=1) / row.n)
        looped = bootstrap_ci_looped(
            col, lambda a: float(np.var(a, ddof=1) / row.n), derive_seed(5, 2, i, j)
        )
        assert (row.ci_lo, row.ci_hi) == looped


def test_variance_scaling_refuses_a_repeated_torus_length_before_any_task(monkeypatch):
    # One row per length: a repeated length would merge two runs' replicates into one row.
    def no_task(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(harness, "parallel_map", no_task)
    for n_list in ((16.0, 16.0), (16.0, 24.0, 16.0)):
        with pytest.raises(ParameterError, match="none repeated"):
            variance_scaling(_plan(k_list=(2,), r=40, n_list=n_list))


def test_variance_scaling_bootstraps_only_the_labels_asked_for(monkeypatch):
    plan = _plan(k_list=(1, 2, 3), r=40, n_list=(30.0, 60.0), seed=5)
    full = variance_scaling(plan)
    for labels in (("cliques_k3",), ("cliques_k1", "cliques_k3")):
        part = variance_scaling(plan, labels=labels)
        assert part.rows == tuple(row for row in full.rows if row.label in labels)
        for n in plan.n_list:
            assert np.array_equal(
                samples_matrix(part.replicates[n]), samples_matrix(full.replicates[n])
            )
    seeds = []
    bootstrap = harness.bootstrap_ci

    def recording(col, stat_fn, seed):
        seeds.append(seed)
        return bootstrap(col, stat_fn, seed)

    monkeypatch.setattr(harness, "bootstrap_ci", recording)
    variance_scaling(plan, labels=("cliques_k3",))
    # One bootstrap per length, each under its label's own seed.
    assert seeds == [derive_seed(5, 2, i, 2) for i in range(len(plan.n_list))]


def test_variance_scaling_requires_ladder_and_replicates():
    with pytest.raises(ParameterError):
        variance_scaling(_plan(r=250, n_list=()))
    # One length is a ladder; a CI needs MIN_TEST_SAMPLES replicates.
    few = variance_scaling(_plan(r=MIN_TEST_SAMPLES - 1, n_list=(50.0,)))
    assert len(few.rows) == 1
    assert few.rows[0].ci_lo is None and few.rows[0].ci_hi is None
    assert few.rows[0].var_over_n > 0.0
    enough = variance_scaling(_plan(r=MIN_TEST_SAMPLES, n_list=(50.0,)))
    assert enough.rows[0].ci_lo < enough.rows[0].var_over_n < enough.rows[0].ci_hi


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
    assert lines[0] == (
        "replicate,seed,point_count,edges,max_up_degree,wall_time,cliques_k1,cliques_k2"
    )
    assert len(lines) == 4
