"""Closed-form targets against quadrature and high-precision oracles."""

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from adrcm import theory
from adrcm.harness import ReplicateFailure
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    derive_seed,
    sample_config,
)
from adrcm.theory import (
    MARK_FLOOR,
    GammaDiagnostics,
    RegimeError,
    SigmaEstimate,
    clique_diff_moment_profile,
    gamma_diagnostics,
    lambda_down,
    lambda_up,
    log_slope,
    neighborhood_counts,
    sigma_palm,
    tree_root_moment_profile,
)
from adrcm.trees import DirectedTreeSpec, validate_tree

from oracles import add_points, sigma_direct_from_samples, tree_path, tree_wedge


# -- neighborhood intensities -------------------------------------------------


def test_lambda_up_at_mark_one_is_zero():
    assert lambda_up(1.0, ModelParams(0.3, 1.0, 10.0)) == pytest.approx(0.0)


def test_lambda_up_hand_value():
    # (2/0.5) * (0.25^-0.5 - 1) = 4 * (2 - 1)
    assert lambda_up(0.25, ModelParams(0.5, 1.0, 10.0)) == pytest.approx(4.0)


def test_lambda_down_hand_value():
    assert lambda_down(ModelParams(0.25, 1.0, 10.0)) == pytest.approx(8.0 / 3.0)


def test_lambda_down_vanishes_with_beta():
    assert lambda_down(ModelParams(0.25, 1e-12, 10.0)) == pytest.approx(0.0, abs=1e-11)


def test_lambda_down_mark_free():
    params = ModelParams(0.4, 0.7, 10.0)
    assert lambda_down(params) == lambda_down(params)  # closed form carries no mark


@pytest.mark.parametrize("gamma", [0.2, 0.3, 0.45])
@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("u", [0.9, 0.5, 0.1, 0.01])
def test_lambda_up_matches_quadrature(gamma, beta, u):
    params = ModelParams(gamma, beta, 10.0)
    # measure of {(y, v): v in (u, 1), |y| <= beta u^-gamma v^(gamma-1)}
    value, _ = integrate.quad(lambda v: 2.0 * beta * u**-gamma * v ** (gamma - 1.0), u, 1.0)
    assert lambda_up(u, params) == pytest.approx(value, rel=1e-3)


@pytest.mark.parametrize("gamma", [0.2, 0.3, 0.45])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_lambda_down_matches_quadrature(gamma, beta):
    params = ModelParams(gamma, beta, 10.0)
    u = 0.37
    value, _ = integrate.quad(lambda w: 2.0 * beta * w**-gamma * u ** (gamma - 1.0), 0.0, u)
    assert lambda_down(params) == pytest.approx(value, rel=1e-3)


def test_lambda_up_invalid_mark():
    with pytest.raises(ParameterError):
        lambda_up(0.0, ModelParams(0.3, 1.0, 10.0))


def test_c_plus_coefficient():
    params = ModelParams(0.25, 0.5, 10.0)
    c_plus = 2.0 * params.beta / params.gamma  # = 4
    # the asymptotic coefficient dominates at rate u^gamma as u -> 0
    u = 1e-9
    assert lambda_up(u, params) == pytest.approx(c_plus * u**-0.25, rel=2.0 * u**0.25)


# -- sigma estimators ---------------------------------------------------------------


def test_sigma_palm_singletons_near_one():
    params = ModelParams(0.3, 1.0, 100.0)
    est = sigma_palm(params, 1, 1, mc_budget=400, seed=5)
    # C_1(u) = 1 identically: only the mark floor separates the value from 1.
    assert est.components[1] == 0.0
    assert abs(est.value - 1.0) <= 3.0 * est.std_error + 2.0 * MARK_FLOOR


def test_sigma_palm_regime_gate():
    with pytest.raises(RegimeError):
        sigma_palm(ModelParams(0.6, 1.0, 100.0), 2, 2, mc_budget=100)


def test_sigma_palm_positive_small_budget():
    params = ModelParams(0.3, 1.0, 100.0)
    est = sigma_palm(params, 2, 2, mc_budget=2000, seed=7)
    assert est.value > 0.0
    assert est.components[0] + est.components[1] == pytest.approx(est.value)
    assert est.details["joint_convention"] == "ordered-pairs"
    assert set(est.details["sensitivity"]) == {"half_L", "double_L"}


def test_sigma_estimate_validation():
    with pytest.raises(ParameterError):
        SigmaEstimate(value=1.0, std_error=0.0, components=(0.5, 0.5))
    with pytest.raises(ParameterError):
        SigmaEstimate(value=1.0, std_error=0.1, components=(0.2, 0.2))


def test_sigma_direct_poisson_counts():
    # k = 1 clique counts are Poisson(n): Var/n must sit near 1.
    params = ModelParams(0.3, 1.0, 400.0)
    counts = np.array(
        [len(sample_config(params, derive_seed(3, i))) for i in range(600)],
        dtype=np.float64,
    )
    est = sigma_direct_from_samples(counts, counts, params.torus_length)
    assert abs(est.value - 1.0) <= 4.0 * est.std_error


# -- Palm sampling helpers -------------------------------------------------------------


def test_neighborhood_counts_match_intensities():
    params = ModelParams(0.3, 0.5, 300.0)
    ups, downs = neighborhood_counts(params, 0.2, replicates=2500, seed=11)
    lam_up = lambda_up(0.2, params)
    lam_down = lambda_down(params)
    assert abs(ups.mean() - lam_up) <= 3.0 * ups.std(ddof=1) / math.sqrt(ups.size)
    assert abs(downs.mean() - lam_down) <= 3.0 * downs.std(ddof=1) / math.sqrt(downs.size)


def test_log_slope_recovers_exponent():
    u = np.array([0.3, 0.1, 0.03, 0.01])
    vals = 5.0 * u**-0.7
    assert log_slope(u, vals) == pytest.approx(0.7, rel=1e-9)


def test_moment_profiles_run_and_expose_slope():
    params = ModelParams(0.3, 1.0, 64.0)
    prof = clique_diff_moment_profile(
        params, 3, (0.3, 0.1), replicates=300, power=2.0, seed=2
    )
    assert prof.moments.shape == (2,)
    assert np.all(prof.moments > 0.0)
    assert np.isfinite(prof.slope)
    tree_prof = tree_root_moment_profile(
        params, tree_wedge(), (0.3, 0.1), replicates=300, power=1.0, seed=3
    )
    assert np.all(tree_prof.moments > 0.0)


# -- gamma diagnostics ------------------------------------------------------------------


def test_gamma_diagnostics_feasibility_arithmetic():
    params = ModelParams(0.45, 1.0, 32.0)
    with pytest.raises(ParameterError) as err:
        gamma_diagnostics(params, eta=1.2, mc_budget=500, seed=1)
    assert "feasible interval" in str(err.value)
    assert "1.111" in str(err.value)


def test_gamma_diagnostics_small_run():
    params = ModelParams(0.3, 1.0, 32.0)
    diag = gamma_diagnostics(params, eta=1.2, mc_budget=4000, seed=9, k0=2)
    assert isinstance(diag, GammaDiagnostics)
    for value in (diag.gamma1, diag.gamma2, diag.gamma3):
        assert np.isfinite(value) and value >= 0.0
    assert diag.details["k0"] == 2


def test_gamma_diagnostics_bounded_across_torus_lengths():
    # gamma2 + gamma3 should stay within a factor two over a torus ladder.
    totals = []
    for n in (250.0, 500.0, 1000.0):
        diag = gamma_diagnostics(
            ModelParams(0.3, 1.0, n), eta=1.2, mc_budget=15000, seed=31, k0=2
        )
        totals.append(diag.gamma2 + diag.gamma3)
    assert all(t > 0.0 for t in totals)
    assert max(totals) < 2.0 * min(totals), totals


# -- dispatch ---------------------------------------------------------------------


def _count_pools(monkeypatch) -> list[int]:
    started = []
    init = ProcessPoolExecutor.__init__

    def counting(pool, *args, **kwargs):
        started.append(1)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    return started


# Each Palm estimator at small inputs, by the worker count it runs with.
_PALM_ESTIMATORS = {
    "sigma_palm": lambda threads: sigma_palm(
        ModelParams(0.3, 1.0, 100.0), 2, 3, mc_budget=80, seed=8, threads=threads
    ),
    "clique_diff_moment_profile": lambda threads: clique_diff_moment_profile(
        ModelParams(0.3, 1.0, 64.0), 3, (0.3, 0.1), replicates=40, power=1.37, seed=2,
        threads=threads,
    ),
    "tree_root_moment_profile": lambda threads: tree_root_moment_profile(
        ModelParams(0.1, 1.0, 64.0), tree_path(3), (0.3, 0.1), replicates=40, power=1.37,
        seed=3, threads=threads,
    ),
    "neighborhood_counts": lambda threads: neighborhood_counts(
        ModelParams(0.3, 1.0, 100.0), 0.05, 60, seed=4, threads=threads
    ),
    "gamma_diagnostics": lambda threads: gamma_diagnostics(
        ModelParams(0.3, 1.0, 16.0), eta=1.2, mc_budget=600, seed=4, k0=2, threads=threads
    ),
}


def _numbers(result):
    """Every field of an estimator's result, with arrays as lists."""
    fields = enumerate(result) if isinstance(result, tuple) else vars(result).items()
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in fields}


@pytest.mark.parametrize("name", sorted(_PALM_ESTIMATORS))
def test_palm_estimator_worker_independent_in_one_pool(monkeypatch, name):
    serial = _numbers(_PALM_ESTIMATORS[name](1))
    started = _count_pools(monkeypatch)
    parallel = _numbers(_PALM_ESTIMATORS[name](2))
    assert len(started) == 1
    assert parallel == serial


# -- Palm restriction: the same counts as on the whole torus -------------------------


def _on_whole_torus(params, seed, anchors, hops):
    return add_points(sample_config(params, seed), anchors)


def _restricted_and_whole(monkeypatch, tasks):
    restricted = [theory._palm_sample(task) for task in tasks]
    with monkeypatch.context() as m:
        m.setattr(theory, "_palm_config", _on_whole_torus)
        whole = [theory._palm_sample(task) for task in tasks]
    return restricted, whole


def _smallest_mark_seeds(count: int) -> list[int]:
    """Seeds whose single-term Palm mark is among the smallest of 4000."""
    seeds = [derive_seed(52, i) for i in range(4000)]
    marks = [np.random.Generator(np.random.Philox(key=s)).uniform(MARK_FLOOR, 1.0) for s in seeds]
    return [seeds[i] for i in np.argsort(marks)[:count]]


def test_sigma_terms_count_the_same_on_the_palm_neighbourhood(monkeypatch):
    base = ModelParams(0.3, 1.0, 100.0)
    seeds = [derive_seed(51, i) for i in range(120)]
    items = [(base, 3, 3, None, 8.0, s) for s in seeds + _smallest_mark_seeds(4)]
    items += [(base, 2, 3, None, 8.0, s) for s in seeds[:40]]
    # Joint terms with the second point close by and far out (|y| up to 200).
    items += [(base, 3, 3, half, 8.0, s) for half in (4.0, 200.0) for s in seeds]
    items += [(base, 2, 3, 4.0, 8.0, s) for s in seeds[:40]]
    items += [(base, 2, 2, 30.0, 8.0, derive_seed(51, i)) for i in range(400)]
    tasks = [
        theory._sigma_task(
            base,
            partial(theory._centered_product if half is None else theory.joint_clique_counts,
                    k=k, l=l),
            half, floor_width, s,
        )
        for base, k, l, half, floor_width, s in items
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, tasks)
    assert restricted == whole
    counts = [out[0] if isinstance(out, tuple) else out for out in restricted]
    assert sum(1 for c in counts if c > 0) > 100
    # A joint count with the second point more than 10 from the first.
    assert any(
        isinstance(out, tuple) and out[0] > 0 and abs(anchors[1].x) > 10.0
        for out, (_, _, anchors, _, _) in zip(restricted, tasks)
    )


def test_neighbourhood_and_diff_samples_count_the_same(monkeypatch):
    tasks = [
        (theory._up_down_degrees, params, [MarkedPoint(0.0, u)], 1, derive_seed(53, i))
        for params in (ModelParams(0.3, 0.5, 1000.0), ModelParams(0.3, 1.0, 32.0))
        for u in (MARK_FLOOR, 0.01, 0.1, 0.9)
        for i in range(10)
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, tasks)
    assert restricted == whole

    params = ModelParams(0.3, 1.0, 64.0)
    qs = [
        None,
        MarkedPoint(0.5, 0.4),
        MarkedPoint(31.999, 0.2),  # just below the seam
        MarkedPoint(-32.0, 0.01),  # on the seam
        MarkedPoint(32.0, 0.05),  # wraps onto the seam
        MarkedPoint(20.0, 0.9),  # not adjacent to (0, u) for u >= 0.05
    ]
    items = [
        (params, u, q, k0, power, derive_seed(54, i))
        for u in (MARK_FLOOR, 0.05, 0.3)
        for q in qs
        for k0, power in ((3, 1.0), (4, 1.37))
        for i in range(6)
    ]
    items += [(ModelParams(0.3, 1.0, 16.0), 0.0625, q, 3, 2.4, derive_seed(55, i))
              for q in qs[:2] for i in range(20)]
    # q is an anchor too; without one the task counts the add-one difference.
    tasks = [
        (partial(theory.diff1_clique_upto if q is None else theory.diff2_clique_upto, k_max=k0),
         params, [MarkedPoint(0.0, u)] + ([] if q is None else [q]), 1, seed)
        for params, u, q, k0, _, seed in items
    ]
    restricted, whole = (
        [np.asarray(out, dtype=np.float64) ** item[4] for out, item in zip(outs, items)]
        for outs in _restricted_and_whole(monkeypatch, tasks)
    )
    assert all(a.tolist() == b.tolist() for a, b in zip(restricted, whole))
    assert sum(1 for a in restricted if a[2:].any()) > 20


def test_tree_root_samples_count_the_same(monkeypatch):
    specs = [
        tree_wedge(),
        tree_path(3),
        tree_path(4),
        validate_tree(DirectedTreeSpec(3, ((2, 1), (1, 3)), 1)),  # one down step
        validate_tree(DirectedTreeSpec(4, ((1, 2), (2, 3), (4, 1)), 1)),  # down, down
        validate_tree(DirectedTreeSpec(4, ((1, 2), (3, 2), (4, 3)), 1)),  # depth 3
    ]
    tasks = [
        (partial(theory.d_in, spec=spec), params, [MarkedPoint(0.0, u)], theory._tree_depth(spec),
         derive_seed(56, i))
        for params in (ModelParams(0.1, 1.0, 64.0), ModelParams(0.3, 1.0, 32.0))
        for u in (MARK_FLOOR, 0.01, 0.3, 0.9)
        for spec in specs
        for i in range(5)
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, tasks)
    assert restricted == whole
    assert sum(1 for out in restricted if out > 0) > 100


def test_palm_task_failure_names_its_seed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("counter failed")

    params = ModelParams(0.3, 1.0, 64.0)
    # (counter that fails, estimator, seed of the first task's configuration)
    cases = [
        ("diff1_clique_upto",
         lambda: clique_diff_moment_profile(params, 3, (0.3, 0.1), replicates=4, seed=4),
         derive_seed(4, 7, 0, 0)),
        ("count_cliques_centered",
         lambda: sigma_palm(params, 3, 3, mc_budget=8, seed=4),
         derive_seed(derive_seed(4, 1, 0), 1)),
        ("d_in",
         lambda: tree_root_moment_profile(params, tree_wedge(), (0.3, 0.1), replicates=4, seed=4),
         derive_seed(4, 8, 0, 0)),
    ]
    for counter, estimate, seed in cases:
        with monkeypatch.context() as m:
            m.setattr(theory, counter, broken)
            with pytest.raises(ReplicateFailure) as err:
                estimate()
        assert err.value.seed == seed, counter
        assert "counter failed" in str(err.value)


def test_palm_estimators_check_marks_before_any_task_runs(monkeypatch):
    def no_dispatch(*args):
        raise AssertionError("a task was dispatched")

    monkeypatch.setattr(theory, "parallel_map", no_dispatch)
    params = ModelParams(0.3, 1.0, 64.0)
    with pytest.raises(ParameterError, match="mark must lie in"):
        clique_diff_moment_profile(params, 3, (0.3, 1.5), 4)
    with pytest.raises(ParameterError, match="mark must lie in"):
        neighborhood_counts(params, 0.0, 3)


@pytest.mark.parametrize("replicates", [0, 1])
def test_moment_profiles_need_two_replicates(replicates):
    params = ModelParams(0.1, 1.0, 64.0)
    with pytest.raises(ParameterError, match="2 replicates or more"):
        clique_diff_moment_profile(params, 3, (0.3, 0.1), replicates)
    with pytest.raises(ParameterError, match="2 replicates or more"):
        tree_root_moment_profile(params, tree_wedge(), (0.3, 0.1), replicates)
