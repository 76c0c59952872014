"""Closed-form targets against quadrature and high-precision oracles."""

import functools
import hashlib
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from adrcm import model, theory
from adrcm.harness import ReplicateFailure
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    derive_seed,
    sample_config,
    wrap_position,
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
from adrcm.trees import DirectedTreeSpec

from oracles import (
    add_points, common_neighbours_oracle, d_in, diff1, palm_config, sigma_direct_from_samples,
    tree_path, tree_wedge,
)


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


# -- exact second differences -------------------------------------------------------


def _gamma_grid(n: float) -> tuple[np.ndarray, ...]:
    """The (u, y, v) nodes of gamma_diagnostics on the n-torus, as its details list them."""
    details = gamma_diagnostics(ModelParams(0.3, 1.0, n), eta=1.2, mc_budget=0, k0=1).details
    return np.meshgrid(details["u_grid"], details["y_grid"], details["v_grid"], indexing="ij")


def test_gamma_diagnostics_integrates_y_over_half_a_short_torus():
    # At n = 0.4 the y grid ends at n/2; a node at y = 0.5 would wrap to a
    # negative gap, which the kernel joins at any beta.  At beta 1e-9 only
    # y = 0 joins, so twice the trapezoid over [0, 0.2] gives Gamma_2 = 0.2^eta.
    params = ModelParams(0.3, 1e-9, 0.4)
    diag = gamma_diagnostics(params, eta=1.2, mc_budget=0, k0=2)
    assert diag.details["y_grid"] == [0.0, 0.2]
    u, y, v = _gamma_grid(0.4)
    assert theory._adjacent(params, u, y, v).tolist() == (y == 0.0).tolist()
    assert diag.gamma2 == pytest.approx(0.2**1.2, rel=1e-12)


# (params, p, q) nodes for the whole-torus checks: capped arcs at n = 16,
# and a pair across the seam at n = 64, whose offset -62 wraps to a gap of 2.
_COMMON_NODES = [
    (ModelParams(0.3, 1.0, 16.0), MarkedPoint(0.0, 0.0625), MarkedPoint(0.0, 1.0 / 12.0)),
    (ModelParams(0.3, 1.0, 16.0), MarkedPoint(0.0, 0.3), MarkedPoint(5.5, 0.05)),
    (ModelParams(0.3, 1.0, 64.0), MarkedPoint(31.0, 0.1), MarkedPoint(-31.0, 0.15)),
    (ModelParams(0.3, 1.0, 64.0), MarkedPoint(0.0, 0.02), MarkedPoint(12.0, 0.6)),
]


@functools.lru_cache(maxsize=None)
def _common_counts(node: int) -> np.ndarray:
    """Common neighbours of the node's p and q on 3000 whole tori, by brute force."""
    params, p, q = _COMMON_NODES[node]
    return np.array([
        common_neighbours_oracle(sample_config(params, derive_seed(91, node, i)), p, q)
        for i in range(3000)
    ])


def _exact_mean(node: int) -> float:
    params, p, q = _COMMON_NODES[node]
    return float(theory._common_mean(params, p.u, q.x - p.x, q.u))


def test_common_mean_matches_whole_torus_common_neighbour_counts():
    for node, (params, p, q) in enumerate(_COMMON_NODES):
        counts = _common_counts(node)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        mu = _exact_mean(node)
        assert abs(counts.mean() - mu) <= 4.0 * se, (node, counts.mean(), mu, se)
    # At n = 16 the arcs of marks below 0.06 span the whole circle.
    assert theory._arc(ModelParams(0.3, 1.0, 16.0), math.log(0.0625), math.log(0.05)) == 8.0


def test_common_mean_converges_under_panel_refinement():
    # The panels split at every kink of the arc overlap, so eight panels per
    # interval move mu by less than 1e-10 of itself (measured: 1e-15).
    for params in (ModelParams(g, 1.0, n) for g in (0.1, 0.3) for n in (16.0, 64.0, 256.0)):
        nodes = _gamma_grid(params.torus_length)
        fine = theory._common_mean(params, *nodes, panels=8)
        assert np.all(fine > 0.0)
        assert np.max(np.abs(theory._common_mean(params, *nodes) / fine - 1.0)) < 1e-10


def test_poisson_moment_matches_whole_torus_counts():
    for node in (0, 2):
        powered = _common_counts(node) ** 2.4
        se = powered.std(ddof=1) / math.sqrt(powered.size)
        exact = float(theory._poisson_moment(_exact_mean(node), 2.4))
        assert abs(powered.mean() - exact) <= 4.0 * se, (node, powered.mean(), exact, se)
    # Integer powers against the Poisson moments in closed form.
    mu = np.array([0.01, 1.0, 7.5, 60.0])
    assert theory._poisson_moment(mu, 1.0) == pytest.approx(mu, rel=1e-12)
    assert theory._poisson_moment(mu, 2.0) == pytest.approx(mu + mu**2, rel=1e-12)
    assert theory._poisson_moment(mu, 3.0) == pytest.approx(mu**3 + 3 * mu**2 + mu, rel=1e-12)


def test_the_kernel_indicator_is_the_samplers_edge_test():
    # d u_lo^gamma u_hi^(1 - gamma) = 2 * 0.5 * 1 = beta at gamma 0.25, across the seam too.
    params = ModelParams(0.25, 1.0, 64.0)
    n = params.torus_length
    joined = []
    for x, y in ((0.0, 2.0), (31.0, -31.0), (31.0, 33.0)):
        # Each y lies 2 after x on the torus; 4e-9 more is 2e-9 beyond the kernel.
        for y_q in (y, y + 4e-9):
            for u, v in ((0.0625, 1.0), (1.0, 0.0625)):
                first, second = (x, u), (wrap_position(y_q, n), v)
                config = PointConfig(params, *np.array(sorted([first, second])).T, seed=0)
                edge = model.neighborhood_adjacency(config)[1].size == 1
                assert theory._adjacent(params, u, second[0] - x, v)[0] == edge
                joined.append(edge)
    assert joined == [True, True, False, False] * 3


def test_the_exact_law_raises_no_warning_at_zero_mean_or_apart():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = theory._poisson_moment(np.array([0.0, 0.0, 1e-300]), 2.4)
        assert moments.tolist()[:2] == [0.0, 0.0] and np.isfinite(moments[2])
        params = ModelParams(0.3, 1.0, 16.0)
        nodes = _gamma_grid(16.0)
        assert not theory._adjacent(params, *nodes).all()
        diag = gamma_diagnostics(params, eta=1.2, mc_budget=600, seed=4, k0=3)
    assert all(math.isfinite(x) for x in (diag.gamma1, diag.gamma2, diag.se1)) and diag.se2 == 0.0


# -- dispatch ---------------------------------------------------------------------


def _count_pools(monkeypatch) -> list[int]:
    started = []
    init = ProcessPoolExecutor.__init__

    def counting(pool, *args, **kwargs):
        started.append(1)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    return started


# Each Palm estimator at small inputs, by the worker count it runs with.  Each
# has more samples than one chunk holds: a single chunk runs without a pool.
_PALM_ESTIMATORS = {
    "sigma_palm": lambda threads: sigma_palm(
        ModelParams(0.3, 1.0, 100.0), 2, 3, mc_budget=80, seed=8, threads=threads
    ),
    "clique_diff_moment_profile": lambda threads: clique_diff_moment_profile(
        ModelParams(0.3, 1.0, 64.0), 3, (0.3, 0.1), replicates=150, power=1.37, seed=2,
        threads=threads,
    ),
    "tree_root_moment_profile": lambda threads: tree_root_moment_profile(
        ModelParams(0.1, 1.0, 64.0), tree_path(3), (0.3, 0.1), replicates=150, power=1.37,
        seed=3, threads=threads,
    ),
    "neighborhood_counts": lambda threads: neighborhood_counts(
        ModelParams(0.3, 1.0, 100.0), 0.05, 300, seed=4, threads=threads
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


def _whole_torus_blocks(samples, hops):
    """Each sample's whole torus with its anchors inserted, as the blocks of one chunk."""
    configs = [add_points(sample_config(p, seed), anchors) for p, anchors, seed, _ in samples]
    bounds = np.concatenate(([0], np.cumsum([len(config) for config, _ in configs])))
    return model._Blocks(
        np.concatenate([config.positions for config, _ in configs]),
        np.concatenate([config.marks for config, _ in configs]),
        bounds,
        np.array([config.params.torus_length for config, _ in configs]),
        np.array([idx for _, idx in configs]).reshape(len(samples), -1) + bounds[:-1, None],
        samples[0][0].gamma,
        samples[0][0].beta,
    )


def _restricted_and_whole(monkeypatch, nodes):
    """Every node's results through the chunk task, and with each block the whole torus."""
    restricted = [r for results in theory._palm_map(nodes, 1) for r in results]
    with monkeypatch.context() as m:
        m.setattr(theory, "_palm_blocks", _whole_torus_blocks)
        whole = [r for results in theory._palm_map(nodes, 1) for r in results]
    return restricted, whole


def _flagged(node) -> int:
    """How many samples of a node draw no torus: their count is zero on every configuration."""
    *_, sampler, size = node
    return sum(1 for *_, draw in sampler(0, size) if not draw)


def _smallest_marks(count: int) -> list[int]:
    """Sample indices whose single-term Palm mark under seed 52 is among the smallest of 4000."""
    seeds = [derive_seed(52, i) for i in range(4000)]
    marks = [np.random.Generator(np.random.Philox(key=s)).uniform(MARK_FLOOR, 1.0) for s in seeds]
    return np.argsort(marks)[:count].tolist()


def test_sigma_terms_count_the_same_on_the_palm_neighbourhood(monkeypatch):
    base = ModelParams(0.3, 1.0, 100.0)
    single = partial(theory._sigma_samples, base, None, 8.0)
    smallest = _smallest_marks(4)
    product33 = partial(theory._centered_product, k=3, l=3)
    joint33 = partial(theory._joint_term, k=3, l=3)
    nodes = [
        (product33, 1, partial(single, 51, ()), 120),
        (product33, 1,
         lambda start, stop: [single(52, (), i, i + 1)[0] for i in smallest[start:stop]], 4),
        (partial(theory._centered_product, k=2, l=3), 1, partial(single, 51, ()), 40),
        # Joint terms with the second point close by and far out (|y| up to 200).
        (joint33, 1, partial(theory._sigma_samples, base, 4.0, 8.0, 51, ()), 120),
        (joint33, 1, partial(theory._sigma_samples, base, 200.0, 8.0, 51, ()), 120),
        (partial(theory._joint_term, k=2, l=3), 1,
         partial(theory._sigma_samples, base, 4.0, 8.0, 51, ()), 40),
        (partial(theory._joint_term, k=2, l=2), 1,
         partial(theory._sigma_samples, base, 30.0, 8.0, 51, ()), 400),
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, nodes)
    assert restricted == whole
    # The far node's flagged samples are its anchors alone, yet count as the whole torus.
    assert _flagged(nodes[4]) > 50
    counts = [out[0] if isinstance(out, tuple) else out for out in restricted]
    assert sum(1 for c in counts if c > 0) > 100
    # A joint count with the second point more than 10 from the first.
    assert any(isinstance(out, tuple) and out[0] > 0 and out[2] > 10.0 for out in restricted)


def test_neighbourhood_and_diff_samples_count_the_same(monkeypatch):
    # A chunk shares one gamma and beta, so each params takes its own count object.
    nodes = [
        (count, 1, partial(theory._at_anchors, params, [MarkedPoint(0.0, u)], 53, ()), 10)
        for params, count in (
            (ModelParams(0.3, 0.5, 1000.0), partial(theory._up_down_degrees)),
            (ModelParams(0.3, 1.0, 32.0), partial(theory._up_down_degrees)),
        )
        for u in (MARK_FLOOR, 0.01, 0.1, 0.9)
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, nodes)
    assert restricted == whole

    # One count per torus and clique size: a chunk holds one gamma and beta.
    through = {
        (n, k0): partial(theory._cliques_through, k_max=k0) for n in (16.0, 64.0) for k0 in (3, 4)
    }
    items = [
        (ModelParams(0.3, 1.0, 64.0), u, k0, power, 54, 6)
        for k0, power in ((3, 1.0), (4, 1.37))
        for u in (MARK_FLOOR, 0.05, 0.3)
    ]
    items += [(ModelParams(0.3, 1.0, 16.0), 0.0625, 3, 2.4, 55, 20)]
    nodes = [
        (through[params.torus_length, k0], 1,
         partial(theory._at_anchors, params, [MarkedPoint(0.0, u)], seed, ()), size)
        for params, u, k0, _, seed, size in items
    ]
    powers = [power for *_, power, _, size in items for _ in range(size)]
    restricted, whole = (
        [np.asarray(out, dtype=np.float64) ** power for out, power in zip(outs, powers)]
        for outs in _restricted_and_whole(monkeypatch, nodes)
    )
    assert all(a.tolist() == b.tolist() for a, b in zip(restricted, whole))
    assert sum(1 for a in restricted if a[2:].any()) > 20


def test_tree_root_samples_count_the_same(monkeypatch):
    specs = [
        tree_wedge(),
        tree_path(3),
        tree_path(4),
        DirectedTreeSpec(3, ((2, 1), (1, 3)), 1),  # one down step
        DirectedTreeSpec(4, ((1, 2), (2, 3), (4, 1)), 1),  # down, down
        DirectedTreeSpec(4, ((1, 2), (3, 2), (4, 3)), 1),  # depth 3
    ]
    # A chunk shares one gamma, so each (spec, params) takes its own count object.
    nodes = [
        (count, theory._tree_depth(spec),
         partial(theory._at_anchors, params, [MarkedPoint(0.0, u)], 56, ()), 5)
        for spec in specs
        for params in (ModelParams(0.1, 1.0, 64.0), ModelParams(0.3, 1.0, 32.0))
        for count in [partial(theory._tree_roots, spec=spec)]
        for u in (MARK_FLOOR, 0.01, 0.3, 0.9)
    ]
    restricted, whole = _restricted_and_whole(monkeypatch, nodes)
    assert restricted == whole
    assert sum(1 for out in restricted if out > 0) > 100


def test_palm_task_failure_names_its_seed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("counter failed")

    params = ModelParams(0.3, 1.0, 64.0)
    # (kernel that fails, estimator, seed of the first sample's configuration)
    cases = [
        ("_through",
         lambda: clique_diff_moment_profile(params, 3, (0.3, 0.1), replicates=4, seed=4),
         derive_seed(4, 7, 0, 0)),
        ("_centered",
         lambda: sigma_palm(params, 3, 3, mc_budget=8, seed=4),
         derive_seed(derive_seed(4, 1, 0), 1)),
        ("_rooted",
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


# -- random streams: one reset generator, seeds derived per run -----------------------


def _fresh(seed):
    return np.random.Generator(np.random.Philox(key=int(seed)))


def test_the_reset_generator_draws_what_a_fresh_generator_draws(monkeypatch):
    seeds = [derive_seed(71, i) for i in range(20000)]
    params = ModelParams(0.3, 1.0, 3.0)
    base = ModelParams(0.3, 1.0, 100.0)

    def draws():
        configs = [model._draw(params, s) for s in seeds]
        runs = [theory._sigma_samples(base, half, 8.0, 72, (t,), 0, 20000)
                for t, half in ((1, None), (2, 30.0))]
        marks = [[(a.x, a.u) for _, anchors, *_ in run for a in anchors] for run in runs]
        return configs, marks

    reset_configs, reset_marks = draws()
    with monkeypatch.context() as m:
        m.setattr(model, "_rng", _fresh)
        m.setattr(theory, "_rng", _fresh)
        fresh_configs, fresh_marks = draws()
    assert all(
        a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
        for a, b in zip(reset_configs, fresh_configs)
    )
    assert sum(len(c[0]) for c in reset_configs) > 50000
    # (0, u) for term one; (0, u) and (y, v) for term two.
    assert reset_marks == fresh_marks
    assert [len(m) for m in reset_marks] == [20000, 40000]


def test_a_draw_between_two_samples_of_a_run_changes_neither():
    base = ModelParams(0.3, 1.0, 100.0)
    params = ModelParams(0.3, 1.0, 64.0)
    run = partial(theory._sigma_samples, base, 30.0, 8.0, 73, (2,))
    both, alone = run(0, 2), sample_config(params, 74)
    first = run(0, 1)
    between = sample_config(params, 74)
    second = run(1, 2)
    assert first + second == both
    assert between == alone


def _stream_digest() -> str:
    """sha256 of a sampled torus, a sigma_palm estimate, neighbour counts and a wedge profile."""
    config = sample_config(ModelParams(0.3, 1.0, 64.0), 2024)
    sigma = sigma_palm(ModelParams(0.3, 1.0, 1000.0), 3, 3, mc_budget=40, seed=7)
    ups, downs = neighborhood_counts(ModelParams(0.3, 0.5, 1000.0), 0.1, 50, seed=8)
    wedge = tree_root_moment_profile(
        ModelParams(0.1, 1.0, 256.0), tree_wedge(), (0.3, 0.03), 20, seed=9
    )
    text = json.dumps([
        config.positions.tolist(), config.marks.tolist(),
        [sigma.value, sigma.std_error, *sigma.components],
        ups.tolist(), downs.tolist(),
        wedge.moments.tolist(), wedge.std_errors.tolist(),
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_random_streams_are_pinned():
    # Every Palm and replicate number rests on these streams, so this digest
    # changes only with a deliberate change of the streams, listed in CHANGES.md.
    assert _stream_digest() == "7956b80935b1ac354c852899dd4ca7de2dfacbd9512de3b756c1bd85a9d9a627"


# -- Palm chunks: boundaries by sample index ----------------------------------------


def _chunk_sizes(monkeypatch) -> list[list[int]]:
    """Record the sample count of every chunk task handed to parallel_map, per call."""
    seen = []
    dispatch = theory.parallel_map

    def recording(fn, items, threads=1):
        seen.append([sum(stop - start for _, start, stop in item[2]) for item in items])
        return dispatch(fn, items, threads)

    monkeypatch.setattr(theory, "parallel_map", recording)
    return seen


def _one_block(params, seed, anchors, hops) -> tuple:
    """The sample's configuration and its anchors' indices, as arguments of a counter."""
    config, idx = palm_config(params, seed, anchors, hops)
    return (config, *idx)


def _split(total: int) -> list[int]:
    return [theory._CHUNK] * (total // theory._CHUNK) + [total % theory._CHUNK] * (total % theory._CHUNK > 0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("size", [1, 255, 256, 257, 513])
def test_palm_chunks_count_each_sample_as_its_own_configuration(monkeypatch, size, threads):
    params = ModelParams(0.3, 1.0, 64.0)
    anchors = [MarkedPoint(0.0, 0.02)]
    seen = _chunk_sizes(monkeypatch)
    diff = partial(theory._cliques_through, k_max=3)
    roots = partial(theory._tree_roots, spec=tree_path(3))
    # A second node of the same count continues the first one's last chunk.
    nodes = [
        (diff, 1, partial(theory._at_anchors, params, anchors, 61, ()), size),
        (diff, 1, partial(theory._at_anchors, params, anchors, 62, ()), 3),
        (roots, 2, partial(theory._at_anchors, params, anchors, 63, ()), size),
    ]
    first, second, third = theory._palm_map(nodes, threads)
    assert seen == [_split(size + 3) + _split(size)]
    for seed, out in ((61, first), (62, second)):
        assert out == [
            diff1(*_one_block(params, derive_seed(seed, i), anchors, 1), 3)
            for i in range(len(out))
        ]
    assert third == [
        d_in(*_one_block(params, derive_seed(63, i), anchors, 2), tree_path(3))
        for i in range(size)
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_gamma_diagnostics_chunks_count_each_sample_as_its_own_configuration(monkeypatch, threads):
    params = ModelParams(0.3, 1.0, 16.0)
    seen = _chunk_sizes(monkeypatch)
    calls = []
    palm_map = theory._palm_map

    def recording(nodes, threads):
        calls.append((nodes, palm_map(nodes, threads)))
        return calls[-1][1]

    monkeypatch.setattr(theory, "_palm_map", recording)
    gamma_diagnostics(params, eta=1.2, mc_budget=600, seed=4, k0=2, threads=threads)
    [(nodes, results)] = calls
    # The 12 Gamma_3 marks and the 6 v marks, each a node at one anchor.
    assert len(nodes) == 18
    assert all(len(sampler(0, 1)[0][1]) == 1 for _, _, sampler, _ in nodes)
    assert seen == [_split(sum(size for *_, size in nodes))]
    checked = 0
    for (_, _, sampler, size), out in zip(nodes, results):
        for i, (p, anchors, seed, draw) in enumerate(sampler(0, size)):
            assert draw
            assert out[i] == diff1(*_one_block(p, seed, anchors, 1), 2)
            checked += 1
    assert checked == sum(size for *_, size in nodes)


def test_palm_estimators_check_marks_before_any_task_runs(monkeypatch):
    def no_dispatch(*args):
        raise AssertionError("a task was dispatched")

    monkeypatch.setattr(theory, "parallel_map", no_dispatch)
    params = ModelParams(0.3, 1.0, 64.0)
    with pytest.raises(ParameterError, match="mark must lie in"):
        clique_diff_moment_profile(params, 3, (0.3, 1.5), 4)
    with pytest.raises(ParameterError, match="mark must lie in"):
        neighborhood_counts(params, 0.0, 3)
    # Sizes too: a bad argument is refused by name, never blamed on a sample's seed.
    cases = [
        (lambda: clique_diff_moment_profile(params, 0, (0.3, 0.1), 4), "clique size must be >= 1"),
        (lambda: clique_diff_moment_profile(params, -1, (0.3, 0.1), 4), "clique size must be >= 1"),
        (lambda: gamma_diagnostics(ModelParams(0.3, 1.0, 16.0), 1.2, 600, k0=0),
         "clique size must be >= 1"),
        (lambda: gamma_diagnostics(ModelParams(0.3, 1.0, 16.0), 1.2, 600, k0=4),
         "clique sizes up to k0 = 3, got 4"),
        (lambda: clique_diff_moment_profile(params, 3, (0.3, 0.1), 1), "2 replicates or more"),
        (lambda: tree_root_moment_profile(params, tree_wedge(), (0.3, 0.1), 1),
         "2 replicates or more"),
        (lambda: neighborhood_counts(params, 0.1, -3), "1 replicate or more"),
        (lambda: neighborhood_counts(params, 0.1, 0), "1 replicate or more"),
        (lambda: log_slope((0.3, 0.3), (1.0, 2.0)), "two distinct marks"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError, match=message):
            call()


def _counted_draws(monkeypatch) -> list[int]:
    """Record the seed of every torus that model._draw draws."""
    seeds = []
    draw = model._draw

    def recording(params, seed):
        seeds.append(seed)
        return draw(params, seed)

    monkeypatch.setattr(model, "_draw", recording)
    return seeds


def test_a_flagged_sample_draws_no_torus(monkeypatch):
    base = ModelParams(0.3, 1.0, 100.0)
    node = (partial(theory._joint_term, k=3, l=3), 1,
            partial(theory._sigma_samples, base, 200.0, 8.0, 81, (2,)), 300)
    drawn = _counted_draws(monkeypatch)
    theory._palm_map([node], 1)
    samples = node[2](0, node[3])
    assert drawn == [seed for _, _, seed, draw in samples if draw]
    assert 0 < _flagged(node) < 300


class _FixedDraws:
    """A generator stand-in whose uniform draws are given in advance."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, low, high):
        return next(self.values)


def test_the_flag_boundaries_are_not_flagged(monkeypatch):
    # beta/u + beta/v = 2 + 4 at u = 0.5, v = 0.25, beta = 1.
    base = ModelParams(0.3, 1.0, 100.0)
    beyond = 6.0 * (1.0 + 2e-9)
    for y, draw in ((6.0, True), (-6.0, True), (beyond, False), (-beyond, False)):
        with monkeypatch.context() as m:
            m.setattr(theory, "_rng", lambda seed: _FixedDraws([0.5, 0.25, y]))
            [(_, anchors, _, flag)] = theory._sigma_samples(base, 30.0, 8.0, 1, (2,), 0, 1)
        assert (anchors[1].x, flag) == (y, draw)


@pytest.mark.parametrize("replicates", [0, 1])
def test_moment_profiles_need_two_replicates(replicates):
    params = ModelParams(0.1, 1.0, 64.0)
    with pytest.raises(ParameterError, match="2 replicates or more"):
        clique_diff_moment_profile(params, 3, (0.3, 0.1), replicates)
    with pytest.raises(ParameterError, match="2 replicates or more"):
        tree_root_moment_profile(params, tree_wedge(), (0.3, 0.1), replicates)
