"""Closed-form targets against quadrature and high-precision oracles."""

import math
from concurrent.futures import ProcessPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate

from adrcm import theory
from adrcm.harness import ReplicateFailure
from adrcm.model import MarkedPoint, ModelParams, ParameterError, derive_seed, sample_config
from adrcm.theory import (
    MARK_FLOOR,
    GammaDiagnostics,
    RegimeError,
    SigmaEstimate,
    c_plus,
    clique_diff_moment_profile,
    gamma_diagnostics,
    lambda_down,
    lambda_up,
    log_slope,
    neighborhood_counts,
    rate_exponents,
    s_wedge,
    sigma_direct_from_samples,
    sigma_palm,
    tree_root_moment_profile,
)
from adrcm.trees import tree_wedge


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
    assert c_plus(params) == pytest.approx(4.0)
    # the asymptotic coefficient dominates at rate u^gamma as u -> 0
    u = 1e-9
    assert lambda_up(u, params) == pytest.approx(
        c_plus(params) * u**-0.25, rel=2.0 * u**0.25
    )


# -- overlap kernel -------------------------------------------------------------


def test_s_wedge_support_cutoff():
    assert s_wedge(0.5, 4.0001, 0.3) == 0.0


def test_s_wedge_saturates_at_one():
    assert s_wedge(0.5, 0.5, 0.3) == 1.0
    assert s_wedge(0.9, 0.0, 0.3) == 1.0


def test_s_wedge_high_precision_value():
    got = s_wedge(0.01, 100.0, 0.25)
    with mpmath.workdps(50):
        expect = (mpmath.mpf("0.01") ** mpmath.mpf("0.25") * 100) ** (
            -1 / (1 - mpmath.mpf("0.25"))
        )
    assert got == pytest.approx(float(expect), rel=1e-12)
    assert got == pytest.approx(0.01, rel=1e-10)


def test_s_wedge_monotone_and_bounded():
    gamma = 0.3
    us = np.linspace(0.01, 1.0, 25)
    rs = np.linspace(0.0, 10.0, 40)
    for u in us:
        vals = [s_wedge(float(u), float(r), gamma) for r in rs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for r in rs:
        vals = [s_wedge(float(u), float(r), gamma) for u in us]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# -- rate exponents ---------------------------------------------------------------


def test_rate_exponents_feasibility_accept():
    exps = rate_exponents(0.3, eta=1.2)
    assert exps.eta == 1.2  # 1.2 * max(0.6, 0.7) = 0.84 < 1
    assert exps.zeta == pytest.approx(min(0.7, 0.4 / 0.3))


def test_rate_exponents_feasibility_reject_with_interval():
    with pytest.raises(RegimeError) as err:
        rate_exponents(0.45, eta=1.2)  # 1.2 * 0.9 = 1.08 >= 1
    assert "1.111" in str(err.value)


def test_rate_exponents_regime_gate():
    with pytest.raises(RegimeError):
        rate_exponents(0.5)


def test_rate_exponents_continuous_and_in_range():
    grid = np.linspace(0.01, 0.49, 97)
    zetas = []
    taus = []
    for g in grid:
        exps = rate_exponents(float(g))
        assert exps.zeta > 0.0
        assert 0.0 < exps.tau < 1.0
        assert exps.eta * max(2.0 * g, 1.0 - g) < 1.0
        zetas.append(exps.zeta)
        taus.append(exps.tau)
    assert np.max(np.abs(np.diff(zetas))) < 0.2
    assert np.max(np.abs(np.diff(taus))) < 0.05


# -- sigma estimators ---------------------------------------------------------------


def test_sigma_palm_singletons_near_one():
    params = ModelParams(0.3, 1.0, 100.0)
    est = sigma_palm(params, 1, 1, mc_budget=400, seed=5)
    # C_1(u) = 1 identically: only the mark floor separates the value from 1.
    assert est.components[1] == 0.0
    assert abs(est.value - 1.0) <= 3.0 * est.std_error + 2.0 * MARK_FLOOR
    assert est.method == "palm-formula"


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
        SigmaEstimate(value=1.0, std_error=0.0, method="direct-covariance")
    with pytest.raises(ParameterError):
        SigmaEstimate(value=1.0, std_error=0.1, method="palm-formula", components=(0.2, 0.2))


def test_sigma_direct_poisson_counts():
    # k = 1 clique counts are Poisson(n): Var/n must sit near 1.
    params = ModelParams(0.3, 1.0, 400.0)
    counts = np.array(
        [len(sample_config(params, derive_seed(3, i))) for i in range(600)],
        dtype=np.float64,
    )
    est = sigma_direct_from_samples(counts, counts, params.torus_length)
    assert est.method == "direct-covariance"
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


def test_gamma_diagnostics_worker_independent_in_one_pool(monkeypatch):
    params = ModelParams(0.3, 1.0, 16.0)
    serial = gamma_diagnostics(params, eta=1.2, mc_budget=600, seed=4, k0=2)
    started = _count_pools(monkeypatch)
    parallel = gamma_diagnostics(params, eta=1.2, mc_budget=600, seed=4, k0=2, threads=2)
    assert len(started) == 1
    fields = ("gamma1", "gamma2", "gamma3", "se1", "se2", "se3")
    assert [getattr(parallel, f) for f in fields] == [getattr(serial, f) for f in fields]
    assert parallel.details == serial.details


def test_moment_profile_worker_independent_in_one_pool(monkeypatch):
    params = ModelParams(0.3, 1.0, 64.0)
    serial = clique_diff_moment_profile(params, 3, (0.3, 0.1), replicates=40, power=1.37, seed=2)
    started = _count_pools(monkeypatch)
    parallel = clique_diff_moment_profile(
        params, 3, (0.3, 0.1), replicates=40, power=1.37, seed=2, threads=2
    )
    assert len(started) == 1
    assert parallel.moments.tolist() == serial.moments.tolist()
    assert parallel.std_errors.tolist() == serial.std_errors.tolist()


def test_palm_task_failure_names_its_seed(monkeypatch):
    def broken(config, u, k_max):
        raise RuntimeError("counter failed")

    monkeypatch.setattr(theory, "diff1_clique_upto", broken)
    with pytest.raises(ReplicateFailure) as err:
        clique_diff_moment_profile(ModelParams(0.3, 1.0, 64.0), 3, (0.3, 0.1), replicates=4, seed=4)
    assert err.value.seed == derive_seed(4, 7, 0, 0)
    assert "counter failed" in str(err.value)
