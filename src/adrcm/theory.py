"""Closed-form targets and Monte Carlo estimators used as ground truth.

Neighborhood intensities and the pair-overlap kernel have exact expressions;
the limiting covariance density and the difference-moment integrals are
estimated by Palm sampling: a deterministic extra point is inserted into
fresh configurations and local counts are averaged.

Each Palm task draws the whole torus from its seed, exactly as
``sample_config`` would, but counts on the neighbourhood of its anchors (the
added points): the anchors and the drawn points within as many graph steps
of them as the counted structure spans are kept, so every count equals its
value on the whole torus with the anchors inserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ._parallel import parallel_map
from .cliques import (
    count_cliques_centered,
    diff1_clique_upto,
    diff2_clique_upto,
    joint_clique_counts,
)
from .model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    _palm_config,
    derive_seed,
    neighborhood_adjacency,
)
from .trees import _assignment_plan, _jackknife_se, d_in

__all__ = [
    "RegimeError",
    "MARK_FLOOR",
    "lambda_up",
    "lambda_down",
    "SigmaEstimate",
    "sigma_palm",
    "sigma_direct_from_samples",
    "GammaDiagnostics",
    "gamma_diagnostics",
    "neighborhood_counts",
    "MomentProfile",
    "clique_diff_moment_profile",
    "tree_root_moment_profile",
    "log_slope",
]

# Palm points never carry a mark below this floor; the induced truncation is
# reported alongside every estimate that uses it.  At 1e-5 the omitted tail of
# the u^(-2 gamma)-type integrands stays well below the Monte Carlo standard
# errors for every gamma < 1/2.
MARK_FLOOR = 1e-5


class RegimeError(ParameterError):
    """The requested quantity is undefined in this parameter regime."""


def _regime_bound(leaves: int | None = None) -> float:
    """Supremum of the finite-variance gamma range: 1/2 for cliques, 1/(2 leaves) for trees."""
    return 0.5 if leaves is None else 1.0 / (2.0 * max(leaves, 1))


def lambda_up(u: float, params: ModelParams) -> float:
    """Mean number of higher-mark neighbors of a point with mark u.

    Exact infinite-volume value (2 beta / gamma) (u^-gamma - 1); the small-u
    coefficient is c_+ = 2 beta / gamma.
    """
    if not (0.0 < u <= 1.0):
        raise ParameterError(f"mark must lie in (0, 1], got {u}")
    g = params.gamma
    return (2.0 * params.beta / g) * (u**-g - 1.0)


def lambda_down(params: ModelParams) -> float:
    """Mean number of lower-mark neighbors; independent of the mark."""
    return 2.0 * params.beta / (1.0 - params.gamma)


# -- limiting covariance density -------------------------------------------


@dataclass(frozen=True)
class SigmaEstimate:
    """Estimate of the per-unit-length limiting clique covariance."""

    value: float
    std_error: float
    method: str  # "palm-formula" | "direct-covariance"
    components: tuple[float, float] | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.std_error > 0.0:
            raise ParameterError("std_error must be positive")
        if self.method == "palm-formula":
            t1, t2 = self.components
            if not math.isclose(t1 + t2, self.value, rel_tol=1e-12, abs_tol=1e-12):
                raise ParameterError("palm components must sum to the value")


def _window_half_width(params: ModelParams) -> float:
    return max(64.0, 8.0 * params.beta * MARK_FLOOR**-params.gamma)


def _single_term_sample(base, k, l, floor_width, seed) -> float:
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.uniform(MARK_FLOOR, 1.0)
    # Every member of a clique centered at (0, u) connects to it, hence lies
    # within beta/u; a torus of four times that radius reproduces the
    # infinite-volume count exactly in law.  The whole torus is drawn from
    # the seed, but only (0, u) and its neighbours are kept for the count.
    torus = max(floor_width, 4.0 * base.beta / u)
    params = ModelParams(base.gamma, base.beta, torus)
    palm = MarkedPoint(0.0, u)
    config = _palm_config(params, derive_seed(seed, 1), [palm], 1)
    counts = count_cliques_centered(config, palm, max(k, l))
    return float(counts[k - 1] * counts[l - 1])


def _joint_term_sample(base, k, l, half, floor_width, seed) -> tuple[float, float, float]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.uniform(MARK_FLOOR, 1.0)
    v = rng.uniform(MARK_FLOOR, 1.0)
    y = rng.uniform(-half, half)
    # All relevant points sit within max(beta/u, |y| + beta/v) of the origin.
    reach = max(base.beta / u, abs(y) + base.beta / v)
    torus = max(floor_width, 4.0 * reach)
    params = ModelParams(base.gamma, base.beta, torus)
    palm = MarkedPoint(0.0, u)
    other = MarkedPoint(y, v)
    config = _palm_config(params, derive_seed(seed, 1), [palm, other], 1)
    pairs, unions = joint_clique_counts(config, palm, other, k, l)
    return float(pairs), float(unions), abs(y)


def _sigma_sample(args):
    """One Palm sample of either term; joint-term items carry the box half-width."""
    base, k, l, half, floor_width, seed = args
    if half is None:
        return _single_term_sample(base, k, l, floor_width, seed)
    return _joint_term_sample(base, k, l, half, floor_width, seed)


def sigma_palm(
    params: ModelParams,
    k: int,
    l: int,
    mc_budget: int,
    window_half_width: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> SigmaEstimate:
    """Two-term Palm-formula estimate of the limiting covariance density.

    Term one averages products of centered clique counts at a uniformly marked
    extra point; term two integrates the joint-clique count over a second
    point placed uniformly in a box of half-width L around the first, scaled
    by the box measure.  Infinite volume is realized by per-sample tori large
    enough to contain every point that can enter the counted structures, so
    the only systematic truncation left is the reported mark floor.
    """
    if params.gamma >= _regime_bound():
        raise RegimeError(
            f"finite-variance regime needs gamma < 1/2, got {params.gamma}"
        )
    if k < 1 or l < 1:
        raise ParameterError("clique sizes must be >= 1")
    if mc_budget < 8:
        raise ParameterError("mc_budget too small")
    w = _window_half_width(params)
    big_l = float(window_half_width) if window_half_width is not None else w
    if big_l <= 0.0:
        raise ParameterError("window_half_width must be positive")

    n_single = max(2, mc_budget // 4)
    n_joint = max(2, mc_budget - n_single)
    mass = 1.0 - MARK_FLOOR

    base = ModelParams(params.gamma, params.beta, params.torus_length)
    # The second point is drawn from a box twice as wide as L so that the
    # sensitivity of the truncated integral to 2L comes from the same stream.
    domain_half = 2.0 * big_l
    tasks = [(base, k, l, None, 2.0 * w, derive_seed(seed, 1, i)) for i in range(n_single)]
    tasks += [
        (base, k, l, domain_half, 2.0 * w, derive_seed(seed, 2, i)) for i in range(n_joint)
    ]
    samples = parallel_map(_sigma_sample, tasks, threads)
    vals1 = np.asarray(samples[:n_single])
    term1 = mass * float(vals1.mean())
    se1 = mass * float(vals1.std(ddof=1) / math.sqrt(n_single))

    out = samples[n_single:]
    pairs = np.asarray([o[0] for o in out])
    unions = np.asarray([o[1] for o in out])
    dist = np.asarray([o[2] for o in out])
    scale = mass * mass * 2.0 * domain_half

    def joint_estimate(values: np.ndarray, limit: float) -> tuple[float, float]:
        inside = values * (dist <= limit)
        est = scale * float(inside.mean())
        se = scale * float(inside.std(ddof=1) / math.sqrt(inside.size))
        return est, se

    term2, se2 = joint_estimate(pairs, big_l)
    term2_unions, _ = joint_estimate(unions, big_l)
    sens = {
        "half_L": term1 + joint_estimate(pairs, 0.5 * big_l)[0],
        "double_L": term1 + joint_estimate(pairs, 2.0 * big_l)[0],
    }

    std_error = math.hypot(se1, se2)
    if std_error == 0.0:
        # Degenerate constant integrand: the mark-floor truncation is the
        # only remaining uncertainty.
        std_error = MARK_FLOOR
    return SigmaEstimate(
        value=term1 + term2,
        std_error=std_error,
        method="palm-formula",
        components=(term1, term2),
        details={
            "k": k,
            "l": l,
            "mark_floor": MARK_FLOOR,
            "window_half_width": w,
            "L": big_l,
            "adaptive_window": "torus = max(2W, 4*reach(marks))",
            "samples": (n_single, n_joint),
            "sensitivity": sens,
            "term2_distinct_unions": term2_unions,
            "joint_convention": "ordered-pairs",
        },
    )


def sigma_direct_from_samples(
    samples_k: np.ndarray, samples_l: np.ndarray, torus_length: float
) -> SigmaEstimate:
    """Direct replicate-based estimate Cov(totals_k, totals_l) / n.

    Standard error by leave-one-batch-out jackknife over replicates.
    """
    xs = np.asarray(samples_k, dtype=np.float64)
    ys = np.asarray(samples_l, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 4:
        raise ParameterError("need two aligned sample vectors of length >= 4")

    def stat(pairs: np.ndarray) -> float:
        return float(np.cov(pairs[:, 0], pairs[:, 1], ddof=1)[0, 1] / torus_length)

    pairs = np.column_stack((xs, ys))
    se = _jackknife_se(stat, pairs)
    return SigmaEstimate(
        value=stat(pairs),
        std_error=max(se, np.finfo(float).tiny),
        method="direct-covariance",
        details={"replicates": xs.size, "torus_length": torus_length},
    )


# -- Palm sampling of neighborhoods and difference moments -------------------


def _neighborhood_sample(args) -> tuple[int, int]:
    params, u, seed = args
    palm = MarkedPoint(0.0, u)
    config = _palm_config(params, seed, [palm], 1)
    indptr, indices = neighborhood_adjacency(config)
    idx = config.index_of(palm)
    return int(indptr[idx + 1] - indptr[idx]), int(np.count_nonzero(indices == idx))


def neighborhood_counts(
    params: ModelParams,
    u: float,
    replicates: int,
    seed: int = 0,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Higher/lower-mark neighbor counts of (0, u) over fresh configurations."""
    tasks = [(params, u, derive_seed(seed, 0, i)) for i in range(replicates)]
    out = parallel_map(_neighborhood_sample, tasks, threads)
    ups = np.asarray([o[0] for o in out], dtype=np.int64)
    downs = np.asarray([o[1] for o in out], dtype=np.int64)
    return ups, downs


@dataclass(frozen=True)
class MomentProfile:
    """Estimated Palm moments across a grid of marks."""

    u_grid: tuple[float, ...]
    moments: np.ndarray
    std_errors: np.ndarray
    power: float
    label: str

    @property
    def slope(self) -> float:
        return log_slope(self.u_grid, self.moments)


def _exact_law_check(profile: MomentProfile, target) -> dict:
    """Check a moment profile against its exact law, mark by mark and in slope.

    Each grid moment must lie within 3 SE of its target, and the profile's
    slope within 3 slope-SEs of the target's own grid slope.  The slope SE is
    the delta-method SE of a slope linear in the log moments, which are
    independent across grid marks.
    """
    target = np.asarray(target, dtype=np.float64)
    z = (profile.moments - target) / profile.std_errors
    max_z = float(np.max(np.abs(z)))
    exact_slope = log_slope(profile.u_grid, target)
    xc = np.log(1.0 / np.asarray(profile.u_grid))
    xc -= xc.mean()
    weights = xc / np.dot(xc, xc)
    slope_se = float(np.sqrt(np.sum((weights * profile.std_errors / profile.moments) ** 2)))
    return {
        "target": target.tolist(),
        "z": z.tolist(),
        "max_abs_z": max_z,
        "exact_slope": exact_slope,
        "slope_se": slope_se,
        "marks_ok": max_z <= 3.0,
        "slope_ok": abs(profile.slope - exact_slope) <= 3.0 * slope_se,
    }


def log_slope(u_grid, values) -> float:
    """Least-squares slope of log(values) against log(1/u)."""
    x = np.log(1.0 / np.asarray(u_grid, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    if np.any(~np.isfinite(y)):
        raise ParameterError("moment estimates must be positive for a log slope")
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _diff_sample(args) -> np.ndarray:
    """Add-one (q None) or add-two difference counts of sizes 1..k0, powered."""
    params, u, q, k0, power, seed = args
    # q is an anchor too, so the configuration holds it and a q drawn as a
    # point is refused.
    anchors = [MarkedPoint(0.0, u)] + ([] if q is None else [q])
    config = _palm_config(params, seed, anchors, 1)
    if q is None:
        counts = diff1_clique_upto(config, u, k0)
    else:
        counts = diff2_clique_upto(config, u, q, k0)
    return np.asarray(counts, dtype=np.float64) ** power


def _tree_root_sample(args) -> int:
    params, u, spec, seed = args
    # Each tree vertex maps at most its depth below the root in graph steps
    # from (0, u).
    depth = [0]
    for _, parent_slot, _ in _assignment_plan(spec):
        depth.append(depth[parent_slot] + 1)
    root = MarkedPoint(0.0, u)
    return d_in(_palm_config(params, seed, [root], max(depth)), root, spec)


def _map_nodes(task_fn, tasks_per_node, threads) -> list[list]:
    """Map the tasks of every node in one parallel_map call; results per node."""
    out = iter(parallel_map(task_fn, [t for tasks in tasks_per_node for t in tasks], threads))
    return [list(islice(out, len(tasks))) for tasks in tasks_per_node]


def _profile(samples_per_u, u_grid, power, label) -> MomentProfile:
    means = np.empty(len(u_grid))
    ses = np.empty(len(u_grid))
    for i, samples in enumerate(samples_per_u):
        # Python float powers (libm pow): numpy's vectorized pow may differ
        # from it in the last bit at non-integer powers.
        vals = np.asarray([float(x) ** power for x in samples])
        means[i] = vals.mean()
        ses[i] = vals.std(ddof=1) / math.sqrt(vals.size)
    return MomentProfile(
        u_grid=tuple(float(u) for u in u_grid),
        moments=means,
        std_errors=ses,
        power=power,
        label=label,
    )


def clique_diff_moment_profile(
    params: ModelParams,
    k: int,
    u_grid,
    replicates: int,
    power: float = 2.0,
    seed: int = 0,
    threads: int = 1,
) -> MomentProfile:
    """E[(add-one clique difference)^power] at each mark of the grid."""
    tasks_per_u = [
        [(params, float(u), None, k, 1.0, derive_seed(seed, 7, gi, i)) for i in range(replicates)]
        for gi, u in enumerate(u_grid)
    ]
    samples = [[s[k - 1] for s in node] for node in _map_nodes(_diff_sample, tasks_per_u, threads)]
    return _profile(samples, u_grid, power, f"diff1_k{k}")


def tree_root_moment_profile(
    params: ModelParams,
    spec,
    u_grid,
    replicates: int,
    power: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> MomentProfile:
    """E[(rooted embedding count)^power] at each mark of the grid."""
    tasks_per_u = [
        [(params, float(u), spec, derive_seed(seed, 8, gi, i)) for i in range(replicates)]
        for gi, u in enumerate(u_grid)
    ]
    return _profile(_map_nodes(_tree_root_sample, tasks_per_u, threads), u_grid, power, "tree_root")


# -- difference-moment diagnostics ------------------------------------------


@dataclass(frozen=True)
class GammaDiagnostics:
    """Monte Carlo values of the three difference-moment integrals."""

    gamma1: float
    gamma2: float
    gamma3: float
    se1: float
    se2: float
    se3: float
    eta: float
    details: dict = field(default_factory=dict)


def _feasible_eta_interval(gamma: float) -> tuple[float, float]:
    limit = max(2.0 * gamma, 1.0 - gamma)
    return 1.0, 1.0 / limit


def gamma_diagnostics(
    params: ModelParams,
    eta: float,
    mc_budget: int,
    seed: int = 0,
    k0: int = 3,
    threads: int = 1,
) -> GammaDiagnostics:
    """Trend-level Monte Carlo estimates of the three normalized integrals.

    The integrals mix (2 eta)-th and (eta+1)-th moments of first and second
    difference counts; moments are estimated on stratified (u, y, v) grids
    and integrated by midpoint/trapezoid rules.  Useful for comparing growth
    across torus lengths, not for tight numerics.
    """
    lo, hi = _feasible_eta_interval(params.gamma)
    if not (1.0 < eta < 2.0) or eta * max(2.0 * params.gamma, 1.0 - params.gamma) >= 1.0:
        raise ParameterError(
            f"eta={eta} infeasible for gamma={params.gamma}; "
            f"feasible interval ({lo}, {min(2.0, hi)})"
        )
    n = params.torus_length
    g_u, g_v = 8, 6
    u_grid = (np.arange(g_u) + 0.5) / g_u
    v_grid = (np.arange(g_v) + 0.5) / g_v
    y_grid = [0.0, 0.5]
    while y_grid[-1] < 0.5 * n:
        y_grid.append(min(y_grid[-1] * 2.0, 0.5 * n))
    y_grid_arr = np.asarray(y_grid)

    nodes_12 = g_u * g_v * y_grid_arr.size
    r_node = max(16, mc_budget // (2 * nodes_12))
    g3_grid = (np.arange(12) + 0.5) / 12.0
    r3 = max(32, mc_budget // (2 * g3_grid.size))

    # One dispatch for every sample: first differences on the Gamma_3 marks
    # (power eta+1) and on the v grid for the D_q factor of Gamma_1 (power
    # 2 eta), then second differences on every (u, y, v) node (power 2 eta).
    nodes = list(np.ndindex(g_u, y_grid_arr.size, g_v))
    specs = (
        [(u, None, eta + 1.0, r3, (3, gi)) for gi, u in enumerate(g3_grid)]
        + [(v, None, 2.0 * eta, r_node, (4, gi)) for gi, v in enumerate(v_grid)]
        + [
            (u_grid[gi], MarkedPoint(float(y_grid_arr[yi]), float(v_grid[vi])), 2.0 * eta,
             r_node, (5, gi, yi, vi))
            for gi, yi, vi in nodes
        ]
    )
    tasks = [
        [(params, float(u), q, k0, power, derive_seed(seed, *key, i)) for i in range(reps)]
        for u, q, power, reps, key in specs
    ]
    samples = [np.stack(s) for s in _map_nodes(_diff_sample, tasks, threads)]
    diff1_g3 = samples[: g3_grid.size]
    diff1_g1 = samples[g3_grid.size : g3_grid.size + g_v]

    # Gamma_3: sum over k, l of the Hoelder-paired (eta+1) moments.
    a = 1.0 / (eta + 1.0)

    def g3_node(samples: np.ndarray) -> float:
        pos = np.maximum(samples.mean(axis=0), 0.0)
        return float(sum(pos[k] ** a * pos[l] ** (1.0 - a) for k in range(k0) for l in range(k0)))

    g3_vals = [g3_node(v) for v in diff1_g3]
    g3_ses = [_jackknife_se(g3_node, v, batches=10) for v in diff1_g3]
    gamma3 = float(np.mean(g3_vals))
    se3 = float(np.sqrt(np.nansum(np.asarray(g3_ses) ** 2)) / g3_grid.size)

    # Second-difference moments on the (u, y, v) grid.
    b = 1.0 / (2.0 * eta)
    j_mean = np.zeros((g_u, y_grid_arr.size, g_v, k0))
    j_se = np.zeros_like(j_mean)
    for node, vals in zip(nodes, samples[g3_grid.size + g_v :]):
        j_mean[node] = vals.mean(axis=0)
        j_se[node] = vals.std(ddof=1, axis=0) / math.sqrt(vals.shape[0])

    k_mean = np.stack([v.mean(axis=0) for v in diff1_g1])  # (g_v, k0)

    def integrate(f: np.ndarray) -> float:
        """Twice the trapezoid rule over y of the midpoint rule over v."""
        return 2.0 * float(np.trapezoid(f.mean(axis=1), y_grid_arr))

    def inner(terms) -> tuple[np.ndarray, np.ndarray]:
        """Integrate over q = (y, v) for each u; returns value and SE per u.

        terms(gi, k, l) gives the (y, v) integrand and its SE term.
        """
        vals = np.zeros(g_u)
        ses = np.zeros(g_u)
        for gi in range(g_u):
            total = 0.0
            var = 0.0
            for k in range(k0):
                for l in range(k0):
                    f, df = terms(gi, k, l)
                    total += integrate(f)
                    var += integrate(df) ** 2
            vals[gi] = total
            ses[gi] = math.sqrt(var)
        return vals, ses

    k_weight = np.maximum(k_mean, 0.0) ** b  # E[(D_q C_k)^{2 eta}]^{1/(2 eta)}
    inner_g1, se_g1 = inner(
        lambda gi, k, l: (
            k_weight[:, k][None, :] * np.maximum(j_mean[gi, :, :, l], 0.0) ** b,
            b * np.maximum(j_mean[gi, :, :, l], 1e-300) ** (b - 1.0) * j_se[gi, :, :, l]
            * k_weight[:, k][None, :],
        )
    )
    inner_g2, se_g2 = inner(
        lambda gi, k, l: (
            np.maximum(j_mean[gi, :, :, k], 0.0) ** b * np.maximum(j_mean[gi, :, :, l], 0.0) ** b,
            2.0 * b * np.maximum(j_mean[gi, :, :, k], 1e-300) ** (b - 1.0) * j_se[gi, :, :, k],
        )
    )

    def outer(vals: np.ndarray, ses: np.ndarray) -> tuple[float, float]:
        powered = vals**eta
        est = float(powered.mean())
        dse = eta * np.maximum(vals, 1e-300) ** (eta - 1.0) * ses
        return est, float(np.sqrt(np.sum(dse**2)) / vals.size)

    gamma1, se1 = outer(inner_g1, se_g1)
    gamma2, se2 = outer(inner_g2, se_g2)

    return GammaDiagnostics(
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        se1=se1,
        se2=se2,
        se3=se3,
        eta=eta,
        details={
            "k0": k0,
            "torus_length": n,
            "u_grid": u_grid.tolist(),
            "v_grid": v_grid.tolist(),
            "y_grid": y_grid_arr.tolist(),
            "samples_per_node": r_node,
            "samples_per_mark": r3,
        },
    )
