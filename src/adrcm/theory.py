"""Closed-form targets, exact second differences and Monte Carlo estimators used as ground truth.

Neighborhood intensities have closed forms.  The second differences of the
clique counts at two points p = (0, u) and q = (y, v) have an exact law for
clique sizes up to 3: D^2 C_1 = 0, D^2 C_2 = 1{p~q} and D^2 C_3 = 1{p~q} M,
with M ~ Poisson(mu(u, y, v)) the number of common neighbours of p and q;
mu is a mark integral of arc overlaps on the torus, done by Gauss-Legendre
quadrature.  The limiting covariance density and the first-difference
moments are estimated by Palm sampling: deterministic extra points, the
anchors, are inserted into fresh configurations and local counts are
averaged.

Each Palm estimator lists its samples as nodes and counts them in one
dispatch.  A sample is (params, anchors, seed, draw): its configuration is
the anchors and the points of sample_config(params, seed) within a few graph
steps of them, on which every count equals its value on the whole torus
with the anchors inserted.  draw is False for a sample whose count is
provably zero on every configuration; its configuration is then its
anchors alone, and no torus is drawn for it (model._palm_blocks).  One rule
sets it, with its proof beside it in _sigma_samples: a term-two sample of
sigma_palm whose anchors lie more than beta/u + beta/v apart.

Consecutive samples with one count and hop range form a chunk task of at
most _CHUNK samples, cut by sample index alone.  A node's sampler gives a
run of consecutive samples at once, sampler(start, stop), and derives the
seeds of the run in one vectorized call.  A chunk takes its samples run by
run, draws and restricts each on its own stream, then lays the samples'
configurations side by side as the blocks of one index space, builds one
block-diagonal edge list and counts at every anchor with one kernel call;
the counts come back one per sample.  The samples, their seeds included,
are drawn inside the chunk, so the workers do that work.  Every stream is
drawn from the process's one generator, reset to the stream's seed
(model._rng), so a sample's draws end before the next begin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from ._parallel import parallel_map
from .cliques import _centered, _check_k, _joint, _through
from .harness import _check_replicate_count
from .model import (
    _REACH_SLACK,
    MarkedPoint,
    ModelParams,
    ParameterError,
    _block_adjacency,
    _derive_seeds,
    _palm_blocks,
    _rng,
    _torus_gap,
)
from .trees import _jackknife_se, _rooted

__all__ = [
    "RegimeError",
    "MARK_FLOOR",
    "lambda_up",
    "lambda_down",
    "SigmaEstimate",
    "sigma_palm",
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
    """Palm-formula estimate of the per-unit-length limiting clique covariance.

    components holds the single-point and the joint term, which sum to value.
    """

    value: float
    std_error: float
    components: tuple[float, float]
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.std_error > 0.0:
            raise ParameterError("std_error must be positive")
        t1, t2 = self.components
        if not math.isclose(t1 + t2, self.value, rel_tol=1e-12, abs_tol=1e-12):
            raise ParameterError("palm components must sum to the value")


def _window_half_width(params: ModelParams) -> float:
    return max(64.0, 8.0 * params.beta * MARK_FLOOR**-params.gamma)


def _centered_product(graph, blocks, k, l) -> list[float]:
    """Product of the k- and l-clique counts centered at each block's anchor."""
    counts = _centered(graph, blocks.anchors[:, 0], max(k, l)).tolist()
    return [float(c[k - 1] * c[l - 1]) for c in counts]


def _joint_term(graph, blocks, k, l) -> list[tuple[int, int, float]]:
    """(pairs, unions, |y|) per block: its joint clique counts and the second anchor's offset y."""
    counts = _joint(graph, blocks.anchors, k, l).tolist()
    offsets = blocks.positions[blocks.anchors[:, 1]].tolist()
    return [(pairs, unions, abs(y)) for (pairs, unions), y in zip(counts, offsets)]


def _sigma_samples(params, half, floor_width, seed, key, start, stop) -> list[tuple]:
    """Samples start..stop-1 of term one (half None) or two.

    Sample i draws its marks from the seed (seed, *key, i), and its
    configuration seed is that seed's child 1; each run derives both in one
    call.  The torus is at least floor_width and four times the reach of the
    counted cliques, which reproduces the infinite-volume count exactly in law.
    A term-two sample whose anchors lie more than beta/u + beta/v apart draws
    no torus: its joint count is zero on every configuration (proved in the
    comment below).  Its torus and seed are what they would be otherwise.
    """
    own = _derive_seeds(seed, key, np.arange(start, stop))
    samples = []
    for mark_seed, config_seed in zip(own.tolist(), _derive_seeds(own, (), 1).tolist()):
        rng = _rng(mark_seed)
        u = rng.uniform(MARK_FLOOR, 1.0)
        if half is None:
            # Every member of a clique centered at (0, u) connects to it.
            anchors, reach, draw = [MarkedPoint(0.0, u)], params.beta / u, True
        else:
            v = rng.uniform(MARK_FLOOR, 1.0)
            y = rng.uniform(-half, half)
            anchors = [MarkedPoint(0.0, u), MarkedPoint(y, v)]
            reach = max(params.beta / u, abs(y) + params.beta / v)
            # A clique centred at an anchor (its lowest-mark vertex) holds it
            # and up-neighbours within beta / (u^gamma w^(1-gamma)) <= beta/u
            # of it.  The torus below keeps the anchors |y| apart, so cliques
            # at (0, u) and (y, v) share no vertex once |y| > beta/u + beta/v,
            # and _joint gives (0, 0) for every k, l >= 1 (at k = 1 the
            # cliques are the two distinct anchors).  The slack _REACH_SLACK
            # keeps a sample on the bound drawn despite float rounding.
            draw = abs(y) <= (params.beta / u + params.beta / v) * (1.0 + _REACH_SLACK)
        torus = max(floor_width, 4.0 * reach)
        samples.append((ModelParams(params.gamma, params.beta, torus), anchors, config_seed, draw))
    return samples


def _check_mc_budget(mc_budget: int) -> None:
    """Term one draws a quarter of the budget, and its standard error needs two samples."""
    if mc_budget < 8:
        raise ParameterError(f"mc_budget must be >= 8, got {mc_budget}")


def sigma_palm(
    params: ModelParams,
    k: int,
    l: int,
    mc_budget: int,
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
    _check_k(k)
    _check_k(l)
    _check_mc_budget(mc_budget)
    big_l = _window_half_width(params)

    n_single = max(2, mc_budget // 4)
    n_joint = max(2, mc_budget - n_single)
    mass = 1.0 - MARK_FLOOR

    # The second point is drawn from a box twice as wide as L so that the
    # sensitivity of the truncated integral to 2L comes from the same stream.
    domain_half = 2.0 * big_l
    products, out = _palm_map(
        [
            (partial(count, k=k, l=l), 1,
             partial(_sigma_samples, params, half, 2.0 * big_l, seed, (term,)), size)
            for term, count, half, size in (
                (1, _centered_product, None, n_single),
                (2, _joint_term, domain_half, n_joint),
            )
        ],
        threads,
    )
    vals1 = np.asarray(products)
    term1 = mass * float(vals1.mean())
    se1 = mass * float(vals1.std(ddof=1) / math.sqrt(n_single))

    # float() first: a mean over int64 can differ in the last bit.
    pairs = np.asarray([float(o[0]) for o in out])
    unions = np.asarray([float(o[1]) for o in out])
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
        components=(term1, term2),
        details={
            "k": k,
            "l": l,
            "mark_floor": MARK_FLOOR,
            "window_half_width": big_l,
            "L": big_l,
            "adaptive_window": "torus = max(2W, 4*reach(marks))",
            "samples": (n_single, n_joint),
            "sensitivity": sens,
            "term2_distinct_unions": term2_unions,
            "joint_convention": "ordered-pairs",
        },
    )


# -- Palm chunks, neighborhoods and difference moments ---------------------------

# Consecutive Palm samples with one count and hop range are counted together,
# in chunks of at most this many.
_CHUNK = 256


def _palm_chunk(task):
    """Count one chunk (count, hops, runs, seed) of Palm samples, one result per sample.

    Each run (sampler, start, stop) stands for the samples sampler(start,
    stop), a list of (params, anchors, seed, draw).  Every sample is drawn
    and restricted on its own stream, or stands for its anchors alone when
    draw is False; the chunk then builds one edge list over all their blocks
    and counts at every anchor in one call of count, which takes the edge
    list and the blocks.  The task's seed, which names a failure, is its
    first sample's.
    """
    count, hops, runs, _ = task
    blocks = _palm_blocks([s for sampler, start, stop in runs for s in sampler(start, stop)], hops)
    return count(_block_adjacency(blocks), blocks)


def _palm_node(count, params, anchors, hops, replicates, seed, *key) -> tuple:
    """A node of samples at the same anchors; sample i's configuration seed is (seed, *key, i)."""
    return count, hops, partial(_at_anchors, params, anchors, seed, key), replicates


def _at_anchors(params, anchors, seed, key, start, stop) -> list[tuple]:
    """Samples start..stop-1 of a node at fixed anchors, their seeds derived in one call."""
    seeds = _derive_seeds(seed, key, np.arange(start, stop)).tolist()
    return [(params, anchors, s, True) for s in seeds]


def _mark_nodes(count, params, u_grid, hops, replicates, seed, key) -> list[tuple]:
    """Nodes at (0, u) for each mark u of the grid; the node at mark g takes the key (key, g)."""
    return [
        _palm_node(count, params, [MarkedPoint(0.0, float(u))], hops, replicates, seed, key, g)
        for g, u in enumerate(u_grid)
    ]


def _palm_map(nodes, threads) -> list[list]:
    """Count the samples of every node in one parallel_map call; results per node.

    A node (count, hops, sampler, size) stands for the samples
    sampler(0, size), which chunks take as runs sampler(start, stop).
    Consecutive samples of nodes with the same count object and hops share
    chunks of at most _CHUNK, so the chunk boundaries depend on the nodes
    alone, never on the worker count; the samples of one count have one
    number of anchors.
    """
    chunks, fill = [], _CHUNK
    for count, hops, sampler, size in nodes:
        start = 0
        while start < size:
            if fill == _CHUNK or chunks[-1][0] is not count or chunks[-1][1] != hops:
                chunks.append((count, hops, []))
                fill = 0
            stop = min(size, start + _CHUNK - fill)
            chunks[-1][2].append((sampler, start, stop))
            fill, start = fill + stop - start, stop
    # A chunk's seed is its first sample's, from a one-sample run: at fixed
    # anchors that derives one seed, in sigma_palm it also draws three marks.
    tasks = [
        (count, hops, runs, runs[0][0](runs[0][1], runs[0][1] + 1)[0][2])
        for count, hops, runs in chunks
    ]
    out = (r for chunk in parallel_map(_palm_chunk, tasks, threads) for r in chunk)
    return [list(islice(out, size)) for *_, size in nodes]


def _up_down_degrees(graph, blocks) -> list[tuple[int, int]]:
    """Higher- and lower-mark neighbour counts of each block's anchor."""
    indptr, indices = graph
    anchor = blocks.anchors[:, 0]
    up = np.diff(indptr)[anchor].tolist()
    down = np.bincount(indices, minlength=indptr.size - 1)[anchor].tolist()
    return list(zip(up, down))


def _cliques_through(graph, blocks, k_max) -> list[list[int]]:
    """Cliques of every size 1..k_max through each block's anchor; see cliques._through."""
    return _through(graph, blocks.anchors[:, 0], k_max).tolist()


def _tree_roots(graph, blocks, spec) -> list[int]:
    """Embeddings of the tree with its root at each block's anchor."""
    return _rooted(graph, spec, blocks.anchors[:, 0]).tolist()


def neighborhood_counts(
    params: ModelParams,
    u: float,
    replicates: int,
    seed: int = 0,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Higher/lower-mark neighbor counts of (0, u) over fresh configurations."""
    if replicates < 1:
        raise ParameterError(f"neighborhood counts need 1 replicate or more, got {replicates}")
    node = _palm_node(_up_down_degrees, params, [MarkedPoint(0.0, u)], 1, replicates, seed, 0)
    [out] = _palm_map([node], threads)
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
    if np.unique(x).size < 2:
        raise ParameterError("a log slope needs two distinct marks or more")
    y = np.log(np.asarray(values, dtype=np.float64))
    if np.any(~np.isfinite(y)):
        raise ParameterError("moment estimates must be positive for a log slope")
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _tree_depth(spec) -> int:
    """Graph steps from the root (0, u) to the deepest image of a tree vertex."""
    depth = [0]
    for _, parent_slot, _ in spec.plan:
        depth.append(depth[parent_slot] + 1)
    return max(depth)


def _profile(samples_per_u, u_grid, power) -> MomentProfile:
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
    _check_k(k)
    _check_replicate_count(replicates)  # before any task runs
    nodes = _mark_nodes(partial(_cliques_through, k_max=k), params, u_grid, 1, replicates, seed, 7)
    samples = [[s[k - 1] for s in node] for node in _palm_map(nodes, threads)]
    return _profile(samples, u_grid, power)


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
    _check_replicate_count(replicates)  # before any task runs
    count = partial(_tree_roots, spec=spec)
    nodes = _mark_nodes(count, params, u_grid, _tree_depth(spec), replicates, seed, 8)
    return _profile(_palm_map(nodes, threads), u_grid, power)


# -- exact second differences ----------------------------------------------


def _adjacent(params: ModelParams, u, y, v) -> np.ndarray:
    """1{p~q} for p = (0, u) and q = (y, v), element-wise; y is a difference of canonical positions.

    This is the kernel test of model._edges, which every edge list runs,
    operation for operation, with no slack, so that it agrees with the
    sampler on the kernel boundary too.  Keep the two apart, each pointing
    to the other: a rewrite through _arc would move float rounding at the
    boundary.  The powers run on arrays, as in _edges: numpy's scalar pow
    may differ in the last bit.
    """
    u, y, v = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (u, y, v)))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    d = _torus_gap(y.copy(), params.torus_length)
    return d * lo**params.gamma * hi ** (1.0 - params.gamma) <= params.beta


def _arc(params: ModelParams, log_a, t) -> np.ndarray:
    """Half-width, capped at n/2, of the arc joined to a point of log mark log_a at log mark t."""
    g = params.gamma
    radius = params.beta * np.exp((g - 1.0) * np.maximum(log_a, t) - g * np.minimum(log_a, t))
    return np.minimum(radius, 0.5 * params.torus_length)


def _common_mean(params: ModelParams, u, y, v, panels: int = 1) -> np.ndarray:
    """mu(u, y, v), the mean number of points joined to both (0, u) and (y, v), element-wise.

    mu = int_0^1 |A_u(w) cap (y + A_v(w))| dw, with A_a(w) the arc [-r, r]
    of r = _arc(a, w) on the circle of length n: the overlap is summed over
    the shifts -n, 0 and +n of q's arc, and a capped arc is the whole
    circle.  Gauss-Legendre panels, uniform in log w, lie between
    breakpoints at u, v and every mark where the integrand bends, so for
    gamma < 1/2, the finite-variance regime, it is smooth on each panel.
    Above 1/2 a bend between u and v can go unsplit, and the panels then
    converge more slowly.
    """
    n, g = params.torus_length, params.gamma
    # 16 Gauss-Legendre nodes per panel, computed per call: at import their
    # eigensolver would start the BLAS in every process.
    nodes, weights = np.polynomial.legendre.leggauss(16)
    gap = _torus_gap(np.array(y, dtype=float), n)
    log_u, gap, log_v = np.broadcast_arrays(np.log(u), gap, np.log(v))
    # A half-width falls with w on both sides of its own mark a, where it is
    # beta/a; below the lower cap mark both arcs are the whole circle.
    scale = math.log(2.0 * params.beta / n)
    caps = [
        np.minimum(np.where(scale >= m, (scale - g * m) / (1 - g), (scale + (g - 1) * m) / g), 0.0)
        for m in (log_u, log_v)
    ]
    bottom = np.maximum(np.minimum(*caps), math.log(1e-30))
    lo = np.minimum(log_u, log_v)
    pieces = np.stack((bottom, *caps, log_u, log_v, np.zeros_like(lo)), -1)
    pieces = np.sort(np.clip(pieces, bottom[..., None], 0.0), -1)
    # The overlap bends where a + b = gap or n - gap and where a - b = +-gap.
    # Each side is monotone between pieces (between the marks, for gamma < 1/2,
    # the arc of the lower mark falls faster), so bisection finds any root.
    signs = np.array([[1.0, 1.0, 1.0, -1.0], [1.0, 1.0, -1.0, 1.0]])
    level = np.stack((gap, n - gap, gap, gap), -1)[..., None, :]

    def excess(t):
        a, b = (_arc(params, m[..., None, None], t) for m in (log_u, log_v))
        return signs[0] * a + signs[1] * b - level

    low, high = (np.broadcast_to(t[..., None], level.shape[:-2] + t.shape[-1:] + (4,))
                 for t in (pieces[..., :-1], pieces[..., 1:]))
    start, above = low, excess(low) > 0.0
    bracketed = above != (excess(high) > 0.0)
    for _ in range(40):
        mid = 0.5 * (low + high)
        same = (excess(mid) > 0.0) == above
        low, high = np.where(same, mid, low), np.where(same, high, mid)
    # An interval without a root gives its left end, an empty panel.
    kinks = np.where(bracketed, low, start).reshape(lo.shape + (-1,))
    # Below both marks the integrand falls as a power of w; breaks graded
    # 4, 8, ..., 64 below the lower mark keep the deep panels short.
    deep = np.clip(lo[..., None] - 4.0 * 2.0 ** np.arange(5), bottom[..., None], 0.0)
    breaks = np.sort(np.concatenate((pieces, deep, kinks), -1), -1)
    width = np.diff(breaks, axis=-1)[..., None, None] / panels
    t = breaks[..., :-1, None, None] + width * (np.arange(panels)[:, None] + 0.5 + 0.5 * nodes)
    a, b = (_arc(params, m[..., None, None, None], t) for m in (log_u, log_v))
    gap = gap[..., None, None, None]
    overlap = sum(
        np.maximum(np.minimum(a, gap + s + b) - np.maximum(-a, gap + s - b), 0.0)
        for s in (-n, 0.0, n)
    )
    weight = 0.5 * width * weights * np.exp(t)
    return n * np.exp(bottom) + np.sum(weight * overlap, axis=(-3, -2, -1))


def _poisson_moment(mu, power: float) -> np.ndarray:
    """E[M^power] for M ~ Poisson(mu), element-wise, summed far into the tail; 0 at mu = 0."""
    mu = np.asarray(mu, dtype=np.float64)
    top = float(mu.max(initial=0.0))
    m = np.arange(1.0, math.ceil(top + 12.0 * math.sqrt(top) + 40.0))
    rate = np.where(mu > 0.0, mu, 1.0)[..., None]
    log_pmf = m * np.log(rate) - rate - np.cumsum(np.log(m))
    return np.where(mu > 0.0, np.sum(m**power * np.exp(log_pmf), axis=-1), 0.0)


# -- difference-moment diagnostics ------------------------------------------


@dataclass(frozen=True)
class GammaDiagnostics:
    """Values of the three difference-moment integrals and their standard errors."""

    gamma1: float
    gamma2: float
    gamma3: float
    se1: float
    se2: float
    se3: float
    eta: float
    details: dict = field(default_factory=dict)


def gamma_diagnostics(
    params: ModelParams,
    eta: float,
    mc_budget: int,
    seed: int = 0,
    k0: int = 3,
    threads: int = 1,
) -> GammaDiagnostics:
    """The three normalized integrals of the Malliavin-Stein bound, for clique sizes up to k0 <= 3.

    The integrals mix (2 eta)-th and (eta+1)-th moments of first and second
    difference counts on stratified (u, y, v) grids, integrated by
    midpoint/trapezoid rules.  The second differences are exact (module
    docstring), so Gamma_2 is exact on its grids and has SE 0.  The first
    differences are Palm Monte Carlo: Gamma_3 on its own mark grid, and the
    D_q factor of Gamma_1 on the v grid, whose SEs give se1 by the delta
    method.  Past k0 = 3 the second differences are not Poisson, and the
    call is refused.  Useful for comparing growth across torus lengths.
    """
    _check_k(k0)
    if k0 > 3:
        raise ParameterError(
            f"gamma_diagnostics takes clique sizes up to k0 = 3, got {k0}: "
            "the second differences of 4-cliques have no exact law here"
        )
    limit = max(2.0 * params.gamma, 1.0 - params.gamma)
    if not (1.0 < eta < 2.0) or eta * limit >= 1.0:
        raise ParameterError(
            f"eta={eta} infeasible for gamma={params.gamma}; "
            f"feasible interval (1.0, {min(2.0, 1.0 / limit)})"
        )
    n = params.torus_length
    g_u, g_v = 8, 6
    u_grid = (np.arange(g_u) + 0.5) / g_u
    v_grid = (np.arange(g_v) + 0.5) / g_v
    y_grid = [0.0, min(0.5, 0.5 * n)]  # y spans half the torus: less than 0.5 when n < 1
    while y_grid[-1] < 0.5 * n:
        y_grid.append(min(y_grid[-1] * 2.0, 0.5 * n))
    y_grid_arr = np.asarray(y_grid)

    nodes_12 = g_u * g_v * y_grid_arr.size
    r_node = max(16, mc_budget // (2 * nodes_12))
    g3_grid = (np.arange(12) + 0.5) / 12.0
    r3 = max(32, mc_budget // (2 * g3_grid.size))

    # One dispatch for every sample: first differences on the Gamma_3 marks
    # (power eta+1) and on the v grid for the D_q factor of Gamma_1 (power
    # 2 eta).
    diff1 = partial(_cliques_through, k_max=k0)
    tasks = (
        _mark_nodes(diff1, params, g3_grid, 1, r3, seed, 3)
        + _mark_nodes(diff1, params, v_grid, 1, r_node, seed, 4)
    )
    powers = [eta + 1.0] * g3_grid.size + [2.0 * eta] * g_v
    # The power goes on each sample's own float64 row: numpy's pow on a
    # stacked array may differ from it in the last bit.
    samples = [
        np.stack([np.asarray(s, dtype=np.float64) ** power for s in node])
        for power, node in zip(powers, _palm_map(tasks, threads))
    ]
    diff1_g3 = samples[: g3_grid.size]
    diff1_g1 = samples[g3_grid.size :]

    # Gamma_3: sum over k, l of the Hoelder-paired (eta+1) moments.
    a = 1.0 / (eta + 1.0)

    def g3_node(samples: np.ndarray) -> float:
        pos = np.maximum(samples.mean(axis=0), 0.0)
        return float(sum(pos[k] ** a * pos[l] ** (1.0 - a) for k in range(k0) for l in range(k0)))

    g3_vals = [g3_node(v) for v in diff1_g3]
    g3_ses = [_jackknife_se(g3_node, v, batches=10) for v in diff1_g3]
    gamma3 = float(np.mean(g3_vals))
    se3 = float(np.sqrt(np.nansum(np.asarray(g3_ses) ** 2)) / g3_grid.size)

    # The exact second differences at p = (0, u) and q = (y, v): entry k of the
    # (u, y, v, k) table is E[(D^2 C_(k+1))^(2 eta)].  The sums over (k, l) of
    # Gamma_1 and Gamma_2 factor, as sum_k sum_l x_k z_l = (sum x)(sum z), into
    # sums over k of E[(D_q C_k)^(2 eta)]^b and of E[(D^2 C_k)^(2 eta)]^b.
    b = 1.0 / (2.0 * eta)
    u_n, y_n, v_n = np.meshgrid(u_grid, y_grid_arr, v_grid, indexing="ij")
    table = np.zeros(u_n.shape + (k0,))
    table[..., 1:] = _adjacent(params, u_n, y_n, v_n)[..., None]
    if k0 == 3:
        table[..., 2] *= _poisson_moment(_common_mean(params, u_n, y_n, v_n), 2.0 * eta)
    second = np.sum(table**b, axis=-1)

    # Twice the trapezoid rule over y of the midpoint rule over v.
    weight = 2.0 * np.trapezoid(second, y_grid_arr, axis=1) / g_v  # (g_u, g_v)
    inner_g2 = 2.0 * np.trapezoid(np.mean(second**2, axis=2), y_grid_arr, axis=1)
    k_mean = np.stack([s.mean(axis=0) for s in diff1_g1])  # (g_v, k0)
    k_weight = k_mean**b
    inner_g1 = weight @ k_weight.sum(axis=1)
    gamma1 = float(np.mean(inner_g1**eta))
    gamma2 = float(np.mean(inner_g2**eta))

    # Delta method: gamma1 is linear to first order in each v node's sample
    # means, whose samples are independent across v.
    slope = np.divide(b * k_weight, k_mean, out=np.zeros_like(k_mean), where=k_mean > 0.0)
    k_se = np.array([
        float((s @ d).std(ddof=1)) / math.sqrt(s.shape[0]) for s, d in zip(diff1_g1, slope)
    ])
    grad = eta * inner_g1 ** (eta - 1.0) @ weight / g_u
    se1 = float(np.sqrt(np.sum((grad * k_se) ** 2)))

    return GammaDiagnostics(
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        se1=se1,
        se2=0.0,
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
