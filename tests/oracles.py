"""Independent brute-force oracles: exhaustive enumeration, no shared code paths.

Everything here works from first principles on explicit point lists, so the
package's CSR edge list, level-wise clique listing and tree embeddings are
checked against plain O(N^2) / O(N^k) scans.  Point insertion, the standard
tree specs and the statistical references at the end (the direct covariance
estimate, the Poisson chi-square test and the looped bootstrap) are used by
the tests only.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
from scipy import stats

from adrcm.harness import MIN_TEST_SAMPLES, DegenerateSampleError
from adrcm.model import MarkedPoint, ModelParams, ParameterError, PointConfig, wrap_position
from adrcm.trees import DirectedTreeSpec, validate_tree


def config_from_points(params: ModelParams, points, seed: int = 0) -> PointConfig:
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    us = np.asarray([p[1] for p in points], dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    return PointConfig(params, xs[order], us[order], seed)


def index_of(config: PointConfig, p: MarkedPoint) -> int:
    """Index of the point equal to p, or -1 if absent."""
    hits = np.flatnonzero((config.positions == p.x) & (config.marks == p.u))
    return int(hits[0]) if hits.size else -1


def add_point(config: PointConfig, p: MarkedPoint) -> tuple[PointConfig, int]:
    """config with p inserted after the points of equal position, and p's index there.

    The position wraps onto the torus first; a point already present is
    refused, as marks must be distinct.
    """
    p = MarkedPoint(wrap_position(p.x, config.params.torus_length), p.u)
    if index_of(config, p) >= 0:
        raise ParameterError(f"duplicate point ({p.x}, {p.u}); marks must be distinct")
    points = list(zip(config.positions.tolist(), config.marks.tolist())) + [(p.x, p.u)]
    grown = config_from_points(config.params, points, config.seed)
    return grown, index_of(grown, p)


def add_points(config: PointConfig, points) -> tuple[PointConfig, list[int]]:
    """config with the points inserted in order, and each one's index in the result."""
    for p in points:
        config, _ = add_point(config, p)
    n = config.params.torus_length
    return config, [index_of(config, MarkedPoint(wrap_position(p.x, n), p.u)) for p in points]


def random_config(params: ModelParams, rng: np.random.Generator, max_points: int) -> PointConfig:
    count = int(rng.integers(0, max_points + 1))
    half = 0.5 * params.torus_length
    xs = rng.uniform(-half, half, size=count)
    us = 1.0 - rng.random(count)
    return config_from_points(params, list(zip(xs, us)), seed=0)


def dist_oracle(x: float, y: float, n: float) -> float:
    return min(abs(x - y + k * n) for k in (-2, -1, 0, 1, 2))


def connected_oracle(a: tuple[float, float], b: tuple[float, float], params: ModelParams) -> bool:
    d = dist_oracle(a[0], b[0], params.torus_length)
    lo, hi = min(a[1], b[1]), max(a[1], b[1])
    return d * lo**params.gamma * hi ** (1.0 - params.gamma) <= params.beta


def _key(config: PointConfig, idx: int) -> tuple[float, int]:
    return (float(config.marks[idx]), idx)


def neighbors_oracle(config: PointConfig, p: MarkedPoint, member_index: int | None = None):
    """Full scan split into (higher-mark, lower-mark) neighbor index lists."""
    p_key = (p.u, member_index if member_index is not None else -1)
    ups, downs = [], []
    for i in range(len(config)):
        if member_index is not None and i == member_index:
            continue
        if not connected_oracle((p.x, p.u), (config.positions[i], config.marks[i]), config.params):
            continue
        if _key(config, i) > p_key:
            ups.append(i)
        else:
            downs.append(i)
    return ups, downs


def cliques_oracle(config: PointConfig, k: int) -> tuple[int, dict[int, int]]:
    """All k-subsets, pairwise-connection check; centers keyed by lowest mark."""
    n = len(config)
    per_center: dict[int, int] = {i: 0 for i in range(n)}
    total = 0
    pts = [(config.positions[i], config.marks[i]) for i in range(n)]
    for combo in itertools.combinations(range(n), k):
        if all(
            connected_oracle(pts[a], pts[b], config.params)
            for a, b in itertools.combinations(combo, 2)
        ):
            total += 1
            center = min(combo, key=lambda i: _key(config, i))
            per_center[center] += 1
    return total, per_center


def cliques_containing_oracle(config: PointConfig, members: tuple[int, ...], k: int) -> int:
    """k-cliques that include all the given member indices."""
    n = len(config)
    pts = [(config.positions[i], config.marks[i]) for i in range(n)]
    rest = [i for i in range(n) if i not in members]
    total = 0
    for extra in itertools.combinations(rest, k - len(members)):
        combo = tuple(members) + extra
        if all(
            connected_oracle(pts[a], pts[b], config.params)
            for a, b in itertools.combinations(combo, 2)
        ):
            total += 1
    return total


def centered_cliques_oracle(config: PointConfig, center: int, k: int) -> list[frozenset[int]]:
    """Explicit list of k-cliques whose lowest-mark vertex is the center."""
    n = len(config)
    pts = [(config.positions[i], config.marks[i]) for i in range(n)]
    found = []
    others = [i for i in range(n) if i != center and _key(config, i) > _key(config, center)]
    for extra in itertools.combinations(others, k - 1):
        combo = (center,) + extra
        if all(
            connected_oracle(pts[a], pts[b], config.params)
            for a, b in itertools.combinations(combo, 2)
        ):
            found.append(frozenset(combo))
    return found


def joint_cliques_oracle(config: PointConfig, p_idx: int, q_idx: int, k: int, l: int) -> tuple[int, int]:
    """Ordered intersecting clique pairs and distinct unions, by double loop."""
    a_list = centered_cliques_oracle(config, p_idx, k)
    b_list = centered_cliques_oracle(config, q_idx, l)
    pairs = 0
    unions = set()
    for a in a_list:
        for b in b_list:
            if a & b:
                pairs += 1
                unions.add(a | b)
    return pairs, len(unions)


def d_in_oracle(config: PointConfig, root_point: tuple[float, float], spec, member_index: int | None = None) -> int:
    """Exhaustive injective assignments of tree vertices to points.

    The root maps to root_point; every directed tree edge i -> j must be
    realized by a connection whose i-image has the strictly higher mark
    (index-tie-broken like the library).
    """
    m = spec.vertex_count
    n = len(config)
    pts = [(config.positions[i], config.marks[i]) for i in range(n)]
    keys = [(config.marks[i], i) for i in range(n)]
    root_key = (root_point[1], member_index if member_index is not None else -1)
    candidates = [i for i in range(n) if member_index is None or i != member_index]
    count = 0
    non_root = [v for v in range(1, m + 1) if v != spec.root]
    for images in itertools.permutations(candidates, m - 1):
        assign = dict(zip(non_root, images))

        def point_of(v):
            return root_point if v == spec.root else pts[assign[v]]

        def key_of(v):
            return root_key if v == spec.root else keys[assign[v]]

        ok = True
        for i, j in spec.edges:
            if not (key_of(i) > key_of(j)):
                ok = False
                break
            if not connected_oracle(point_of(i), point_of(j), config.params):
                ok = False
                break
        if ok:
            count += 1
    return count


def count_trees_oracle(config: PointConfig, spec) -> int:
    total = 0
    for i in range(len(config)):
        total += d_in_oracle(
            config, (config.positions[i], config.marks[i]), spec, member_index=i
        )
    return total


# -- block covariances -----------------------------------------------------------
# The per-lag covariance table and per-cutoff tail coefficient as first
# written: every lag, cutoff and jackknife subsample centres the replicate
# matrix anew.  The one-pass lag_covariance_table must equal them bit for bit.


def _cyclic_lag_cov_reference(centered: np.ndarray, lag: int) -> float:
    r, n = centered.shape
    rolled = np.roll(centered, -lag, axis=1)
    return float(np.sum(centered * rolled) / (n * (r - 1)))


def _jackknife_reference(stat, matrix: np.ndarray, batches: int = 20) -> float:
    r = matrix.shape[0]
    b = min(batches, r)
    if b < 2:
        return float("nan")
    bounds = np.linspace(0, r, b + 1, dtype=int)
    estimates = []
    for i in range(b):
        keep = np.ones(r, dtype=bool)
        keep[bounds[i] : bounds[i + 1]] = False
        estimates.append(stat(matrix[keep]))
    est = np.asarray(estimates)
    return float(np.sqrt((b - 1) / b * np.sum((est - est.mean(axis=0)) ** 2, axis=0)))


def lag_covariance_oracle(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lags 1..n//2, covariances, jackknife SEs) of an r x n block matrix."""
    matrix = np.asarray(blocks).astype(np.float64)
    lags = np.arange(1, matrix.shape[1] // 2 + 1)

    def cov_at(m: np.ndarray, lag: int) -> float:
        centered = m - m.mean(axis=0, keepdims=True)
        return _cyclic_lag_cov_reference(centered, lag)

    covs = np.array([cov_at(matrix, int(l)) for l in lags])
    ses = np.array(
        [_jackknife_reference(lambda mm, _l=int(l): cov_at(mm, _l), matrix) for l in lags]
    )
    return lags, covs, ses


def cox_grimmett_oracle(blocks, k: int) -> tuple[float, float]:
    """u_n(k) = 2 * sum over lags k .. ceil(n/2) - 1 of the lag covariance, with its SE."""
    matrix = np.asarray(blocks).astype(np.float64)
    half = (matrix.shape[1] + 1) // 2

    def stat(m: np.ndarray) -> float:
        centered = m - m.mean(axis=0, keepdims=True)
        return 2.0 * sum(_cyclic_lag_cov_reference(centered, lag) for lag in range(k, half))

    return stat(matrix), _jackknife_reference(stat, matrix)


# -- standard trees ---------------------------------------------------------------


def tree_edge() -> DirectedTreeSpec:
    """Single directed edge into the root."""
    return validate_tree(DirectedTreeSpec(2, ((2, 1),), 1))


def tree_wedge() -> DirectedTreeSpec:
    """Two leaves pointing at a common lower-mark root."""
    return validate_tree(DirectedTreeSpec(3, ((2, 1), (3, 1)), 1))


def tree_path(vertex_count: int) -> DirectedTreeSpec:
    """Directed chain m -> m-1 -> ... -> 1 rooted at 1."""
    edges = tuple((v + 1, v) for v in range(1, vertex_count))
    return validate_tree(DirectedTreeSpec(vertex_count, edges, 1))


def tree_star(leaves: int) -> DirectedTreeSpec:
    """Root 1 with the given number of direct higher-mark leaves."""
    edges = tuple((v, 1) for v in range(2, leaves + 2))
    return validate_tree(DirectedTreeSpec(leaves + 1, edges, 1))


# -- statistical references ---------------------------------------------------------


class DirectEstimate(NamedTuple):
    value: float
    std_error: float


def sigma_direct_from_samples(
    samples_k: np.ndarray, samples_l: np.ndarray, torus_length: float
) -> DirectEstimate:
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
    se = _jackknife_reference(stat, pairs)
    return DirectEstimate(stat(pairs), max(se, np.finfo(float).tiny))


def poisson_chi_square(counts: np.ndarray, mean: float) -> tuple[float, float]:
    """Chi-square goodness of fit of integer counts to a Poisson law.

    Cells with expected mass below 5 are pooled into the tail; the mean is
    given, not estimated, so degrees of freedom are cells - 1.
    """
    c = np.asarray(counts)
    if c.size < MIN_TEST_SAMPLES:
        raise DegenerateSampleError("too few counts for a chi-square test")
    top = int(c.max())
    observed = np.bincount(c.astype(np.int64), minlength=top + 1).astype(np.float64)
    expected = stats.poisson.pmf(np.arange(top + 1), mean) * c.size
    # Everything above the observed maximum belongs to the last cell's tail.
    expected[-1] += stats.poisson.sf(top, mean) * c.size
    while expected.size > 1 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    dof = expected.size - 1
    if dof < 1:
        raise DegenerateSampleError("not enough occupied cells for a chi-square test")
    return statistic, float(stats.chi2.sf(statistic, dof))


def bootstrap_ci_looped(samples: np.ndarray, stat_fn, seed: int) -> tuple[float, float]:
    """The percentile bootstrap as first written: one draw and one stat_fn call per resample."""
    x = np.asarray(samples)
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = np.empty(1000)
    for b in range(1000):
        values[b] = stat_fn(x[rng.integers(0, x.size, size=x.size)])
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)
