"""Independent brute-force oracles: exhaustive enumeration, no shared code paths.

Everything here works from first principles on explicit point lists, so the
package's CSR edge list, level-wise clique listing and tree embeddings are
checked against plain O(N^2) / O(N^k) scans.
"""

from __future__ import annotations

import itertools

import numpy as np

from adrcm.model import MarkedPoint, ModelParams, PointConfig


def config_from_points(params: ModelParams, points, seed: int = 0) -> PointConfig:
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    us = np.asarray([p[1] for p in points], dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    return PointConfig(params, xs[order], us[order], seed)


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
