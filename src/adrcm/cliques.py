"""Exact clique counting and first/second add-one difference counts.

Every k-clique has a unique lowest-mark vertex, its *center*.  All counters
here list cliques level by level along the mark orientation of the graph's
CSR edge list: a j-clique is a row of j vertices in increasing mark order,
and it grows into (j+1)-cliques by the higher-mark neighbours of its last
vertex that are adjacent to every earlier vertex, so each clique is listed
exactly once, from its center (ordered listing after Chiba and Nishizeki).
Counts are plain Python integers and therefore never wrap.
"""

from __future__ import annotations

import numpy as np

from .model import (
    MarkedPoint,
    ParameterError,
    PointConfig,
    _csr_contains,
    _csr_rows,
    _local_adjacency,
    add_point,
    connects,
    down_neighbors,
    neighborhood_adjacency,
    up_neighbors,
    wrap_position,
)

__all__ = [
    "count_cliques_upto",
    "count_cliques_centered",
    "diff1_clique_upto",
    "diff2_clique_upto",
    "joint_clique_counts",
]


def _check_k(k: int) -> None:
    if k < 1:
        raise ParameterError(f"clique size must be >= 1, got {k}")


def _clique_levels(
    graph: tuple[np.ndarray, np.ndarray], seeds: np.ndarray, k_max: int
) -> list[np.ndarray]:
    """Cliques whose lowest-mark vertex is a seed, one array per size 1..k_max.

    Level j is a (count, j) array with one clique per row in mark order.  A
    row extends by each entry of its last vertex's CSR row that is also an
    entry of the CSR row of every earlier vertex.
    """
    indptr, indices = graph
    level = seeds[:, None]
    levels = [level]
    for _ in range(k_max - 1):
        parent, cand = _csr_rows(indptr, indices, level[:, -1])
        for col in range(level.shape[1] - 1):
            ok = _csr_contains(indptr, indices, level[parent, col], cand)
            parent, cand = parent[ok], cand[ok]
        level = np.column_stack([level[parent], cand])
        levels.append(level)
    return levels


def _clique_counts(graph: tuple[np.ndarray, np.ndarray], k_max: int) -> list[int]:
    """Clique counts of a whole CSR graph for sizes 1..k_max (none for 0)."""
    seeds = np.arange(graph[0].size - 1)
    return [len(level) for level in _clique_levels(graph, seeds, k_max)][:k_max]


def _cone_counts(config: PointConfig, neighbourhood: np.ndarray, k_max: int) -> list[int]:
    """Cliques of sizes 1..k_max through one vertex, from its neighbourhood.

    A j-clique through the vertex is the vertex plus a (j-1)-clique of the
    graph induced on its neighbourhood, given as a sorted index array.
    """
    return [1] + _clique_counts(_local_adjacency(config, neighbourhood), k_max - 1)


def count_cliques_upto(config: PointConfig, k_max: int) -> list[int]:
    """Totals for every clique size 1..k_max in a single listing pass."""
    _check_k(k_max)
    return _clique_counts(neighborhood_adjacency(config), k_max)


def _member_or_inserted(config: PointConfig, p: MarkedPoint) -> tuple[PointConfig, int]:
    canon = MarkedPoint(wrap_position(p.x, config.params.torus_length), p.u)
    idx = config.index_of(canon)
    if idx >= 0:
        return config, idx
    aug = add_point(config, canon)
    return aug, aug.index_of(canon)


def count_cliques_centered(config: PointConfig, p: MarkedPoint, k: int) -> int:
    """Number of k-cliques whose lowest-mark vertex is p.

    p is inserted first when absent, which is the Palm evaluation of a count
    at a deterministic extra point.
    """
    _check_k(k)
    cfg, idx = _member_or_inserted(config, p)
    return _cone_counts(cfg, up_neighbors(cfg, cfg.point(idx)), k)[k - 1]


def _neighbourhood(config: PointConfig, p: MarkedPoint) -> np.ndarray:
    """Sorted indices of the configuration points adjacent to p."""
    return np.sort(np.concatenate([up_neighbors(config, p), down_neighbors(config, p)]))


def diff1_clique_upto(config: PointConfig, u: float, k_max: int) -> list[int]:
    """Add-one differences of the k-clique counts for the extra point (0, u).

    Entry k-1 is the number of k-cliques through (0, u) in the augmented
    configuration, for every size 1..k_max from one neighborhood scan and
    without a full recount.
    """
    _check_k(k_max)
    p0 = MarkedPoint(0.0, u)
    if config.index_of(p0) >= 0:
        raise ParameterError("(0, u) already belongs to the configuration")
    return _cone_counts(config, _neighbourhood(config, p0), k_max)


def diff2_clique_upto(config: PointConfig, u: float, q: MarkedPoint, k_max: int) -> list[int]:
    """Second-order differences: k-cliques containing both (0, u) and q.

    Entry k-1 equals the four-term count F(P+p+q) - F(P+p) - F(P+q) + F(P),
    for every size 1..k_max from one common-neighborhood scan.
    """
    _check_k(k_max)
    params = config.params
    p0 = MarkedPoint(0.0, u)
    q = MarkedPoint(wrap_position(q.x, params.torus_length), q.u)
    if config.index_of(p0) >= 0 or config.index_of(q) >= 0:
        raise ParameterError("added points must not belong to the configuration")
    if p0 == q:
        raise ParameterError("the two added points must differ")
    if k_max == 1 or not connects(p0, q, params):
        return [0] * k_max
    common = np.intersect1d(_neighbourhood(config, p0), _neighbourhood(config, q))
    return [0] + _cone_counts(config, common, k_max - 1)


def joint_clique_counts(
    config: PointConfig, p: MarkedPoint, q: MarkedPoint, k: int, l: int
) -> tuple[int, int]:
    """Intersecting (k-clique at p, l-clique at q) pairs, and distinct unions.

    Returns ``(pairs, unions)`` where ``pairs`` counts ordered pairs (A, B)
    with A a k-clique centered at p, B an l-clique centered at q and
    A and B sharing at least one point, while ``unions`` counts the distinct
    point sets A | B arising that way.
    """
    _check_k(k)
    _check_k(l)
    p_idx = config.index_of(p)
    q_idx = config.index_of(q)
    if p_idx < 0 or q_idx < 0:
        raise ParameterError("both query points must belong to the configuration")
    if p_idx == q_idx:
        raise ParameterError("query points must differ")
    ups_p = up_neighbors(config, p)
    ups_q = up_neighbors(config, q)
    if ups_p.size < k - 1 or ups_q.size < l - 1:
        return 0, 0  # no clique at p or at q; most Palm samples stop here
    universe = np.unique(np.concatenate([ups_p, ups_q, [p_idx, q_idx]]))
    graph = _local_adjacency(config, universe)
    at_p, at_q = np.searchsorted(universe, [p_idx, q_idx])
    rows_p = _clique_levels(graph, np.array([at_p]), k)[k - 1]
    rows_q = _clique_levels(graph, np.array([at_q]), l)[l - 1]
    # One vertex-incidence row per clique; two cliques meet where these overlap.
    inc_p = np.zeros((len(rows_p), universe.size), dtype=bool)
    inc_q = np.zeros((len(rows_q), universe.size), dtype=bool)
    inc_p[np.arange(len(rows_p))[:, None], rows_p] = True
    inc_q[np.arange(len(rows_q))[:, None], rows_q] = True
    meet_p, meet_q = np.nonzero(inc_p.astype(np.int64) @ inc_q.T.astype(np.int64))
    unions = {row.tobytes() for row in inc_p[meet_p] | inc_q[meet_q]}
    return int(meet_p.size), len(unions)
