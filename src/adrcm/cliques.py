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
    _transpose,
    _with_point,
    connects,
    neighborhood_adjacency,
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


def count_cliques_upto(config: PointConfig, k_max: int) -> list[int]:
    """Totals for every clique size 1..k_max in a single listing pass."""
    _check_k(k_max)
    levels = _clique_levels(neighborhood_adjacency(config), np.arange(len(config)), k_max)
    return [len(level) for level in levels]


def count_cliques_centered(config: PointConfig, p: MarkedPoint, k_max: int) -> list[int]:
    """Cliques of every size 1..k_max whose lowest-mark vertex is p, from one listing.

    p is inserted first when absent, which is the Palm evaluation of a count
    at a deterministic extra point.
    """
    _check_k(k_max)
    config, idx = _with_point(config, p)
    levels = _clique_levels(neighborhood_adjacency(config), np.array([idx]), k_max)
    return [len(level) for level in levels]


def _through(config: PointConfig, members: list[int], k_max: int) -> list[int]:
    """Cliques of sizes 1..k_max that contain every listed point index.

    The lowest-mark vertex of a clique through the first member is that
    member or one of its lower-mark neighbours, so the listing starts there.
    """
    graph = neighborhood_adjacency(config)
    down_ptr, down_idx = _transpose(*graph)
    first = members[0]
    seeds = np.concatenate(([first], down_idx[down_ptr[first] : down_ptr[first + 1]]))
    counts = []
    for level in _clique_levels(graph, seeds, k_max):
        hit = np.ones(len(level), dtype=bool)
        for m in members:
            hit &= (level == m).any(axis=1)
        counts.append(int(hit.sum()))
    return counts


def diff1_clique_upto(config: PointConfig, u: float, k_max: int) -> list[int]:
    """Add-one differences of the k-clique counts for the extra point (0, u).

    Entry k-1 is the number of k-cliques through (0, u) in the augmented
    configuration, for every size 1..k_max from one listing and without a
    full recount.  (0, u) is inserted when absent; a configuration that
    already holds it, as a Palm configuration holds its anchors, gives the
    difference of removing it.
    """
    _check_k(k_max)
    config, idx = _with_point(config, MarkedPoint(0.0, u))
    return _through(config, [idx], k_max)


def diff2_clique_upto(config: PointConfig, u: float, q: MarkedPoint, k_max: int) -> list[int]:
    """Second-order differences: k-cliques containing both (0, u) and q.

    Entry k-1 equals the four-term count F(P+p+q) - F(P+p) - F(P+q) + F(P),
    for every size 1..k_max from one listing.  Each added point is inserted
    when absent, as in :func:`diff1_clique_upto`.
    """
    _check_k(k_max)
    params = config.params
    p0 = MarkedPoint(0.0, u)
    q = MarkedPoint(wrap_position(q.x, params.torus_length), q.u)
    if p0 == q:
        raise ParameterError("the two added points must differ")
    if k_max == 1 or not connects(p0, q, params):
        return [0] * k_max
    config, _ = _with_point(config, q)
    config, idx = _with_point(config, p0)
    return _through(config, [idx, config.index_of(q)], k_max)


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
    graph = neighborhood_adjacency(config)
    up_degree = np.diff(graph[0])
    if up_degree[p_idx] < k - 1 or up_degree[q_idx] < l - 1:
        return 0, 0  # no clique at p or at q; most Palm samples stop here
    rows_p = _clique_levels(graph, np.array([p_idx]), k)[k - 1]
    rows_q = _clique_levels(graph, np.array([q_idx]), l)[l - 1]
    # One vertex-incidence row per clique; two cliques meet where these overlap.
    inc_p = np.zeros((len(rows_p), len(config)), dtype=bool)
    inc_q = np.zeros((len(rows_q), len(config)), dtype=bool)
    inc_p[np.arange(len(rows_p))[:, None], rows_p] = True
    inc_q[np.arange(len(rows_q))[:, None], rows_q] = True
    meet_p, meet_q = np.nonzero(inc_p.astype(np.int64) @ inc_q.T.astype(np.int64))
    unions = {row.tobytes() for row in inc_p[meet_p] | inc_q[meet_q]}
    return int(meet_p.size), len(unions)
