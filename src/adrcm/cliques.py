"""Exact clique counting and first/second add-one difference counts.

Every k-clique has a unique lowest-mark vertex, its *center*.  All counters
here list cliques level by level along the mark orientation of the graph's
CSR edge list: a j-clique is a row of j vertices in increasing mark order,
and it grows into (j+1)-cliques by the higher-mark neighbours of its last
vertex that are adjacent to every earlier vertex, so each clique is listed
exactly once, from its center (ordered listing after Chiba and Nishizeki).
Counts are plain Python integers and therefore never wrap.

Point-level counts take vertex indices of the configuration they are given.
A Palm configuration holds its anchors, so a count at an extra point is a
count at that anchor's index.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ParameterError,
    PointConfig,
    _check_index,
    _csr_contains,
    _csr_rows,
    _transpose,
    connects,
    neighborhood_adjacency,
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


def count_cliques_centered(config: PointConfig, i: int, k_max: int) -> list[int]:
    """Cliques of every size 1..k_max whose lowest-mark vertex is vertex i, from one listing."""
    _check_k(k_max)
    center = np.array([_check_index(config, i)])
    return [len(level) for level in _clique_levels(neighborhood_adjacency(config), center, k_max)]


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


def diff1_clique_upto(config: PointConfig, i: int, k_max: int) -> list[int]:
    """Cliques of every size 1..k_max through vertex i, from one listing.

    Entry k-1 is the add-one difference of the k-clique count at vertex i:
    the count with it less the count without it, found without a recount.
    """
    _check_k(k_max)
    return _through(config, [_check_index(config, i)], k_max)


def diff2_clique_upto(config: PointConfig, i: int, j: int, k_max: int) -> list[int]:
    """Cliques of every size 1..k_max through both vertices i and j, from one listing.

    Entry k-1 equals the second-order difference F(P+x+y) - F(P+x) - F(P+y)
    + F(P) of the k-clique count, with x and y vertices i and j and P the
    configuration without them.
    """
    _check_k(k_max)
    i, j = _check_index(config, i), _check_index(config, j)
    if i == j:
        raise ParameterError(f"the two vertices must differ, got {i} twice")
    if k_max == 1 or not connects(config.point(i), config.point(j), config.params):
        return [0] * k_max
    return _through(config, [i, j], k_max)


def joint_clique_counts(
    config: PointConfig, i: int, j: int, k: int, l: int
) -> tuple[int, int]:
    """Intersecting (k-clique at vertex i, l-clique at vertex j) pairs, and distinct unions.

    Returns ``(pairs, unions)`` where ``pairs`` counts ordered pairs (A, B)
    with A a k-clique centered at i, B an l-clique centered at j and
    A and B sharing at least one point, while ``unions`` counts the distinct
    point sets A | B arising that way.
    """
    _check_k(k)
    _check_k(l)
    i, j = _check_index(config, i), _check_index(config, j)
    if i == j:
        raise ParameterError(f"the two vertices must differ, got {i} twice")
    graph = neighborhood_adjacency(config)
    up_degree = np.diff(graph[0])
    if up_degree[i] < k - 1 or up_degree[j] < l - 1:
        return 0, 0  # no clique at i or at j; most Palm samples stop here
    rows_i = _clique_levels(graph, np.array([i]), k)[k - 1]
    rows_j = _clique_levels(graph, np.array([j]), l)[l - 1]
    # One vertex-incidence row per clique; two cliques meet where these overlap.
    inc_i = np.zeros((len(rows_i), len(config)), dtype=bool)
    inc_j = np.zeros((len(rows_j), len(config)), dtype=bool)
    inc_i[np.arange(len(rows_i))[:, None], rows_i] = True
    inc_j[np.arange(len(rows_j))[:, None], rows_j] = True
    meet_i, meet_j = np.nonzero(inc_i.astype(np.int64) @ inc_j.T.astype(np.int64))
    unions = {row.tobytes() for row in inc_i[meet_i] | inc_j[meet_j]}
    return int(meet_i.size), len(unions)
