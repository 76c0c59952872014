"""Exact clique counting, centred, joint and add-one difference counts.

Every k-clique has a unique lowest-mark vertex, its *center*.  All counters
here list cliques level by level along the mark orientation of the graph's
CSR edge list: level j holds the j-cliques as j contiguous vertex columns,
column c the (c+1)-th lowest-mark vertex of each clique.  A j-clique grows
into (j+1)-cliques by the higher-mark neighbours of its last vertex that are
adjacent to every earlier vertex, so each clique is listed exactly once,
from its center (ordered listing after Chiba and Nishizeki).  Adjacency is
tested on one membership table per listing (model._RowSpans), one boolean
cell per index between each CSR row's first and last entry, shared by every
earlier column of every level.  count_cliques_upto counts its last level
without building its columns.  Counts are plain Python integers and
therefore never wrap.

The point-level kernels (_centered, _through, _joint) count at rows of
vertex indices of one edge list; the Palm estimators call them once per
chunk of samples, with each sample's anchors as the indices.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ParameterError,
    PointConfig,
    _csr_rows,
    _RowSpans,
    _spans,
    _transpose,
    neighborhood_adjacency,
)

__all__ = ["count_cliques_upto"]


def _check_k(k: int) -> None:
    if k < 1:
        raise ParameterError(f"clique size must be >= 1, got {k}")


def _clique_levels(
    graph: tuple[np.ndarray, np.ndarray], level: tuple[np.ndarray, ...], k_max: int, count_last=False
) -> list:
    """Cliques that grow from the given level, one level per size len(level)..k_max.

    A level is a tuple of j vertex columns of equal length, one j-clique
    per index in mark order; the listing starts from the seeds (seeds,) or
    from the edges.  A clique extends by each entry of its last vertex's
    CSR row that is also an entry of the CSR row of every earlier vertex;
    one membership table answers every such test of the listing.  With
    count_last, the last level, of size k_max > len(level), is its clique
    count alone: its candidates are tested against every earlier column
    uncompressed, and the candidates that pass them all are counted.
    """
    indptr, indices = graph
    contains = _RowSpans(indptr, indices)
    levels = [level]
    for size in range(len(level) + 1, k_max + 1):
        parent, cand = _csr_rows(indptr, indices, level[-1])
        if count_last and size == k_max:
            ok = np.logical_and.reduce([contains(col[parent], cand) for col in level[:-1]])
            levels.append(int(np.count_nonzero(ok)))
            break
        for col in level[:-1]:
            ok = contains(col[parent], cand)
            parent, cand = parent[ok], cand[ok]
        level = tuple(col[parent] for col in level) + (cand,)
        levels.append(level)
    return levels


def count_cliques_upto(config: PointConfig, k_max: int) -> list[int]:
    """Totals for every clique size 1..k_max in one listing pass, which starts from the edges."""
    _check_k(k_max)
    indptr, indices = neighborhood_adjacency(config)
    counts = [len(config), indices.size]
    if k_max > 2:
        edges = (np.repeat(np.arange(len(config)), np.diff(indptr)), indices)
        _, *levels, last = _clique_levels((indptr, indices), edges, k_max, count_last=True)
        counts += [level[0].size for level in levels] + [last]
    return counts[:k_max]


def _owners(levels: list[tuple[np.ndarray, ...]], seeds: np.ndarray, owner: np.ndarray):
    """The owner of each clique of each level: the owner of its seed, its first vertex."""
    lookup = np.zeros(seeds.max() + 1 if seeds.size else 0, dtype=np.int64)
    lookup[seeds] = owner
    return [lookup[level[0]] for level in levels]


def _centered(graph: tuple[np.ndarray, np.ndarray], centers: np.ndarray, k_max: int) -> np.ndarray:
    """Cliques of every size 1..k_max whose lowest-mark vertex is each center, from one listing.

    Row s of the (len(centers), k_max) result counts the cliques at centers[s].
    """
    levels = _clique_levels(graph, (centers,), k_max)
    owners = _owners(levels, centers, np.arange(centers.size))
    return np.column_stack([np.bincount(o, minlength=centers.size) for o in owners])


def _through(graph: tuple[np.ndarray, np.ndarray], vertices: np.ndarray, k_max: int) -> np.ndarray:
    """Cliques of sizes 1..k_max that contain each of the vertices: the add-one differences.

    Row s of the (len(vertices), k_max) result counts the cliques through
    vertices[s].  The lowest-mark vertex of such a clique is the vertex or
    one of its lower-mark neighbours, so the listing starts there.
    """
    down_owner, down = _csr_rows(*_transpose(*graph), vertices)
    seeds = np.concatenate((vertices, down))
    seed_owner = np.concatenate((np.arange(vertices.size), down_owner))
    levels = _clique_levels(graph, (seeds,), k_max)
    counts = np.zeros((vertices.size, k_max), dtype=np.int64)
    for size, (level, owner) in enumerate(zip(levels, _owners(levels, seeds, seed_owner))):
        hit = np.logical_or.reduce([col == vertices[owner] for col in level])
        counts[:, size] = np.bincount(owner[hit], minlength=vertices.size)
    return counts


def _joint(graph: tuple[np.ndarray, np.ndarray], pairs: np.ndarray, k: int, l: int) -> np.ndarray:
    """Intersecting (k-clique at i, l-clique at j) pairs and their distinct unions, per row (i, j).

    Row s of the (len(pairs), 2) result is (pairs, unions) for the distinct
    vertices pairs[s].  Two cliques meet where they share a vertex, so the
    meeting pairs come from joining the two sides' vertex incidences.
    """
    out = np.zeros((len(pairs), 2), dtype=np.int64)
    up_degree = np.diff(graph[0])
    i, j = pairs[:, 0], pairs[:, 1]
    # No clique at i or at j; most Palm samples stop here.
    rows = np.flatnonzero((up_degree[i] >= k - 1) & (up_degree[j] >= l - 1))
    if rows.size == 0:
        return out
    cliques_i = _clique_levels(graph, (i[rows],), k)[k - 1]
    cliques_j = _clique_levels(graph, (j[rows],), l)[l - 1]
    [owner] = _owners([cliques_i], i[rows], rows)
    size_i, size_j = cliques_i[0].size, cliques_j[0].size
    # Every (clique at i, clique at j) pair that shares a vertex, once per shared
    # vertex; entry e of a level's joined columns is a vertex of clique e % size.
    vertex_i, vertex_j = np.concatenate(cliques_i), np.concatenate(cliques_j)
    by_vertex = np.argsort(vertex_j, kind="stable")
    vertex_j = vertex_j[by_vertex]
    lo, hi = (vertex_j.searchsorted(vertex_i, side=side) for side in ("left", "right"))
    entry, first = _spans(lo, hi)
    a, b = entry % size_i, by_vertex[first] % size_j
    a, b = np.divmod(np.unique(a * size_j + b), size_j)
    out[:, 0] = np.bincount(owner[a], minlength=len(pairs))
    # A union is its sorted vertex row, with a repeated vertex masked as -1.
    union = np.sort(np.column_stack([c[a] for c in cliques_i] + [c[b] for c in cliques_j]), axis=1)
    union[:, 1:][union[:, 1:] == union[:, :-1]] = -1
    union = np.unique(np.column_stack((owner[a], np.sort(union, axis=1))), axis=0)
    out[:, 1] = np.bincount(union[:, 0], minlength=len(pairs))
    return out
