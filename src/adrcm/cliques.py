"""Exact clique counting and first/second add-one difference counts.

Every k-clique has a unique lowest-mark vertex, its *center*.  All counters
here enumerate cliques through that decomposition: candidates are restricted
to the center's higher-mark neighborhood and intersected recursively along
mark-increasing chains, so each clique is visited exactly once.  Counts are
plain Python integers and therefore never wrap.
"""

from __future__ import annotations

import numpy as np

from .model import (
    MarkedPoint,
    ParameterError,
    PointConfig,
    add_point,
    down_neighbors,
    neighborhood_adjacency,
    torus_dist,
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


def _chain_counts(start: set[int], up_sets: list[set[int]], max_len: int) -> list[int]:
    """Counts of mark-increasing chains of length 1..max_len inside start.

    A chain of length d rooted in a candidate set S corresponds to one
    (d+1)-clique once S is a common neighborhood, because every step keeps
    only joint neighbors.
    """
    counts = [0] * max_len

    def rec(cand: set[int], depth: int) -> None:
        counts[depth] += len(cand)
        if depth + 1 == max_len:
            return
        for v in cand:
            nxt = cand & up_sets[v]
            if nxt:
                rec(nxt, depth + 1)

    if max_len >= 1 and start:
        rec(start, 0)
    return counts


def _enumerate_chains(start: set[int], up_sets: dict[int, set[int]], length: int):
    """Yield every mark-increasing chain of the given length as a tuple."""
    if length == 0:
        yield ()
        return
    for v in start:
        for tail in _enumerate_chains(start & up_sets[v], up_sets, length - 1):
            yield (v,) + tail


def count_cliques_upto(config: PointConfig, k_max: int) -> list[int]:
    """Totals for every clique size 1..k_max in a single recursion pass."""
    _check_k(k_max)
    size = len(config)
    totals = [0] * k_max
    totals[0] = size
    if k_max == 1:
        return totals
    up_sets, _ = neighborhood_adjacency(config)
    for c in range(size):
        counts = _chain_counts(up_sets[c], up_sets, k_max - 1)
        for d in range(k_max - 1):
            totals[d + 1] += counts[d]
    return totals


def _member_or_inserted(config: PointConfig, p: MarkedPoint) -> tuple[PointConfig, int]:
    canon = MarkedPoint(wrap_position(p.x, config.params.torus_length), p.u)
    idx = config.index_of(canon)
    if idx >= 0:
        return config, idx
    aug = add_point(config, canon)
    return aug, aug.index_of(canon)


def _local_up_sets(config: PointConfig, indices: np.ndarray) -> dict[int, set[int]]:
    """Adjacency restricted to the given points, keyed by global index.

    up-sets follow the global (mark, index) order so they agree with the
    full-configuration adjacency.
    """
    params = config.params
    idx = np.asarray(indices, dtype=np.int64)
    xs = config.positions[idx]
    us = config.marks[idx]
    m = idx.size
    up: dict[int, set[int]] = {int(i): set() for i in idx}
    if m < 2:
        return up
    d = torus_dist(xs[:, None], xs[None, :], params.torus_length)
    lo = np.minimum(us[:, None], us[None, :])
    hi = np.maximum(us[:, None], us[None, :])
    adj = d * lo**params.gamma * hi ** (1.0 - params.gamma) <= params.beta
    order = us[:, None] < us[None, :]
    order |= (us[:, None] == us[None, :]) & (idx[:, None] < idx[None, :])
    pairs = np.nonzero(adj & order)
    for a, b in zip(pairs[0].tolist(), pairs[1].tolist()):
        up[int(idx[a])].add(int(idx[b]))
    return up


def count_cliques_centered(config: PointConfig, p: MarkedPoint, k: int) -> int:
    """Number of k-cliques whose lowest-mark vertex is p.

    p is inserted first when absent, which is the Palm evaluation of a count
    at a deterministic extra point.
    """
    _check_k(k)
    cfg, idx = _member_or_inserted(config, p)
    if k == 1:
        return 1
    ups = up_neighbors(cfg, cfg.point(idx))
    if ups.size < k - 1:
        return 0
    local = _local_up_sets(cfg, ups)
    return _chain_counts(set(ups.tolist()), local, k - 1)[k - 2]  # type: ignore[arg-type]


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
    out = [0] * k_max
    out[0] = 1
    if k_max == 1:
        return out
    nb = np.concatenate([up_neighbors(config, p0), down_neighbors(config, p0)])
    if nb.size:
        local = _local_up_sets(config, nb)
        chains = _chain_counts(set(nb.tolist()), local, k_max - 1)
        out[1:] = chains
    return out


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
    out = [0] * k_max
    if k_max == 1:
        return out
    d = torus_dist(p0.x, q.x, params.torus_length)
    lo, hi = min(p0.u, q.u), max(p0.u, q.u)
    if d * lo**params.gamma * hi ** (1.0 - params.gamma) > params.beta:
        return out
    out[1] = 1
    if k_max == 2:
        return out
    nb_a = set(np.concatenate([up_neighbors(config, p0), down_neighbors(config, p0)]).tolist())
    nb_b = set(np.concatenate([up_neighbors(config, q), down_neighbors(config, q)]).tolist())
    common = np.asarray(sorted(nb_a & nb_b), dtype=np.int64)
    if common.size:
        local = _local_up_sets(config, common)
        chains = _chain_counts(set(common.tolist()), local, k_max - 2)
        out[2:] = chains
    return out


def _centered_clique_masks(
    cfg: PointConfig,
    center_idx: int,
    k: int,
    bit_of: dict[int, int],
    local_up: dict[int, set[int]],
    ups: set[int],
) -> list[int]:
    """Cliques centered at a point as bitmasks over a local universe."""
    if k == 1:
        return [1 << bit_of[center_idx]]
    masks = []
    base = 1 << bit_of[center_idx]
    for chain in _enumerate_chains(ups, local_up, k - 1):
        m = base
        for v in chain:
            m |= 1 << bit_of[v]
        masks.append(m)
    return masks


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
    ups_p = set(up_neighbors(config, p).tolist())
    ups_q = set(up_neighbors(config, q).tolist())
    universe = sorted({p_idx, q_idx} | ups_p | ups_q)
    bit_of = {g: b for b, g in enumerate(universe)}
    local_up = _local_up_sets(config, np.asarray(universe, dtype=np.int64))
    masks_p = _centered_clique_masks(config, p_idx, k, bit_of, local_up, ups_p)
    masks_q = _centered_clique_masks(config, q_idx, l, bit_of, local_up, ups_q)
    pairs = 0
    unions: set[int] = set()
    for a in masks_p:
        for b in masks_q:
            if a & b:
                pairs += 1
                unions.add(a | b)
    return pairs, len(unions)
