"""Injective homomorphism counts for rooted directed trees, and block sums.

A tree edge i -> j constrains the image of i to have a strictly higher mark
than the image of j and to connect to it, so embeddings follow the graph's
edge orientation from younger to older points.  Counts are homomorphisms, not
induced copies: leaves may or may not be adjacent to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    down_neighbors,
    neighborhood_adjacency,
    up_neighbors,
    wrap_position,
)

__all__ = [
    "TreeSpecError",
    "DirectedTreeSpec",
    "BlockSums",
    "validate_tree",
    "parse_tree_spec",
    "tree_edge",
    "tree_wedge",
    "tree_path",
    "tree_star",
    "d_in",
    "count_trees",
    "block_sums",
    "lag_covariance_table",
    "cox_grimmett",
]


class TreeSpecError(ValueError):
    """The directed tree specification violates the tree invariants."""


@dataclass(frozen=True)
class DirectedTreeSpec:
    """Abstract rooted directed tree on vertices 1..vertex_count.

    ``leaf_count`` is the number of degree-one vertices other than the root;
    it is filled in by :func:`validate_tree`.  ``root_degree_one`` flags the
    ambiguous case of a root that is itself a skeleton leaf.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    root: int
    leaf_count: int | None = None
    root_degree_one: bool = False


def validate_tree(spec: DirectedTreeSpec) -> DirectedTreeSpec:
    """Check the tree invariants and return the spec with leaf_count set."""
    m = spec.vertex_count
    if m < 1:
        raise TreeSpecError(f"vertex_count must be >= 1, got {m}")
    if not (1 <= spec.root <= m):
        raise TreeSpecError(f"root {spec.root} outside 1..{m}")
    if len(spec.edges) != m - 1:
        raise TreeSpecError(
            f"a tree on {m} vertices needs {m - 1} edges, got {len(spec.edges)}"
        )
    seen: set[frozenset[int]] = set()
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, m + 1)}
    for i, j in spec.edges:
        if not (1 <= i <= m and 1 <= j <= m):
            raise TreeSpecError(f"edge {i}->{j} references a vertex outside 1..{m}")
        if i == j:
            raise TreeSpecError(f"self-loop {i}->{j}")
        key = frozenset((i, j))
        if key in seen:
            raise TreeSpecError(f"multi-edge between {i} and {j}")
        seen.add(key)
        adjacency[i].add(j)
        adjacency[j].add(i)
    # Connectivity; with m-1 distinct edges this also rules out cycles.
    reached = {spec.root}
    frontier = [spec.root]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) != m:
        raise TreeSpecError("tree skeleton is not connected")
    leaves = sum(
        1 for v in range(1, m + 1) if v != spec.root and len(adjacency[v]) == 1
    )
    return replace(
        spec,
        leaf_count=leaves,
        root_degree_one=(m >= 2 and len(adjacency[spec.root]) == 1),
    )


def parse_tree_spec(text: str) -> DirectedTreeSpec:
    """Parse the line-based tree format.

    Exactly three line forms are accepted (blank lines are ignored):
    ``m=<int>``, ``root=<int>``, ``edge=<i>-><j>``.
    """
    m: int | None = None
    root: int | None = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise TreeSpecError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "m":
            if m is not None:
                raise TreeSpecError(f"line {line_no}: duplicate m")
            m = _parse_int(value, line_no)
        elif key == "root":
            if root is not None:
                raise TreeSpecError(f"line {line_no}: duplicate root")
            root = _parse_int(value, line_no)
        elif key == "edge":
            if "->" not in value:
                raise TreeSpecError(f"line {line_no}: edge must look like i->j")
            left, _, right = value.partition("->")
            edges.append((_parse_int(left, line_no), _parse_int(right, line_no)))
        else:
            raise TreeSpecError(f"line {line_no}: unknown key {key!r}")
    if m is None or root is None:
        raise TreeSpecError("tree file must define both m and root")
    return validate_tree(DirectedTreeSpec(m, tuple(edges), root))


def _parse_int(value: str, line_no: int) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise TreeSpecError(f"line {line_no}: {value!r} is not an integer") from None


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


# -- embedding counts ----------------------------------------------------


def _assignment_plan(spec: DirectedTreeSpec) -> list[tuple[int, int, bool]]:
    """BFS assignment order: (vertex slot, parent slot, parent_is_lower).

    ``parent_is_lower`` is true when the tree edge points child -> parent, so
    the child's image must come from the parent's higher-mark neighborhood.
    """
    spec = validate_tree(spec) if spec.leaf_count is None else spec
    children: dict[int, list[int]] = {v: [] for v in range(1, spec.vertex_count + 1)}
    directed = set(spec.edges)
    for i, j in spec.edges:
        children[i].append(j)
        children[j].append(i)
    slot_of = {spec.root: 0}
    plan: list[tuple[int, int, bool]] = []
    queue = [spec.root]
    while queue:
        v = queue.pop(0)
        for w in sorted(children[v]):
            if w in slot_of:
                continue
            slot_of[w] = len(slot_of)
            plan.append((slot_of[w], slot_of[v], (w, v) in directed))
            queue.append(w)
    return plan


def _count_embeddings(
    plan: list[tuple[int, int, bool]],
    up_of: Callable[[int], set[int]],
    down_of: Callable[[int], set[int]],
    root_index: int | None = None,
) -> int:
    """Count injective embeddings with the root image preassigned to slot 0.

    ``root_index`` blocks the root's own configuration index when the root is
    a member, so no other vertex can reuse it.
    """
    if not plan:
        return 1
    images = [-2] * (len(plan) + 1)
    images[0] = -1  # root sentinel; callers key the lookups on -1
    used: set[int] = set() if root_index is None else {root_index}

    def rec(step: int) -> int:
        slot, parent_slot, parent_is_lower = plan[step]
        cand = up_of(images[parent_slot]) if parent_is_lower else down_of(images[parent_slot])
        if step + 1 == len(plan):
            blocked = sum(1 for w in used if w in cand)
            return len(cand) - blocked
        total = 0
        for w in cand:
            if w in used:
                continue
            images[slot] = w
            used.add(w)
            total += rec(step + 1)
            used.remove(w)
        return total

    return rec(0)


def d_in(config: PointConfig, p: MarkedPoint, spec: DirectedTreeSpec) -> int:
    """Injective homomorphisms of the tree with the root mapped to p.

    p may be a member of the configuration or an external Palm point; other
    vertices always map to configuration points.
    """
    plan = _assignment_plan(spec)
    p = MarkedPoint(wrap_position(p.x, config.params.torus_length), p.u)
    cache_up: dict[int, set[int]] = {}
    cache_down: dict[int, set[int]] = {}

    def up_of(idx: int) -> set[int]:
        if idx not in cache_up:
            point = p if idx == -1 else config.point(idx)
            cache_up[idx] = set(up_neighbors(config, point).tolist())
        return cache_up[idx]

    def down_of(idx: int) -> set[int]:
        if idx not in cache_down:
            point = p if idx == -1 else config.point(idx)
            cache_down[idx] = set(down_neighbors(config, point).tolist())
        return cache_down[idx]

    member = config.index_of(p)
    return _count_embeddings(plan, up_of, down_of, root_index=member if member >= 0 else None)


_INT64_MAX = int(np.iinfo(np.int64).max)


def count_trees(config: PointConfig, spec: DirectedTreeSpec) -> int:
    """Total injective homomorphism count, summed over all root images.

    The per-root counts are summed as Python integers, so the total never
    wraps.
    """
    return sum(_d_in_all(config, spec).tolist())


def _d_in_all(config: PointConfig, spec: DirectedTreeSpec) -> np.ndarray:
    """Embedding count rooted at every configuration point."""
    plan = _assignment_plan(spec)
    size = len(config)
    out = np.zeros(size, dtype=np.int64)
    if size == 0:
        return out
    if not plan:
        out[:] = 1
        return out
    up_sets, down_sets = neighborhood_adjacency(config)

    for root_idx in range(size):
        def up_of(idx: int, _r: int = root_idx) -> set[int]:
            return up_sets[_r if idx == -1 else idx]

        def down_of(idx: int, _r: int = root_idx) -> set[int]:
            return down_sets[_r if idx == -1 else idx]

        val = _count_embeddings(plan, up_of, down_of, root_index=root_idx)
        if val > _INT64_MAX:
            raise OverflowError("embedding count exceeds int64; aborting")
        out[root_idx] = val
    return out


# -- block sums and covariance diagnostics --------------------------------


@dataclass(frozen=True)
class BlockSums:
    """Per-unit-interval sums of rooted embedding counts for one replicate."""

    values: np.ndarray
    params: ModelParams

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def total(self) -> int:
        return sum(self.values.tolist())


def block_sums(config: PointConfig, spec: DirectedTreeSpec) -> BlockSums:
    """Embedding counts aggregated over the unit blocks [i-1, i).

    Block boundaries use the shifted coordinate x + n/2 in [0, n), so the
    torus splits into exactly n unit intervals; requires integer n.  Raises
    OverflowError when the total, and so possibly a block, exceeds int64.
    """
    n = config.params.torus_length
    blocks = int(round(n))
    if abs(n - blocks) > 1e-9 or blocks < 1:
        raise ParameterError(f"block sums need an integer torus length, got {n}")
    per_point = _d_in_all(config, spec)
    # Counts are nonnegative, so no block can wrap once the total fits.
    if sum(per_point.tolist()) > _INT64_MAX:
        raise OverflowError("block sums exceed int64; aborting")
    values = np.zeros(blocks, dtype=np.int64)
    if len(config):
        shifted = config.positions + 0.5 * n
        idx = np.minimum(np.floor(shifted).astype(np.int64), blocks - 1)
        np.add.at(values, idx, per_point)
    return BlockSums(values=values, params=config.params)


def _replicate_matrix(replicates: Sequence[BlockSums]) -> np.ndarray:
    if len(replicates) < 2:
        raise ParameterError("need at least 2 replicates of block sums")
    width = replicates[0].values.size
    for rep in replicates:
        if rep.values.size != width:
            raise ParameterError("replicates disagree on the number of blocks")
    return np.stack([rep.values for rep in replicates]).astype(np.float64)


def _cyclic_lag_cov(centered: np.ndarray, lag: int) -> float:
    """Across-replicate covariance at a block lag, averaged over the circle."""
    r, n = centered.shape
    rolled = np.roll(centered, -lag, axis=1)
    return float(np.sum(centered * rolled) / (n * (r - 1)))


def _jackknife_se(
    values_fn: Callable[[np.ndarray], float | np.ndarray], matrix: np.ndarray, batches: int = 20
) -> float | np.ndarray:
    """Leave-one-batch-out jackknife standard error of values_fn over rows.

    The rows of matrix are replicates, split into min(batches, rows)
    contiguous batches.  values_fn may return a scalar, giving a float, or an
    array, giving element-wise standard errors; NaN with fewer than 2 batches.
    """
    r = matrix.shape[0]
    b = min(batches, r)
    if b < 2:
        return float("nan")
    bounds = np.linspace(0, r, b + 1, dtype=int)
    estimates = []
    for i in range(b):
        keep = np.ones(r, dtype=bool)
        keep[bounds[i] : bounds[i + 1]] = False
        estimates.append(values_fn(matrix[keep]))
    est = np.asarray(estimates)
    se = np.sqrt((b - 1) / b * np.sum((est - est.mean(axis=0)) ** 2, axis=0))
    return float(se) if se.ndim == 0 else se


def lag_covariance_table(
    replicates: Sequence[BlockSums], max_lag: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclically averaged block covariances: (lags, estimates, standard errors).

    By stationarity on the torus every pair at a fixed circular lag has the
    same covariance, so shifts are pooled before the across-replicate average.
    """
    matrix = _replicate_matrix(replicates)
    n = matrix.shape[1]
    if max_lag is None:
        max_lag = n // 2
    lags = np.arange(1, max_lag + 1)

    def cov_at(m: np.ndarray, lag: int) -> float:
        centered = m - m.mean(axis=0, keepdims=True)
        return _cyclic_lag_cov(centered, lag)

    estimates = np.array([cov_at(matrix, int(l)) for l in lags])
    ses = np.array(
        [_jackknife_se(lambda mm, _l=int(l): cov_at(mm, _l), matrix) for l in lags]
    )
    return lags, estimates, ses


def cox_grimmett(replicates: Sequence[BlockSums], k: int) -> tuple[float, float]:
    """Tail covariance coefficient u_n(k) with a batch-jackknife standard error.

    Estimates 2 * sum over j = k+1 .. ceil(n/2) of Cov(T_1, T_j);
    the cyclic structure reduces the maximum over base blocks to base 1.
    """
    matrix = _replicate_matrix(replicates)
    n = matrix.shape[1]
    if not (1 <= k <= n):
        raise ParameterError(f"lag cutoff must lie in 1..{n}, got {k}")
    half = (n + 1) // 2
    lags = range(k, half)

    def stat(m: np.ndarray) -> float:
        centered = m - m.mean(axis=0, keepdims=True)
        return 2.0 * sum(_cyclic_lag_cov(centered, lag) for lag in lags)

    return stat(matrix), _jackknife_se(stat, matrix)
