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
    ModelParams,
    ParameterError,
    PointConfig,
    _check_index,
    _csr_contains,
    _csr_rows,
    _transpose,
    neighborhood_adjacency,
)

__all__ = [
    "TreeSpecError",
    "DirectedTreeSpec",
    "BlockSums",
    "validate_tree",
    "parse_tree_spec",
    "d_in",
    "count_trees",
    "block_sums",
    "lag_covariance_table",
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


def _rooted(config: PointConfig, spec: DirectedTreeSpec, roots: np.ndarray) -> np.ndarray:
    """Count injective embeddings for each root image, level by level.

    A partial embedding is one entry of every column in ``emb``, the image
    arrays of the slots assigned so far.  Each step of the plan extends every
    partial embedding by the up (or down) neighbours of its parent slot's
    image and drops repeated images; the last step is counted rather than
    listed.  Up rows come from the CSR edge list and down rows from its
    transpose, built only when the plan has a down step.
    """
    plan = _assignment_plan(spec)
    if not plan:
        return np.ones(roots.size, dtype=np.int64)
    up = neighborhood_adjacency(config)
    down = _transpose(*up) if any(not lower for _, _, lower in plan) else None
    out = np.zeros(roots.size, dtype=np.int64)
    emb = [roots]
    owner = np.arange(roots.size)
    for step, (_, parent_slot, parent_is_lower) in enumerate(plan):
        if owner.size == 0:
            break
        indptr, indices = up if parent_is_lower else down
        parents = emb[parent_slot]
        if step + 1 == len(plan):
            count = indptr[parents + 1] - indptr[parents]
            for slot, images in enumerate(emb):
                if slot != parent_slot:
                    count -= _csr_contains(indptr, indices, parents, images)
            np.add.at(out, owner, count)
            break
        row, cand = _csr_rows(indptr, indices, parents)
        fresh = np.ones(cand.size, dtype=bool)
        for images in emb:
            fresh &= images[row] != cand
        row = row[fresh]
        emb = [images[row] for images in emb] + [cand[fresh]]
        owner = owner[row]
    return out


def d_in(config: PointConfig, i: int, spec: DirectedTreeSpec) -> int:
    """Injective homomorphisms of the tree with the root mapped to vertex i.

    The other tree vertices map to the other points.
    """
    return int(_rooted(config, spec, np.array([_check_index(config, i)]))[0])


_INT64_MAX = int(np.iinfo(np.int64).max)


def count_trees(config: PointConfig, spec: DirectedTreeSpec) -> int:
    """Total injective homomorphism count, summed over all root images.

    The per-root counts are summed as Python integers, so the total never
    wraps.
    """
    return sum(_rooted(config, spec, np.arange(len(config))).tolist())


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
    per_point = _rooted(config, spec, np.arange(len(config)))
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
    # Fewer than 3 leave a jackknife subsample of one row, whose covariance
    # divides by zero.
    if len(replicates) < 3:
        raise ParameterError("need at least 3 replicates of block sums")
    width = replicates[0].values.size
    for rep in replicates:
        if rep.values.size != width:
            raise ParameterError("replicates disagree on the number of blocks")
    return np.stack([rep.values for rep in replicates]).astype(np.float64)


def _cyclic_lag_cov(centered: np.ndarray, lag: int) -> float:
    """Across-replicate covariance at a block lag, averaged over the circle."""
    r, n = centered.shape
    # One temporary per lag: with a second one of this size the allocator can
    # return and re-fault their pages on every call, tripling the cost.
    product = np.roll(centered, -lag, axis=1)
    np.multiply(centered, product, out=product)
    return float(np.sum(product) / (n * (r - 1)))


def _leave_one_batch_out(matrix: np.ndarray, batches: int = 20):
    """The rows of matrix without each of min(batches, rows) contiguous batches."""
    r = matrix.shape[0]
    b = min(batches, r)
    bounds = np.linspace(0, r, b + 1, dtype=int)
    for i in range(b):
        keep = np.ones(r, dtype=bool)
        keep[bounds[i] : bounds[i + 1]] = False
        yield matrix[keep]


def _jackknife_spread(estimates) -> float | np.ndarray:
    """Jackknife standard error from the leave-one-batch-out estimates."""
    est = np.asarray(estimates)
    b = est.shape[0]
    se = np.sqrt((b - 1) / b * np.sum((est - est.mean(axis=0)) ** 2, axis=0))
    return float(se) if se.ndim == 0 else se


def _jackknife_se(
    values_fn: Callable[[np.ndarray], float | np.ndarray], matrix: np.ndarray, batches: int = 20
) -> float | np.ndarray:
    """Leave-one-batch-out jackknife standard error of values_fn over rows.

    The rows of matrix are replicates, split into min(batches, rows)
    contiguous batches.  values_fn may return a scalar, giving a float, or an
    array, giving element-wise standard errors; NaN with fewer than 2 batches.
    """
    if min(batches, matrix.shape[0]) < 2:
        return float("nan")
    return _jackknife_spread([values_fn(m) for m in _leave_one_batch_out(matrix, batches)])


def lag_covariance_table(
    replicates: Sequence[BlockSums], cutoffs: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[float, float]]]:
    """Block covariances and tail coefficients, each with a jackknife SE.

    Returns (lags, covariances, standard errors, {k: (u_n(k), se)}) for the
    lags 1..n//2 and the given cutoffs k.  By stationarity on the torus every
    pair at a fixed circular lag has the same covariance, so shifts are
    pooled before the across-replicate average.  The Cox-Grimmett tail
    coefficient u_n(k) = 2 * sum over j = k+1 .. ceil(n/2) of Cov(T_1, T_j)
    is read off the same lag covariances; the cyclic structure reduces the
    maximum over base blocks to base 1.  The full sample and each
    leave-one-batch-out subsample are centred once.
    """
    matrix = _replicate_matrix(replicates)
    n = matrix.shape[1]
    for k in cutoffs:
        if not (1 <= k <= n):
            raise ParameterError(f"lag cutoff must lie in 1..{n}, got {k}")
    lags = np.arange(1, n // 2 + 1)
    half = (n + 1) // 2

    def lag_covs(m: np.ndarray) -> list[float]:
        centered = m - m.mean(axis=0, keepdims=True)
        return [_cyclic_lag_cov(centered, int(lag)) for lag in lags]

    def tail(covs: list[float], k: int) -> float:
        return 2.0 * sum(covs[k - 1 : half - 1])

    full = lag_covs(matrix)
    subsamples = [lag_covs(m) for m in _leave_one_batch_out(matrix)]
    ses = np.array([_jackknife_spread(column) for column in zip(*subsamples)])
    u_values = {
        k: (tail(full, k), _jackknife_spread([tail(s, k) for s in subsamples]))
        for k in cutoffs
    }
    return lags, np.array(full), ses, u_values
