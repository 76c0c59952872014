"""Marked Poisson configurations on the 1-D torus and the hard connection kernel.

A configuration is a set of points (x, u) where x lives on the torus of
circumference ``torus_length`` (canonical coordinates ``[-n/2, n/2)``) and the
mark u lies in (0, 1].  Two points connect exactly when

    dist(x, y) * u_min**gamma * u_max**(1 - gamma) <= beta,

with ``dist`` the toroidal metric and ``u_min <= u_max`` the ordered marks.
Lower marks act as "older" nodes and collect heavy-tailed neighborhoods.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

__all__ = [
    "ParameterError",
    "ModelParams",
    "MarkedPoint",
    "PointConfig",
    "derive_seed",
    "sample_config",
    "torus_dist",
    "wrap_position",
    "connects",
    "config_to_csv",
]

# Decimal formatting used for every real number we persist (17 significant
# digits round-trips any float64).
REAL_FORMAT = "%.17g"


class ParameterError(ValueError):
    """Model or experiment parameters outside their admissible range."""


@dataclass(frozen=True)
class ModelParams:
    """Full model specification: weight exponent, range, torus circumference.

    The connection profile is the hard indicator and the ambient dimension is
    fixed to one; neither is configurable.
    """

    gamma: float
    beta: float
    torus_length: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.beta < math.inf:
            raise ParameterError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.torus_length < math.inf:
            raise ParameterError(
                f"torus_length must be positive and finite, got {self.torus_length}"
            )


@dataclass(frozen=True)
class MarkedPoint:
    """A single point: torus position x and mark u in (0, 1]."""

    x: float
    u: float

    def __post_init__(self) -> None:
        if not (0.0 < self.u <= 1.0):
            raise ParameterError(f"mark must lie in (0, 1], got {self.u}")


def wrap_position(x: float, torus_length: float) -> float:
    """Reduce a position to the canonical range [-n/2, n/2).

    Already-canonical values pass through bit-identically; the modular
    reduction would otherwise perturb them in the last float digits.
    """
    half = 0.5 * torus_length
    if -half <= x < half:
        return float(x)
    return (x + half) % torus_length - half


def torus_dist(x, y, torus_length: float):
    """Toroidal distance min_k |x - y + k*n|; accepts scalars or arrays."""
    n = torus_length
    if n <= 0.0:
        raise ParameterError(f"torus_length must be positive, got {n}")
    d = np.abs(np.asarray(x) - np.asarray(y))
    # The reduction is exact and slow; up to d = n it changes no result
    # (d = n gives 0 either way), and canonical inputs never exceed n.
    if (d > n).any():
        d = d % n
    out = np.minimum(d, n - d)
    return float(out) if out.ndim == 0 else out


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer derivation path.

    Children are independent streams for distinct paths, and the derivation is
    order-insensitive with respect to scheduling: replicate i always receives
    the same seed no matter which worker draws it.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so per-seed streams never overlap.
    return np.random.Generator(np.random.Philox(key=int(seed)))


class PointConfig:
    """An immutable sampled configuration, sorted by position.

    Points are indexed by their rank in the position-sorted order.  Marks are
    pairwise distinct for sampled configurations; residual ties introduced by
    hand-built inputs are broken by point index so that every pair has a total
    mark order.
    """

    __slots__ = ("params", "seed", "_xs", "_us")

    def __init__(self, params: ModelParams, xs: np.ndarray, us: np.ndarray, seed: int):
        xs = np.asarray(xs, dtype=np.float64)
        us = np.asarray(us, dtype=np.float64)
        if xs.shape != us.shape or xs.ndim != 1:
            raise ParameterError("positions and marks must be 1-D arrays of equal length")
        # In-range conjunctions, so that NaN and +-inf fail too.
        if not ((us > 0.0) & (us <= 1.0)).all():
            raise ParameterError("marks must lie in (0, 1]")
        half = 0.5 * params.torus_length
        if not ((xs >= -half) & (xs < half)).all():
            raise ParameterError("positions must be canonical, in [-n/2, n/2)")
        if (xs[1:] < xs[:-1]).any():
            raise ParameterError("positions must be sorted ascending")
        self.params = params
        self.seed = int(seed)
        self._xs = xs
        self._us = us
        self._xs.setflags(write=False)
        self._us.setflags(write=False)

    # -- basic accessors -------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self._xs

    @property
    def marks(self) -> np.ndarray:
        return self._us

    def __len__(self) -> int:
        return int(self._xs.size)

    def point(self, index: int) -> MarkedPoint:
        return MarkedPoint(float(self._xs[index]), float(self._us[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointConfig):
            return NotImplemented
        return (
            self.params == other.params
            and self.seed == other.seed
            and np.array_equal(self._xs, other._xs)
            and np.array_equal(self._us, other._us)
        )

    def __repr__(self) -> str:
        return (
            f"PointConfig(n={self.params.torus_length}, points={len(self)}, "
            f"seed={self.seed})"
        )


def _check_index(config: PointConfig, i: int) -> int:
    """i as a vertex index of config; ParameterError outside 0..len(config)-1.

    Without the check numpy would read -1 as the last point.
    """
    i = operator.index(i)
    if not 0 <= i < len(config):
        raise ParameterError(f"vertex index {i} outside 0..{len(config) - 1}")
    return i


def _draw(params: ModelParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The random stream of a configuration: positions and marks in draw order."""
    rng = _rng(seed)
    n = params.torus_length
    count = int(rng.poisson(n))
    xs = rng.uniform(-0.5 * n, 0.5 * n, size=count)
    us = 1.0 - rng.random(count)  # (0, 1]
    # Exact mark ties have probability zero but would break the direction of
    # an edge; redraw duplicates until all marks are distinct.
    while count > 1:
        ranked = np.sort(us)
        if not (ranked[1:] == ranked[:-1]).any():
            break
        _, first = np.unique(us, return_index=True)
        dup = np.setdiff1d(np.arange(count), first)
        us[dup] = 1.0 - rng.random(dup.size)
    return xs, us


def sample_config(params: ModelParams, seed: int) -> PointConfig:
    """Sample a unit-intensity Poisson configuration on the marked torus.

    The point count is Poisson(torus_length), positions are uniform in the
    canonical range, marks are uniform in (0, 1].  All randomness flows from
    the single 64-bit seed through a counter-based generator, so equal
    (params, seed) reproduce the configuration bit for bit.
    """
    xs, us = _draw(params, seed)
    order = np.argsort(xs, kind="stable")
    return PointConfig(params, xs[order], us[order], seed)


# Relative slack on beta in the Palm restriction: float rounding may keep a
# point the exact kernel rejects, never drop one it accepts.
_REACH_SLACK = 1e-9


def _palm_config(
    params: ModelParams, seed: int, anchors: list[MarkedPoint], hops: int
) -> tuple[PointConfig, list[int]]:
    """The anchors and the points of sample_config(params, seed) within hops graph steps of them.

    Returns the configuration and the index of each anchor in it.  The
    stream drawn is sample_config's, point for point; a point is kept when
    the kernel connects it to an anchor or, for hops > 1, to a point kept one
    step earlier.  A count that only sees points within hops steps of the
    anchors is the same on this configuration as on the whole torus with the
    anchors inserted, and far cheaper to build.  Raises ParameterError when
    a drawn point or an earlier anchor equals an anchor.
    """
    xs, us = _draw(params, seed)
    n, g = params.torus_length, params.gamma
    reach = params.beta * (1.0 + _REACH_SLACK)
    keep = np.zeros(xs.size, dtype=bool)
    start = [(wrap_position(a.x, n), a.u) for a in anchors]
    frontier = start
    for _ in range(hops):
        reached = []
        for x, u in frontier:
            d = torus_dist(xs, x, n)
            # u_min^gamma * u_max^(1-gamma) >= u_min, so the kernel needs
            # d * u_min <= beta; that cheap test leaves few points to check.
            lo = np.minimum(us, u)
            near = (d * lo <= reach).nonzero()[0]
            hi = np.maximum(us[near], u)
            near = near[d[near] * lo[near] ** g * hi ** (1.0 - g) <= reach]
            new = near[~keep[near]]
            keep[new] = True
            reached += zip(xs[new].tolist(), us[new].tolist())
        frontier = reached
    xs, us = xs[keep], us[keep]
    # Appended last, the anchors follow the drawn points of equal position
    # in the stable sort.
    for x, u in start:
        if ((xs == x) & (us == u)).any():
            raise ParameterError(f"duplicate point ({x}, {u}); marks must be distinct")
        xs, us = np.append(xs, x), np.append(us, u)
    order = np.argsort(xs, kind="stable")
    # The inverse permutation maps each appended anchor to its sorted index.
    anchor_indices = order.argsort()[order.size - len(start) :].tolist()
    return PointConfig(params, xs[order], us[order], seed), anchor_indices


def connects(p: MarkedPoint, q: MarkedPoint, params: ModelParams) -> bool:
    """Hard-kernel adjacency: dist * u_min^gamma * u_max^(1-gamma) <= beta."""
    d = torus_dist(p.x, q.x, params.torus_length)
    u_min, u_max = (p.u, q.u) if p.u <= q.u else (q.u, p.u)
    return bool(d * u_min**params.gamma * u_max ** (1.0 - params.gamma) <= params.beta)


# Below this many points every pair is a candidate edge.  On unit-density
# tori (gamma 0.3, beta 1) all pairs are faster than the window search up to
# 40 points and slower from 44; a Palm neighbourhood, whose points all lie
# near its anchors, rarely reaches the cut-off.
_ALL_PAIRS_BELOW = 42


def neighborhood_adjacency(config: PointConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mark-oriented adjacency of the configuration graph as CSR.

    Returns (indptr, indices): indices[indptr[i]:indptr[i + 1]] are the
    neighbours of point i with higher mark, sorted ascending.  Candidate
    pairs are every pair of a small configuration, and otherwise come from
    one vectorized window query per configuration, taken from each point
    with its maximal up-radius beta/u.  A candidate (i, j) becomes an edge
    when j ranks above i in the (mark, index) order and the kernel connects
    them, so each edge is found from its lower-mark end.
    """
    params = config.params
    xs, us = config.positions, config.marks
    n = params.torus_length
    size = xs.size

    if size < _ALL_PAIRS_BELOW:
        rows, cols = np.divmod(np.arange(size * size), size)
    else:
        radius = np.minimum(params.beta / us, 0.5 * n)
        capped = 2.0 * radius >= n
        ext = np.concatenate([xs - n, xs, xs + n])
        lo = np.searchsorted(ext, xs - radius, side="left")
        hi = np.searchsorted(ext, xs + radius, side="right")
        # A capped window covers the whole torus, so its row takes every
        # point once rather than the wrapped copies.
        lo = np.where(capped, 0, lo)
        hi = np.where(capped, size, hi)
        counts = hi - lo
        rows = np.repeat(np.arange(size), counts)
        offsets = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = (np.repeat(lo, counts) + offsets) % size
    keep = (us[cols] > us[rows]) | ((us[cols] == us[rows]) & (cols > rows))
    rows, cols = rows[keep], cols[keep]
    d = torus_dist(xs[rows], xs[cols], n)
    ok = d * us[rows] ** params.gamma * us[cols] ** (1.0 - params.gamma) <= params.beta
    rows, cols = rows[ok], cols[ok]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return indptr, cols[order]


def _transpose(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transposed CSR: entry j of row i becomes entry i of row j.

    Applied to the up edge list it gives the down rows, the lower-mark
    neighbours of each point, sorted ascending (a stable sort keeps the
    row order).
    """
    size = indptr.size - 1
    order = np.argsort(indices, kind="stable")
    down_idx = np.repeat(np.arange(size), np.diff(indptr))[order]
    down_ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=size), out=down_ptr[1:])
    return down_ptr, down_idx


def _csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every entry of the listed CSR rows: (position in rows, entry) arrays."""
    start = indptr[rows]
    deg = indptr[rows + 1] - start
    owner = np.arange(rows.size).repeat(deg)
    first = (start - deg.cumsum() + deg).repeat(deg)
    return owner, indices[first + np.arange(owner.size)]


def _csr_contains(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Element-wise test that values[i] is an entry of CSR row rows[i].

    Each row is sorted, so the keys (row << 32) + entry of all entries are
    sorted; a key's last position at or below a query holds the query
    exactly when it is present.
    """
    if indices.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    keys = (np.arange(indptr.size - 1) << 32).repeat(indptr[1:] - indptr[:-1]) + indices
    query = (rows << 32) + values
    return keys[keys.searchsorted(query, side="right") - 1] == query


# -- CSV export ------------------------------------------------------


def config_to_csv(config: PointConfig, stream: TextIO) -> None:
    """Write the configuration as ``x,u`` rows with 17 significant digits."""
    stream.write("x,u\n")
    for i in range(len(config)):
        stream.write(
            (REAL_FORMAT % config.positions[i]) + "," + (REAL_FORMAT % config.marks[i]) + "\n"
        )
