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
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

__all__ = [
    "ParameterError",
    "ModelParams",
    "MarkedPoint",
    "PointConfig",
    "derive_seed",
    "sample_config",
    "wrap_position",
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
    wrapped = (x + half) % torus_length - half
    return -half if wrapped == half else wrapped  # the remainder may round up to n: n/2 is -n/2


def _torus_gap(diff, n):
    """Torus distance of canonical positions, less than n apart, from their difference.

    It overwrites diff, the caller's temporary, so no second array of that size is kept.
    """
    np.abs(diff, out=diff)
    return np.minimum(diff, n - diff, out=diff)


def _check_seed_path(values) -> None:
    """ParameterError naming the first negative element; numpy's error names none."""
    for value in values:
        if value < 0:
            raise ParameterError(f"seeds and seed path elements must be >= 0, got {value}")


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer derivation path.

    Children are independent streams for distinct paths, and the derivation is
    order-insensitive with respect to scheduling: replicate i always receives
    the same seed no matter which worker draws it.  It is the first uint64
    state word of numpy's seed sequence with entropy master_seed and spawn
    key path, computed by _derive_seeds.
    """
    return int(_derive_seeds(int(master_seed), path, None))


# The constants of numpy's seed sequence (numpy/random/bit_generator.pyx), for _derive_seeds.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """An integer as numpy's seed sequence reads it: 32-bit words, least significant first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _wrap(value):
    """A value mod 2^32: Python ints need it, uint32 arrays wrap by themselves."""
    return value & _MASK32 if isinstance(value, int) else value


def _mix(entropy: list) -> np.ndarray:
    """The seed sequence's first uint64 state word for each row of the entropy words.

    entropy holds the words of the assembled entropy in order, each a Python
    int shared by every row or a uint32 array with one value per row; every
    row is mixed exactly as numpy mixes one seed.  Until the first array
    word, the pool stays in Python ints and is mixed once for all rows.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = _wrap(value * const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for word in pool[:2]:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word = _wrap(word * const)
        state.append(np.asarray(word ^ (word >> 16), dtype=np.uint64))
    return state[0] | (state[1] << np.uint64(32))


def _derive_seeds(master, prefix, indices) -> np.ndarray:
    """derive_seed(master, *prefix, i) for each i of indices, as a uint64 array.

    master is an int, or a uint64 array that broadcasts against indices (each
    element the master of its own seed); indices are integers below 2^64.
    With an int master and indices None it is derive_seed(master, *prefix)
    itself.  The result is the seed sequence's mixing, done on whole columns
    of entropy words at once.
    """
    prefix = [int(p) for p in prefix]
    if isinstance(master, np.ndarray):
        if master.size and master.dtype.kind == "i":
            _check_seed_path([master.min()])
        master, indices = np.broadcast_arrays(master.astype(np.uint64), indices)
        # Padded to the pool size, an entropy below 2^64 is always [low, high, 0, 0].
        run = [master & _MASK32, master >> np.uint64(32), 0, 0]
    else:
        _check_seed_path([int(master)])
        run = _words(int(master))
        # An empty spawn key is not padded, but numpy hashes a missing pool word as a zero.
        run += [0] * (_POOL_SIZE - len(run))
    _check_seed_path(prefix)
    spawn = [word for p in prefix for word in _words(p)]
    if indices is None:
        return _mix(run + spawn)
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind == "i":
        _check_seed_path([indices.min()])
    shape = indices.shape
    indices = indices.astype(np.uint64).ravel()
    low, high = indices & _MASK32, indices >> np.uint64(32)
    out = np.empty(indices.size, dtype=np.uint64)
    # An index takes one word below 2^32 and two from there on.
    for rows, tail in ((high == 0, [low]), (high != 0, [low, high])):
        if rows.any():
            out[rows] = _mix([
                word if isinstance(word, int) else word.ravel()[rows].astype(np.uint32)
                for word in run + spawn + tail
            ])
    return out.reshape(shape)


# The process's one generator; _rng resets it to a seed's stream.  A process
# pool forks, so every worker holds its own copy.  A seed of 0 spares the OS
# entropy that an unseeded Philox would read at import.
_GENERATOR = np.random.Generator(np.random.Philox(0))
_ZEROS = np.zeros(4, dtype=np.uint64)


def _rng(seed: int) -> np.random.Generator:
    """The stream of a new Philox generator keyed by seed, on the process's one generator.

    Philox is counter-based, so per-seed streams never overlap.  Resetting the
    key, counter and buffer gives the draws a new generator would give, without
    building one.  A caller finishes its draws before the next call, which
    resets the same generator.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 128:
        raise ParameterError(f"seed must lie in [0, 2^128), got {seed}")
    key = np.array([seed & (1 << 64) - 1, seed >> 64], dtype=np.uint64)
    _GENERATOR.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _GENERATOR


class PointConfig:
    """An immutable sampled configuration, sorted by position.

    Points are indexed by their rank in the position-sorted order.  Every
    pair has a total order by (mark, index): two equal marks, which a sampled
    configuration of m points holds with probability about m^2 / 2^54 and a
    hand-built one may hold, are ranked by index like any other pair.
    """

    __slots__ = ("params", "seed", "_xs", "_us", "_graph")

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
        self._graph = None

    # -- basic accessors -------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self._xs

    @property
    def marks(self) -> np.ndarray:
        return self._us

    def __len__(self) -> int:
        return int(self._xs.size)

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


def _draw(params: ModelParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The random stream of a configuration: positions and marks in draw order, ties kept."""
    rng = _rng(seed)
    n = params.torus_length
    count = int(rng.poisson(n))
    xs = rng.uniform(-0.5 * n, 0.5 * n, size=count)
    us = 1.0 - rng.random(count)  # (0, 1]
    return xs, us


# Relative slack on beta in the Palm restriction: float rounding may keep a
# point the exact kernel rejects, never drop one it accepts.
_REACH_SLACK = 1e-9


class _Blocks(NamedTuple):
    """Configurations side by side in one index space, one block each.

    Block b holds the points bounds[b]:bounds[b + 1], sorted by position, on
    the torus of length lengths[b]; every block shares gamma and beta.
    anchors[b] are the vertex indices of block b's anchors.
    """

    positions: np.ndarray
    marks: np.ndarray
    bounds: np.ndarray
    lengths: np.ndarray
    anchors: np.ndarray
    gamma: float
    beta: float


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


def _joinable(params: ModelParams, xs, us, x: float, u: float) -> np.ndarray:
    """Indices of the canonical points (xs, us) that the kernel may join to (x, u), with slack."""
    g = params.gamma
    reach = params.beta * (1.0 + _REACH_SLACK)
    d = _torus_gap(xs - x, params.torus_length)
    # u_min^gamma * u_max^(1-gamma) >= u_min, so the kernel needs
    # d * u_min <= beta; that cheap test leaves few points to check.
    lo = np.minimum(us, u)
    near = (d * lo <= reach).nonzero()[0]
    hi = np.maximum(us[near], u)
    return near[d[near] * lo[near] ** g * hi ** (1.0 - g) <= reach]


def _kept(params: ModelParams, seed: int, start: list[tuple[float, float]], hops: int):
    """The points of sample_config(params, seed) within hops graph steps of start, in draw order."""
    xs, us = _draw(params, seed)
    keep = np.zeros(xs.size, dtype=bool)
    frontier = start
    for _ in range(hops):
        reached = []
        for x, u in frontier:
            near = _joinable(params, xs, us, x, u)
            new = near[~keep[near]]
            keep[new] = True
            reached += zip(xs[new].tolist(), us[new].tolist())
        frontier = reached
    return xs[keep], us[keep]


def _palm_blocks(samples, hops: int) -> _Blocks:
    """One block per sample (params, anchors, seed, draw): its anchors and the points near them.

    A block holds the anchors and the points of sample_config(params, seed)
    within hops graph steps of them.  The stream drawn is sample_config's,
    point for point, one sample at a time; a point is kept when the kernel
    connects it to an anchor or, for hops > 1, to a point kept one step
    earlier.  A count that only sees points within hops steps of the anchors
    is the same on a block as on the whole torus with the anchors inserted,
    and far cheaper to build.  A sample with draw False is one whose count
    its estimator has proved zero on every configuration (see the rule in
    adrcm.theory); its block is its anchors alone, and nothing is drawn for
    it.  This is the one place a draw is skipped: the count still runs on
    the block, and the sample keeps its seed.  The samples share gamma, beta
    and their number of anchors.  Raises ParameterError when a drawn point
    or an earlier anchor equals an anchor.
    """
    params = samples[0][0]
    width = len(samples[0][1])
    xs, us, start = [], [], []
    for p, anchors, seed, draw in samples:
        if (p.gamma, p.beta, len(anchors)) != (params.gamma, params.beta, width):
            raise ParameterError("samples of one block set must share gamma, beta and anchor count")
        points = [(wrap_position(a.x, p.torus_length), a.u) for a in anchors]
        kept_x, kept_u = _kept(p, seed, points, hops) if draw else (np.empty(0), np.empty(0))
        xs.append(kept_x)
        us.append(kept_u)
        start += points
    kept = np.array([x.size for x in xs])
    # The anchors go last, block by block: the stable sort puts each after
    # the drawn points of equal position in its block.
    xs = np.concatenate(xs + [[x for x, _ in start]])
    us = np.concatenate(us + [[u for _, u in start]])
    block = np.concatenate(
        (np.repeat(np.arange(kept.size), kept), np.repeat(np.arange(kept.size), width))
    )
    order = np.lexsort((xs, block))
    # Equal points have equal positions, so only a tie in position can hide one.
    xs_sorted, block_sorted = xs[order], block[order]
    if ((xs_sorted[1:] == xs_sorted[:-1]) & (block_sorted[1:] == block_sorted[:-1])).any():
        by_point = np.lexsort((us, xs, block))
        x, u, b = xs[by_point], us[by_point], block[by_point]
        same = (x[1:] == x[:-1]) & (u[1:] == u[:-1]) & (b[1:] == b[:-1])
        if same.any():
            # The later copy is an anchor; the first such, block by block, is refused.
            first = by_point[1:][same].min()
            raise ParameterError(
                f"duplicate point ({xs[first]}, {us[first]}); an added point must be new"
            )
    # The inverse permutation maps each anchor to its sorted index.
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    bounds = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(kept + width, out=bounds[1:])
    return _Blocks(
        xs_sorted,
        us[order],
        bounds,
        np.array([p.torus_length for p, *_ in samples]),
        inverse[order.size - len(start) :].reshape(kept.size, width),
        params.gamma,
        params.beta,
    )


def _window_pairs(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (rows, cols) within each block, from one window query over every block.

    Each point takes a window of its maximal up-radius beta/u on its block's
    torus.  Every block lists its positions three times (shifted by -n, 0
    and +n) and is moved by its own offset, so the blocks lie apart on one
    sorted axis and one search finds every window.  Adding an offset rounds,
    but it is monotone, so a window can only widen, by at most one spacing of
    the largest key at each end; a window within four such spacings of its
    torus could then take a point twice, so it counts as capped and takes
    its block's middle copy, every point once.  So each window lists its own
    point once and any other point at most once, as _edges asks.
    """
    bounds = blocks.bounds
    m = bounds[1:] - bounds[:-1]
    n = blocks.lengths
    x, u = blocks.positions, blocks.marks
    points = np.arange(x.size)
    # Block b spans [4 (n_0 + ... + n_(b-1)), 4 (n_0 + ... + n_b)), its copies centred.
    shift = np.cumsum(4.0 * n) - 2.0 * n
    n_p, shift_p, m_p = np.repeat(n, m), np.repeat(shift, m), np.repeat(m, m)
    first = np.repeat(bounds[:-1], m)
    # Block b's copies fill 3 bounds[b] onwards; its first copy of point i sits at 2 bounds[b] + i.
    lowest = 2 * first + points
    keys = np.empty(3 * x.size)
    ids = np.empty(3 * x.size, dtype=np.int64)
    for copy, ext in enumerate((x - n_p, x, x + n_p)):
        keys[lowest + copy * m_p] = ext + shift_p
        ids[lowest + copy * m_p] = points
    radius = np.minimum(blocks.beta / u, 0.5 * n_p)
    lo = keys.searchsorted((x - radius) + shift_p, side="left")
    hi = keys.searchsorted((x + radius) + shift_p, side="right")
    slack = 4.0 * np.spacing(4.0 * n.sum())
    capped = 2.0 * radius >= n_p - slack
    lo = np.where(capped, 3 * first + m_p, lo)
    hi = np.where(capped, lo + m_p, hi)
    rows, at = _spans(lo, hi)
    return rows, ids[at]


def _block_adjacency(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """Mark-oriented adjacency of every block as one block-diagonal CSR; see _edges.

    The candidate pairs come from one window query over every block
    (_window_pairs), and each pair is tested on its block's torus.
    """
    rows, cols = _window_pairs(blocks)
    lengths = blocks.lengths
    if (lengths == lengths[0]).all():
        n = float(lengths[0])
    else:
        n = np.repeat(lengths, blocks.bounds[1:] - blocks.bounds[:-1])
    return _edges(blocks.positions, blocks.marks, rows, cols, n, blocks.gamma, blocks.beta)


def _edges(xs, us, rows, cols, n, gamma: float, beta: float, copies=1):
    """The candidate pairs (rows, cols) that are edges, as a mark-oriented CSR (see _csr).

    Row i lists the neighbours of point i with higher mark.  Column c names
    point c % size in the points listed copies times over, so a window query's
    candidates read their columns from lists as long and only edges become
    point indices.  A candidate (i, c) is an edge when its column ranks above i
    in the (mark, index) order and the kernel connects them on the torus of
    length n (one for all, or one per point), so each edge is found from its
    lower-mark end.  Every caller lists each point as its own candidate exactly
    once and any other ordered pair at most once, as both window queries do;
    so the index comparison of mark ties runs only when more candidates tie
    than there are points.
    """
    size = xs.size
    per_point = (xs, us, us ** (1.0 - gamma), np.arange(size))
    col_xs, col_us, col_pow, col_ids = (np.concatenate([a] * copies) for a in per_point)
    u_row, u_col = us[rows], col_us[cols]
    # The (mark, index) order: a higher mark, or an equal mark and a higher index.
    up, tie = u_col > u_row, u_col == u_row
    if np.count_nonzero(tie) > size:
        up |= tie & (col_ids[cols] > rows)
    keep = np.flatnonzero(up)
    rows, cols = rows[keep], cols[keep]
    del u_row, u_col, up, tie, keep  # freed for the kernel test's temporaries
    d = _torus_gap(xs[rows] - col_xs[cols], n[rows] if isinstance(n, np.ndarray) else n)
    # theory._adjacent repeats this test, operation for operation, for the
    # exact second differences; the two stay apart (see there).
    ok = np.flatnonzero(d * (us**gamma)[rows] * col_pow[cols] <= beta)
    return _csr(rows[ok], col_ids[cols[ok]], size)


def _csr(rows, cols, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows, cols) of indices below size as a CSR: (indptr, indices).

    indices[indptr[i]:indptr[i + 1]] are the columns of row i, sorted
    ascending.  Every CSR of the package is built here.
    """
    # One int64 key per pair sorts the rows, and the columns within each row.
    key = np.multiply(rows, size, dtype=np.int64) + cols
    key.sort()
    degree = np.bincount(rows, minlength=size)
    indptr = np.zeros(size + 1, dtype=np.int64)
    degree.cumsum(out=indptr[1:])
    # The sorted keys' rows are each row's index, repeated by its degree.
    key -= (np.arange(size) * size).repeat(degree)
    return indptr, key


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges [lo[i], hi[i]), range by range: (range i, index) arrays."""
    counts = hi - lo
    owner = np.arange(counts.size).repeat(counts)  # methods skip numpy's ~1 us function wrappers
    return owner, (lo - counts.cumsum() + counts).repeat(counts) + np.arange(owner.size)


def _torus_edges(xs: np.ndarray, us: np.ndarray, n: float, gamma: float, beta: float):
    """The edge list of one torus (see _edges), from one window query.

    Each point takes a window of its maximal up-radius beta/u over the
    positions listed three times (shifted by -n, 0 and +n); a window of
    radius n/2 or more is capped and takes every point once.  A candidate
    keeps its index into that list as its column (see _edges).  Each window
    lists its own point once and any other point at most once, so every
    mark tie beyond those self-pairs joins two points.  This costs fewer
    numpy calls than _window_pairs, the same query over many tori.
    """
    size = xs.size
    # Capped windows are replaced below, so the others need no cap at n/2.
    radius = beta / us
    ext = np.concatenate((xs - n, xs, xs + n))
    lo = ext.searchsorted(xs - radius, side="left")
    hi = ext.searchsorted(xs + radius, side="right")
    capped = radius >= 0.5 * n
    if capped.any():
        lo = np.where(capped, size, lo)
        hi = np.where(capped, 2 * size, hi)
    rows, at = _spans(lo, hi)
    return _edges(xs, us, rows, at, n, gamma, beta, copies=3)


def _shared_adjacency(configs: list[PointConfig]) -> None:
    """Build the edge lists of configurations of one model together, and keep each on its configuration.

    The configurations become the blocks of one block set, whose edge list
    is one block-diagonal CSR (_block_adjacency); each configuration keeps
    its block, which equals the CSR neighborhood_adjacency would build.  For
    many small tori this costs fewer numpy calls than one query per torus.
    """
    p = configs[0].params
    bounds = np.zeros(len(configs) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in configs], out=bounds[1:])
    blocks = _Blocks(
        np.concatenate([c.positions for c in configs]),
        np.concatenate([c.marks for c in configs]),
        bounds,
        np.full(len(configs), float(p.torus_length)),
        np.zeros((len(configs), 0), dtype=np.int64),
        p.gamma,
        p.beta,
    )
    indptr, indices = _block_adjacency(blocks)
    for config, lo, hi in zip(configs, bounds[:-1].tolist(), bounds[1:].tolist()):
        _keep(config, (indptr[lo : hi + 1] - indptr[lo], indices[indptr[lo] : indptr[hi]] - lo))


def _keep(config: PointConfig, graph: tuple[np.ndarray, np.ndarray]) -> None:
    """Keep the edge list graph on its configuration, read-only, for every later reader."""
    for array in graph:
        array.setflags(write=False)
    config._graph = graph


def neighborhood_adjacency(config: PointConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mark-oriented adjacency of the configuration graph as CSR; see _edges.

    The CSR is built at the first call and kept on the configuration; its
    arrays are read-only.  One torus takes its own window query,
    _torus_edges, in place of the block query of _shared_adjacency: the
    same edge list, about 0.05 to 0.1 ms sooner per torus of 250 to 1000
    points.
    """
    if config._graph is None:
        p = config.params
        _keep(config, _torus_edges(config.positions, config.marks, p.torus_length, p.gamma, p.beta))
    return config._graph


def _transpose(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transposed CSR: entry j of row i becomes entry i of row j.

    Of the up edge list, it gives each point's lower-mark neighbours, sorted ascending.
    """
    size = indptr.size - 1
    return _csr(indices, np.arange(size).repeat(np.diff(indptr)), size)


def _csr_rows(indptr, indices, rows) -> tuple[np.ndarray, np.ndarray]:
    """Every entry of the listed CSR rows: (position in rows, entry) arrays."""
    owner, at = _spans(indptr[rows], indptr[rows + 1])
    return owner, indices[at]


class _RowSpans:
    """Membership table of a CSR: is value v an entry of row i?

    Each row holds one boolean cell per index from its first entry to its
    last (rows are sorted), so the table has sum-of-row-spans cells plus one
    False cell at 0 for every query outside its row's span.  Points are
    indexed in position order and edges are short, so a torus's rows span
    few indices, and a block-diagonal CSR's rows never leave their block:
    the size does not grow with the index gaps between blocks.  A query is
    two compares and one read of the table.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        degree = np.diff(indptr)
        empty = degree == 0
        # An empty row gets first 0 and last -1, a span no value lies in; its
        # reads of the padded entries (the pad, or a neighbour's) are discarded.
        padded = np.append(indices, 0)
        self.first = np.where(empty, 0, padded[indptr[:-1]])
        self.last = np.where(empty, -1, padded[indptr[1:] - 1])
        span = self.last - self.first + 1
        self.cells = np.zeros(1 + int(span.sum()), dtype=bool)
        # Row i's cell of value v is base[i] + v, after the rows before it.
        self.base = np.cumsum(span) - span - self.first + 1
        self.cells[np.repeat(self.base, degree) + indices] = True

    def __call__(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Element-wise test that values[i] is an entry of row rows[i]."""
        inside = (values >= self.first[rows]) & (values <= self.last[rows])
        return self.cells[(self.base[rows] + values) * inside]


# -- CSV export ------------------------------------------------------


def config_to_csv(config: PointConfig, stream: TextIO) -> None:
    """Write the configuration as ``x,u`` rows with 17 significant digits."""
    stream.write("x,u\n")
    for i in range(len(config)):
        stream.write(
            (REAL_FORMAT % config.positions[i]) + "," + (REAL_FORMAT % config.marks[i]) + "\n"
        )
