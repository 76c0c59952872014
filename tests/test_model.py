"""Core model tests: sampling laws, toroidal metric, kernel, the CSR edge list."""

import ast
import inspect
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adrcm
import adrcm.model as model
import adrcm.theory as theory
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    _derive_seeds,
    _palm_blocks,
    _transpose,
    config_to_csv,
    derive_seed,
    neighborhood_adjacency,
    sample_config,
    wrap_position,
)
from adrcm.theory import lambda_down, lambda_up, neighborhood_counts, sigma_palm

from oracles import (
    add_point,
    add_points,
    config_from_points,
    connected_oracle,
    connects,
    csr_contains_oracle,
    index_of,
    neighbors_oracle,
    palm_config,
    point_of,
    random_config,
    seed_sequence_oracle,
    torus_dist,
    transpose_oracle,
)


# -- package -----------------------------------------------------------------


def _package_names() -> set[str]:
    """The public names of the package namespace; submodules do not count."""
    return {
        name for name, value in vars(adrcm).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_the_package_exports_its_public_names():
    # The count is ROADMAP aim 2's progress measure.
    public = _package_names()
    assert public == {
        "MarkedPoint", "ModelParams", "ParameterError", "PointConfig", "config_to_csv",
        "derive_seed", "sample_config",
        "count_cliques_upto",
        "BlockSums", "DirectedTreeSpec", "TreeSpecError", "block_sums", "count_trees",
        "parse_tree_spec",
        "RegimeError", "SigmaEstimate", "gamma_diagnostics", "lambda_down", "lambda_up",
        "sigma_palm",
        "CliqueStatistic", "ExperimentPlan", "ReplicateResult", "TreeStatistic",
        "ks_distance_normal", "run_replicates", "standardize", "variance_scaling",
        "wasserstein1_distance_normal",
    }
    assert len(public) == 29


def _module_names_read(paths) -> tuple[set[str], dict[str, list[str]], set[str]]:
    """The names the modules read, their __all__ lists, and their classes' public methods.

    A name is read as a loaded name or an attribute; a definition, an import
    or a string in __all__ reads nothing.  Methods and properties are named
    Class.method.
    """
    read, exported, methods = set(), {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported[path.name] = ast.literal_eval(node.value)
            elif isinstance(node, ast.ClassDef):
                methods |= {
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    return read, exported, methods


def test_every_public_name_has_a_caller():
    # ROADMAP aim 2: no public name, method or property that only tests
    # call.  The program and its benchmark are the callers; the tests are not.
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "adrcm").glob("*.py"))
    read, exported, _ = _module_names_read(src + sorted((root / "perfbench").glob("*.py")))
    _, _, methods = _module_names_read(src)
    assert exported and methods
    unread = sorted((_package_names() | {n for names in exported.values() for n in names}) - read)
    unread += sorted(m for m in methods if m.split(".")[1] not in read)
    assert not unread, f"public names that only tests call: {unread}"


# -- parameters and points -------------------------------------------------


@pytest.mark.parametrize(
    "gamma,beta,n",
    [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, -1.0, 1.0), (0.5, 1.0, 0.0)],
)
def test_invalid_params_rejected(gamma, beta, n):
    with pytest.raises(ParameterError):
        ModelParams(gamma, beta, n)


@pytest.mark.parametrize(
    "beta,n,key",
    [
        (math.inf, 1.0, "beta"),
        (math.nan, 1.0, "beta"),
        (1.0, math.inf, "torus_length"),
        (1.0, math.nan, "torus_length"),
    ],
)
def test_non_finite_params_rejected(beta, n, key):
    with pytest.raises(ParameterError, match=f"{key} must be positive and finite"):
        ModelParams(0.3, beta, n)


def test_invalid_mark_rejected():
    with pytest.raises(ParameterError):
        MarkedPoint(0.0, 0.0)
    with pytest.raises(ParameterError):
        MarkedPoint(0.0, 1.5)


# -- torus metric -----------------------------------------------------------


def test_torus_dist_wraparound_shorter():
    n = 7.0
    assert torus_dist(-0.4 * n, 0.4 * n, n) == pytest.approx(0.2 * n)


def test_torus_dist_identity_and_antipode():
    assert torus_dist(1.23, 1.23, 5.0) == 0.0
    assert torus_dist(0.0, 2.5, 5.0) == pytest.approx(2.5)


@given(
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    n=st.floats(0.1, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_torus_dist_properties(x, y, n):
    d = torus_dist(x, y, n)
    assert 0.0 <= d <= n / 2 + 1e-9
    assert d == pytest.approx(torus_dist(y, x, n))


def test_torus_dist_takes_an_array_of_torus_lengths():
    rng = np.random.default_rng(17)
    n = rng.uniform(0.5, 50.0, size=300)
    # Some differences exceed their torus length (d > n), some are canonical.
    x = rng.uniform(-2.5, 2.5, size=300) * n
    y = rng.uniform(-0.5, 0.5, size=300) * n
    d = np.abs(x - y)
    assert (d > n).any() and (d < n).any()
    expected = [torus_dist(float(a), float(b), float(m)) for a, b, m in zip(x, y, n)]
    assert torus_dist(x, y, n).tolist() == expected
    # Canonical inputs only: the reduction is skipped for every element.
    inside = d <= n
    assert torus_dist(x[inside], y[inside], n[inside]).tolist() == [
        e for e, keep in zip(expected, inside) if keep
    ]
    # A scalar position broadcasts against the array of lengths.
    assert torus_dist(x, 0.0, n).tolist() == [torus_dist(float(a), 0.0, float(m)) for a, m in zip(x, n)]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_torus_dist_rejects_a_non_positive_torus_length(bad):
    with pytest.raises(ParameterError, match="torus_length must be positive"):
        torus_dist(0.0, 1.0, bad)
    with pytest.raises(ParameterError, match="torus_length must be positive"):
        torus_dist(np.zeros(3), np.ones(3), np.array([5.0, bad, 5.0]))


def test_wrap_position_canonical_range():
    n = 10.0
    # Just below -n/2, the remainder (x + n/2) % n rounds up to n.
    for x in (-5.0, 5.0, 17.3, -123.4, 4.999999, np.nextafter(-5.0, -10.0)):
        w = wrap_position(x, n)
        assert -5.0 <= w < 5.0


# -- connection kernel --------------------------------------------------------


def test_connects_hand_evaluations():
    params = ModelParams(0.5, 1.0, 100.0)
    # dist 1, sqrt(0.25) * sqrt(0.64) = 0.4 <= 1
    assert connects(MarkedPoint(0.0, 0.25), MarkedPoint(1.0, 0.64), params)
    # dist 2 beats the kernel bound 1 for marks near 1
    assert not connects(MarkedPoint(0.0, 1.0), MarkedPoint(2.0, 1.0 - 1e-9), params)


def test_connects_zero_distance_always():
    params = ModelParams(0.9, 0.01, 100.0)
    assert connects(MarkedPoint(3.0, 0.001), MarkedPoint(3.0, 0.999), params)


def test_connects_symmetric_on_random_pairs():
    rng = np.random.default_rng(7)
    params = ModelParams(0.35, 0.8, 20.0)
    for _ in range(300):
        a = MarkedPoint(rng.uniform(-10, 10), rng.uniform(0.01, 1.0))
        b = MarkedPoint(rng.uniform(-10, 10), rng.uniform(0.01, 1.0))
        assert connects(a, b, params) == connects(b, a, params)


# -- sampling ----------------------------------------------------------------


def test_sample_config_poisson_mean():
    params = ModelParams(0.3, 1.0, 1000.0)
    reps = 10000
    counts = np.array([len(sample_config(params, derive_seed(11, i))) for i in range(reps)])
    se = math.sqrt(1000.0 / reps)
    assert abs(counts.mean() - 1000.0) <= 3.0 * se


def test_sample_config_deterministic():
    params = ModelParams(0.3, 1.0, 500.0)
    a = sample_config(params, 987654321)
    b = sample_config(params, 987654321)
    assert a == b
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.marks, b.marks)


def test_sample_config_empty_fraction_tiny_volume():
    params = ModelParams(0.3, 1.0, 0.001)
    reps = 100000
    empty = sum(len(sample_config(params, derive_seed(13, i))) == 0 for i in range(reps))
    target = math.exp(-0.001)
    se = math.sqrt(target * (1 - target) / reps)
    assert abs(empty / reps - target) <= 3.0 * se


def test_sample_config_marks_in_range_and_distinct():
    params = ModelParams(0.3, 1.0, 2000.0)
    cfg = sample_config(params, 5)
    assert np.all(cfg.marks > 0.0) and np.all(cfg.marks <= 1.0)
    assert np.unique(cfg.marks).size == len(cfg)
    assert np.all(np.diff(cfg.positions) >= 0.0)


class _TiedStream:
    """A generator stand-in whose first mark draw holds two exact ties."""

    def __init__(self, seed):
        self.mark_draws = [[0.5, 0.25, 0.5, 0.75, 0.25], [0.875, 0.625]]

    def poisson(self, lam):
        return 5

    def uniform(self, low, high, size):
        return np.array([3.0, -1.0, 2.0, -4.0, 0.5])

    def random(self, size):
        draw = np.array(self.mark_draws.pop(0))
        assert draw.size == size
        return draw


def _oriented_edges(cfg):
    """The edges of cfg as (lower end, upper end) point pairs, by the (mark, index) order."""
    indptr, indices = neighborhood_adjacency(cfg)
    points = list(zip(cfg.positions.tolist(), cfg.marks.tolist()))
    return {(points[i], points[j]) for i, row in enumerate(_csr_as_lists(indptr, indices)) for j in row}


def test_mark_ties_are_kept_and_ranked_by_index_in_both_samplers(monkeypatch):
    # Marks 1 - draw are 0.5, 0.75, 0.5, 0.25, 0.75 in draw order, ties
    # kept; the stream's second mark draw is never read.
    monkeypatch.setattr(model, "_rng", _TiedStream)
    params = ModelParams(0.5, 1.0, 10.0)
    cfg = sample_config(params, 7)
    assert cfg.positions.tolist() == [-4.0, -1.0, 0.5, 2.0, 3.0]
    assert cfg.marks.tolist() == [0.25, 0.75, 0.75, 0.5, 0.5]
    # From (0, 0.5) the kernel d * sqrt(u v) <= 1 reaches x = -1 and 0.5;
    # (2, 0.5), at 1 + 2e-16, is kept by the restriction's slack.  One step
    # further (2, 0.5) reaches (3, 0.5); (-4, 0.25) has no neighbour.
    anchor = MarkedPoint(0.0, 0.5)
    near, anchor_indices = palm_config(params, 7, [anchor], 1)
    assert near.positions.tolist() == [-1.0, 0.0, 0.5, 2.0]
    assert near.marks.tolist() == [0.75, 0.5, 0.75, 0.5]
    assert near.seed == 7 and near.params == params
    assert anchor_indices == [1]
    far, anchor_indices = palm_config(params, 7, [anchor], 2)
    assert far.positions.tolist() == [-1.0, 0.0, 0.5, 2.0, 3.0]
    assert anchor_indices == [1]
    # Each restriction has the edges of the whole torus with the anchor
    # added, among its points and oriented alike: the tied marks rank by
    # index in both, and the index order is the position order.
    whole, _ = add_point(cfg, anchor)
    edges = _oriented_edges(whole)
    for block in (near, far):
        points = set(zip(block.positions.tolist(), block.marks.tolist()))
        assert _oriented_edges(block) == {e for e in edges if points.issuperset(e)}
    # The one tied edge runs from the lower index up.
    assert ((2.0, 0.5), (3.0, 0.5)) in edges and ((3.0, 0.5), (2.0, 0.5)) not in edges
    for tied in (cfg, whole, near, far):
        _assert_edge_list_matches_oracle(tied)


def test_palm_config_rejects_a_drawn_point_equal_to_an_anchor(monkeypatch):
    params = ModelParams(0.5, 1.0, 10.0)
    drawn = (np.array([3.0, -1.0, 2.0]), np.array([0.25, 0.75, 0.5]))
    monkeypatch.setattr(model, "_draw", lambda params, seed: drawn)
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_blocks([(params, [MarkedPoint(2.0, 0.5)], 7, True)], 1)
    # The anchor wraps onto the drawn point at -1.
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_blocks([(params, [MarkedPoint(0.0, 0.3), MarkedPoint(9.0, 0.75)], 7, True)], 1)
    # Two equal anchors are refused as well.
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_blocks([(params, [MarkedPoint(0.0, 0.3), MarkedPoint(0.0, 0.3)], 7, True)], 1)
    # A sample that draws nothing still has its anchors checked.
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_blocks([(params, [MarkedPoint(0.0, 0.3), MarkedPoint(10.0, 0.3)], 7, False)], 1)
    near, anchor_indices = palm_config(params, 7, [MarkedPoint(2.0, 0.4)], 1)
    # The anchor follows the drawn point of equal position.
    assert (near.positions.tolist(), near.marks.tolist()) == ([2.0, 2.0, 3.0], [0.5, 0.4, 0.25])
    assert anchor_indices == [1]


def _within_hops(cfg, anchors, hops):
    """Indices of cfg within hops kernel steps of the anchors, by brute force."""
    points = list(zip(cfg.positions.tolist(), cfg.marks.tolist()))
    frontier = [(wrap_position(a.x, cfg.params.torus_length), a.u) for a in anchors]
    kept = set()
    for _ in range(hops):
        fresh = {
            i for i, q in enumerate(points)
            if i not in kept and any(connected_oracle(a, q, cfg.params) for a in frontier)
        }
        kept |= fresh
        frontier = [points[i] for i in fresh]
    return sorted(kept)


@pytest.mark.parametrize(
    "gamma,beta,n,anchors,hops",
    [
        (0.3, 1.0, 200.0, [(0.0, 0.3)], 1),
        (0.3, 1.0, 200.0, [(0.0, 0.02), (37.5, 0.6)], 1),
        (0.3, 1.0, 64.0, [(0.0, 1e-5)], 1),  # up-window covers the torus
        (0.1, 1.0, 64.0, [(0.0, 0.2)], 2),
        (0.4, 1.0, 40.0, [(0.0, 0.5)], 3),
        (0.3, 1.0, 50.0, [(25.0, 0.3), (-25.0 + 1e-9, 0.7)], 1),  # at the seam
        (0.3, 0.5, 50.0, [(24.999999, 0.05)], 2),
        (0.3, 1.0, 50.0, [(0.0, 0.3)], 0),
        (0.3, 1.0, 50.0, [], 2),
    ],
)
def test_palm_config_keeps_the_points_within_hops(gamma, beta, n, anchors, hops):
    params = ModelParams(gamma, beta, n)
    anchors = [MarkedPoint(x, u) for x, u in anchors]
    for i in range(8):
        seed = derive_seed(41, i)
        full = sample_config(params, seed)
        near, anchor_indices = palm_config(params, seed, anchors, hops)
        expected = _within_hops(full, anchors, hops)
        kept = PointConfig(params, full.positions[expected], full.marks[expected], seed)
        kept, expected_indices = add_points(kept, anchors)
        assert near.positions.tolist() == kept.positions.tolist()
        assert near.marks.tolist() == kept.marks.tolist()
        assert near.seed == seed and near.params == params
        assert anchor_indices == expected_indices


# -- up and down rows of a point ------------------------------------------------


def _up_down_rows(cfg, i):
    """The up and down rows of vertex i, as lists."""
    indptr, indices = neighborhood_adjacency(cfg)
    down_ptr, down_idx = _transpose(indptr, indices)
    ups = indices[indptr[i] : indptr[i + 1]].tolist()
    return ups, down_idx[down_ptr[i] : down_ptr[i + 1]].tolist()


def test_up_neighbors_empty_config():
    params = ModelParams(0.5, 1.0, 10.0)
    aug, i = add_point(config_from_points(params, []), MarkedPoint(0.0, 0.5))
    assert (len(aug), i, _up_down_rows(aug, i)) == (1, 0, ([], []))


def test_up_neighbors_single_point_example():
    params = ModelParams(0.5, 1.0, 50.0)
    cfg = config_from_points(params, [(1.0, 0.64)])
    aug, i = add_point(cfg, MarkedPoint(0.0, 0.25))
    assert (i, _up_down_rows(aug, i)) == (0, ([1], []))


def test_down_neighbors_all_lower_mark():
    params = ModelParams(0.4, 1.2, 60.0)
    rng = np.random.default_rng(3)
    cfg = random_config(params, rng, 40)
    aug, i = add_point(cfg, MarkedPoint(0.0, 0.7))
    for j in _up_down_rows(aug, i)[1]:
        assert aug.marks[j] < 0.7


def test_neighbor_queries_match_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        gamma = rng.uniform(0.05, 0.95)
        beta = rng.uniform(0.2, 2.0)
        n = rng.uniform(1.0, 30.0)
        params = ModelParams(gamma, beta, n)
        cfg = random_config(params, rng, 50)
        x = rng.uniform(-n / 2, n / 2)
        u = 1.0 - rng.random()
        aug, i = add_point(cfg, MarkedPoint(x, u))
        assert _up_down_rows(aug, i) == neighbors_oracle(aug, point_of(aug, i), member_index=i)


def test_neighbors_of_member_point_match_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(200):
        params = ModelParams(rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.5), 12.0)
        cfg = random_config(params, rng, 30)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        assert _up_down_rows(cfg, i) == neighbors_oracle(cfg, point_of(cfg, i), member_index=i)


def test_up_down_partition_neighbors():
    rng = np.random.default_rng(15)
    params = ModelParams(0.3, 1.0, 25.0)
    for _ in range(50):
        cfg = random_config(params, rng, 40)
        p = MarkedPoint(float(rng.uniform(-12.5, 12.5)), 1.0 - float(rng.random()))
        aug, i = add_point(cfg, p)
        ups, downs = _up_down_rows(aug, i)
        assert not (set(ups) & set(downs))
        o_ups, o_downs = neighbors_oracle(aug, point_of(aug, i), member_index=i)
        assert set(ups) | set(downs) == set(o_ups) | set(o_downs)


def test_tied_marks_split_by_index():
    params = ModelParams(0.5, 2.0, 10.0)
    cfg = config_from_points(params, [(-1.0, 0.5), (1.0, 0.5)])
    assert _up_down_rows(cfg, 0) == ([1], [])
    assert _up_down_rows(cfg, 1) == ([], [0])


# -- CSR edge list -------------------------------------------------------------


def _csr_as_lists(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(indptr.size - 1)]


@pytest.mark.parametrize(
    "lo, hi",
    [
        ([], []),
        ([3, 3, 0, 7], [3, 5, 0, 9]),
        ([4, 0, 2], [4, 0, 2]),
        ([5, 1, 1, 0], [9, 2, 4, 6]),
    ],
    ids=["no ranges", "empty ranges among others", "only empty ranges", "overlapping"],
)
def test_spans_list_every_index_of_each_range_in_order(lo, hi):
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    owner, at = model._spans(lo, hi)
    expected = [(i, v) for i in range(lo.size) for v in range(lo[i], hi[i])]
    assert list(zip(owner.tolist(), at.tolist())) == expected


@pytest.mark.parametrize(
    "rows, cols, size, row_type",
    [
        ([], [], 0, np.int64),
        ([], [], 5, np.int64),
        ([4, 0, 4, 2, 0, 4], [1, 5, 0, 2, 3, 3], 6, np.int64),
        # Keys row * size + col past 2^31, from int32 rows.
        ([69999, 0, 69999], [1, 69998, 0], 70000, np.int32),
    ],
    ids=["size 0", "no pairs", "rows with no entries", "int32 rows"],
)
def test_csr_lists_each_rows_columns_in_order(rows, cols, size, row_type):
    rows, cols = np.array(rows, dtype=row_type), np.array(cols, dtype=np.int64)
    indptr, indices = model._csr(rows, cols, size)
    lists = [sorted(c for r, c in zip(rows.tolist(), cols.tolist()) if r == i) for i in range(size)]
    assert _csr_as_lists(indptr, indices) == lists
    assert indptr[-1] == rows.size
    assert indptr.dtype == indices.dtype == np.int64


@pytest.mark.parametrize("n", [1.0, 16.0, 250.0, 1000.0])
def test_transpose_equals_the_argsort_transpose(n):
    empty = np.zeros(0, dtype=np.int64)
    graphs = [(np.zeros(1, dtype=np.int64), empty), (np.zeros(4, dtype=np.int64), empty)]
    params = ModelParams(0.3, 1.0, n)
    graphs += [neighborhood_adjacency(sample_config(params, seed)) for seed in range(10)]
    graphs.append(model._block_adjacency(_window_cases("mixed lengths")[0]))
    for indptr, indices in graphs:
        down = _transpose(indptr, indices)
        expected = transpose_oracle(indptr, indices)
        assert down[0].tolist() == expected[0].tolist()
        assert down[1].tolist() == expected[1].tolist()
        assert down[1].dtype == expected[1].dtype
    assert sum(indices.size for _, indices in graphs) > 100


def _assert_edge_list_matches_oracle(*configs):
    """Each configuration's lone query, and the block query over all of them, against the oracle.

    The configurations share one model; the block query is the one
    _shared_adjacency builds for a replicate chunk.
    """
    shared = [PointConfig(c.params, c.positions, c.marks, 0) for c in configs]
    model._shared_adjacency(shared)
    for cfg, block in zip(configs, shared):
        # The oracle lists ascending indices, so equality also checks the order.
        expected = [
            neighbors_oracle(cfg, point_of(cfg, i), member_index=i)[0] for i in range(len(cfg))
        ]
        lone = neighborhood_adjacency(PointConfig(cfg.params, cfg.positions, cfg.marks, 0))
        for indptr, indices in (lone, neighborhood_adjacency(block)):
            assert indptr.size == len(cfg) + 1
            assert _csr_as_lists(indptr, indices) == expected


def _with_neighbour_ties(cfg):
    """cfg with each third point taking the mark of the point before it, its neighbour in position."""
    us = cfg.marks.copy()
    us[1::3] = us[:-1:3]
    return PointConfig(cfg.params, cfg.positions, us, cfg.seed)


def test_edge_list_rows_match_brute_force():
    rng = np.random.default_rng(31)
    capped = uncapped = 0
    for _ in range(150):
        # n down to 1 caps every window (2 beta / u >= n); larger n caps the
        # windows of small marks only.
        params = ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.0), rng.uniform(1.0, 30.0))
        cfg = random_config(params, rng, 84)
        _assert_edge_list_matches_oracle(cfg, _with_neighbour_ties(cfg))
        windows = 2.0 * params.beta / cfg.marks >= params.torus_length
        capped += int(windows.sum())
        uncapped += int((~windows).sum())
    # Both kinds of window were checked, each many times.
    assert capped > 500 and uncapped > 500


def test_edge_list_capped_windows_tied_marks_and_tiny_configs():
    capped = ModelParams(0.3, 1.0, 2.0)
    assert np.all(2.0 * capped.beta / np.linspace(0.01, 1.0, 50) >= capped.torus_length)
    _assert_edge_list_matches_oracle(random_config(capped, np.random.default_rng(4), 20))
    params = ModelParams(0.5, 2.0, 10.0)
    tied = config_from_points(params, [(-1.0, 0.5), (1.0, 0.5), (0.0, 0.5), (3.0, 0.2), (4.5, 0.2)])
    _assert_edge_list_matches_oracle(tied)
    assert _csr_as_lists(*neighborhood_adjacency(tied))[0] == [1, 2]
    for points in ([], [(0.0, 0.5)]):
        cfg = config_from_points(params, points)
        _assert_edge_list_matches_oracle(cfg, cfg)
        indptr, indices = neighborhood_adjacency(cfg)
        assert indptr.tolist() == [0] * (len(points) + 1)
        assert indices.size == 0


def test_local_edge_list_matches_brute_force():
    # Each model's configurations go through the lone query one by one and
    # through the block query together.
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.0), rng.uniform(1.0, 30.0))
        configs = [random_config(params, rng, 60) for _ in range(5)]
        _assert_edge_list_matches_oracle(*configs, *(_with_neighbour_ties(c) for c in configs))
    tied = config_from_points(ModelParams(0.5, 2.0, 10.0), [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5)])
    _assert_edge_list_matches_oracle(tied, tied)
    assert _csr_as_lists(*neighborhood_adjacency(tied)) == [[1, 2], [2], []]


def _blocks_of(rng, sizes, lengths, tie_every=0):
    """Random blocks of the given sizes and torus lengths.

    With tie_every > 0, every tie_every-th mark of a block equals its first.
    """
    xs, us = [], []
    for size, n in zip(sizes, lengths):
        xs.append(np.sort(rng.uniform(-0.5 * n, 0.5 * n, size)))
        u = 1.0 - rng.random(size)
        if tie_every and size > 1:
            u[::tie_every] = u[0]
        us.append(u)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return model._Blocks(
        np.concatenate(xs), np.concatenate(us), bounds, np.array(lengths, dtype=np.float64),
        np.zeros((len(sizes), 0), dtype=np.int64), 0.3, 1.0,
    )


def _every_ordered_pair_adjacency(blocks):
    """The edge list from every ordered pair of each block, self-pairs included."""
    rows, cols = [], []
    for lo, hi in zip(blocks.bounds[:-1].tolist(), blocks.bounds[1:].tolist()):
        r, c = np.divmod(np.arange((hi - lo) ** 2), max(hi - lo, 1))
        rows.append(r + lo)
        cols.append(c + lo)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    lengths = blocks.lengths
    n = float(lengths[0]) if (lengths == lengths[0]).all() else (
        np.repeat(lengths, np.diff(blocks.bounds))
    )
    return model._edges(blocks.positions, blocks.marks, rows, cols, n, blocks.gamma, blocks.beta)


def _sampled_and_hand_built(case):
    """Configurations of one model: sampled tori, or hand-built ones of chosen sizes."""
    if case == "sampled tori":
        params = ModelParams(0.2, 1.0, 64.0)
        return [sample_config(params, seed) for seed in range(12)]
    if case == "tiny tori":
        params = ModelParams(0.3, 1.0, 3.0)
        return [sample_config(params, seed) for seed in range(40)]
    params = ModelParams(0.3, 1.0, 30.0)
    rng = np.random.default_rng(2378)
    blocks = _blocks_of(rng, [0, 41, 42, 43, 1, 0, 90], [30.0] * 7, tie_every=5)
    bounds = blocks.bounds.tolist()
    return [
        PointConfig(params, blocks.positions[lo:hi], blocks.marks[lo:hi], 0)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@pytest.mark.parametrize("case", ["sampled tori", "tiny tori", "empty, 41-43 points and tied"])
def test_shared_edge_lists_equal_each_configurations_own(case):
    configs = _sampled_and_hand_built(case)
    model._shared_adjacency(configs)
    edges = 0
    for config in configs:
        shared = neighborhood_adjacency(config)
        fresh = neighborhood_adjacency(PointConfig(config.params, config.positions, config.marks, 0))
        assert shared[0].tolist() == fresh[0].tolist()
        assert shared[1].tolist() == fresh[1].tolist()
        assert not shared[0].flags.writeable and not shared[1].flags.writeable
        edges += shared[1].size
    assert edges > 20


def test_a_configuration_keeps_its_edge_list():
    config = sample_config(ModelParams(0.3, 1.0, 50.0), 3)
    first = neighborhood_adjacency(config)
    assert neighborhood_adjacency(config) is first
    with pytest.raises(ValueError):
        first[1][0] = 0


def test_an_empty_block_set_has_no_candidate_pairs():
    blocks = _blocks_of(np.random.default_rng(0), [0, 0], [4.0, 4.0])
    rows, cols = model._window_pairs(blocks)
    assert rows.size == cols.size == 0
    assert model._block_adjacency(blocks)[0].tolist() == [0]


def _antipodal_block(n, beta, rng):
    """64 points on an exact grid, each antipodal to another, with 2 beta / u within rounding of n.

    A window that rounding widens past its radius n/2 would reach the
    antipodal point through both of its copies.
    """
    xs = -0.5 * n + np.arange(64) * (n / 64)
    us = 2.0 * beta / n * (1.0 + np.arange(-32, 32) * np.finfo(float).eps)
    return xs, rng.permutation(np.minimum(us, 1.0))


def _window_cases(name):
    """The block sets of one window-query case, each drawn from a seed of its own."""
    if name == "tiny tori":
        rng = np.random.default_rng(930)
        sizes = [42, 50, 60, 45, 80]
        return [_blocks_of(rng, sizes, rng.uniform(1.0, 8.0, len(sizes)).tolist())]
    if name == "empty and 41-43 points":
        rng = np.random.default_rng(1880)
        sizes = [0, 41, 42, 43, 0, 42, 1, 43, 0]
        return [_blocks_of(rng, sizes, [30.0] * len(sizes), tie_every=4)]
    if name == "mixed lengths":
        rng = np.random.default_rng(1324)
        sizes = rng.integers(0, 150, 30).tolist() + [60]
        return [_blocks_of(rng, sizes, rng.uniform(1.0, 300.0, 30).tolist() + [1e5])]
    # Windows within rounding of their torus, after a block 1e4 times longer,
    # whose length makes the offset keys of the short block round coarsely.
    rng = np.random.default_rng(1926)
    blocks = _blocks_of(rng, [50, 64], [25000.0, 2.5])
    xs, us = _antipodal_block(2.5, blocks.beta, rng)
    return [blocks._replace(
        positions=np.concatenate([blocks.positions[:50], xs]),
        marks=np.concatenate([blocks.marks[:50], us]),
    )]


def _assert_self_once(rows, points, size):
    """Each of size points is its own candidate exactly once."""
    own = rows[rows == points]
    assert np.bincount(own, minlength=size).tolist() == [1] * size


@pytest.mark.parametrize(
    "case",
    ["tiny tori", "empty and 41-43 points", "mixed lengths", "windows near the cap"],
)
def test_one_window_query_gives_every_block_its_own_edge_list(case):
    for blocks in _window_cases(case):
        rows, cols = model._window_pairs(blocks)
        size = blocks.positions.size
        assert np.unique(rows * size + cols).size == rows.size
        # The invariant that lets _edges skip the index comparison of self-pairs.
        _assert_self_once(rows, cols, size)
        indptr, indices = model._block_adjacency(blocks)
        expected = _every_ordered_pair_adjacency(blocks)
        assert indptr.tolist() == expected[0].tolist()
        assert indices.tolist() == expected[1].tolist()
        # Block by block, the same rows as each block's own configuration.
        bounds, lists = blocks.bounds.tolist(), _csr_as_lists(indptr, indices)
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            params = ModelParams(blocks.gamma, blocks.beta, float(blocks.lengths[b]))
            config = PointConfig(params, blocks.positions[lo:hi], blocks.marks[lo:hi], 0)
            own = [[j + lo for j in row] for row in _csr_as_lists(*neighborhood_adjacency(config))]
            assert lists[lo:hi] == own
        assert indices.size > 100


@pytest.mark.parametrize("tie_every", [0, 1, 3])
@pytest.mark.parametrize("one_length", [True, False])
def test_small_blocks_list_each_pair_once_with_the_same_edge_list(tie_every, one_length):
    rng = np.random.default_rng(90 + tie_every)
    sizes = [0, 1, 2, 41, 0, 41] + rng.integers(0, 42, 40).tolist()
    lengths = [6.0] * len(sizes) if one_length else rng.uniform(2.0, 40.0, len(sizes)).tolist()
    blocks = _blocks_of(rng, sizes, lengths, tie_every)
    rows, cols = model._window_pairs(blocks)
    size = blocks.positions.size
    assert np.unique(rows * size + cols).size == rows.size
    _assert_self_once(rows, cols, size)
    indptr, indices = model._block_adjacency(blocks)
    expected = _every_ordered_pair_adjacency(blocks)
    assert indptr.tolist() == expected[0].tolist()
    assert indices.tolist() == expected[1].tolist()
    assert indices.size > 100


def _one_block(config):
    """The configuration as a block set of one block."""
    p = config.params
    return model._Blocks(
        config.positions, config.marks, np.array([0, len(config)]), np.array([p.torus_length]),
        np.zeros((1, 0), dtype=np.int64), p.gamma, p.beta,
    )


def _lone_query_candidates(config):
    """The candidates (rows, points) that _torus_edges hands to _edges, and the edge list it returns."""
    edges, seen = model._edges, []

    def record(xs, us, rows, cols, *args, **kwargs):
        # Column c names point c % size of the tripled lists.
        seen.append((rows, cols % max(xs.size, 1)))
        return edges(xs, us, rows, cols, *args, **kwargs)

    p = config.params
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_edges", record)
        graph = model._torus_edges(config.positions, config.marks, p.torus_length, p.gamma, p.beta)
    return seen[0], graph


def _assert_lone_torus_edge_list(config):
    """A configuration's own edge list equals every ordered pair's and the block query's.

    Its window query lists each point as its own candidate exactly once.
    """
    indptr, indices = neighborhood_adjacency(config)
    (rows, points), graph = _lone_query_candidates(config)
    _assert_self_once(rows, points, len(config))
    assert np.unique(rows * max(len(config), 1) + points).size == rows.size
    block = _one_block(config)
    assert graph[0].tolist() == indptr.tolist() and graph[1].tolist() == indices.tolist()
    for expected in (_every_ordered_pair_adjacency(block), model._block_adjacency(block)):
        assert indptr.tolist() == expected[0].tolist()
        assert indices.tolist() == expected[1].tolist()
    return indptr, indices


@pytest.mark.parametrize("n", [1.0, 2.5, 8.0, 64.0])
def test_one_torus_query_lists_each_pair_once_near_the_cap(n):
    rng = np.random.default_rng(int(n * 10))
    beta = 1.0
    xs, us = _antipodal_block(n, beta, rng)
    config = PointConfig(ModelParams(0.3, beta, n), xs, us, 0)
    indptr, indices = _assert_lone_torus_edge_list(config)
    # A pair listed twice would be an edge twice, a repeated index in its row.
    rows = np.repeat(np.arange(xs.size), np.diff(indptr))
    assert np.unique(rows * xs.size + indices).size == indices.size
    # Antipodal pairs, the ones that two copies of a window could both reach, are edges.
    gap = np.abs(xs[rows] - xs[indices])
    assert (np.minimum(gap, n - gap) == 0.5 * n).sum() > 0


@pytest.mark.parametrize("n", [1.0, 3.0, 64.0, 1000.0])
@pytest.mark.parametrize("beta", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("gamma", [0.05, 0.3, 0.9])
def test_lone_torus_edge_list_equals_every_pair_and_the_block_query(gamma, beta, n):
    params = ModelParams(gamma, beta, n)
    edges = 0
    for seed in range(8 if n < 64.0 else 1):
        config = sample_config(params, seed)
        for c in (config, _with_neighbour_ties(config)):
            edges += _assert_lone_torus_edge_list(c)[1].size
    assert edges > 0


@pytest.mark.parametrize(
    "points",
    [
        [],
        [(0.0, 0.5)],
        [(-1.0, 0.5), (1.0, 0.5), (0.0, 0.5), (3.0, 0.2), (4.5, 0.2)],
        [(x, 0.5) for x in np.linspace(-5.0, 4.5, 12).tolist()],
        [(-4.75, 0.3), (4.75, 0.3), (0.0, 0.01), (2.0, 0.01)],
    ],
    ids=["empty", "one point", "ties in one window", "every mark equal", "ties across the seam, capped"],
)
def test_lone_torus_edge_list_of_tied_empty_and_one_point_configurations(points):
    config = config_from_points(ModelParams(0.5, 2.0, 10.0), points)
    indptr, indices = _assert_lone_torus_edge_list(config)
    assert indptr.size == len(points) + 1
    marks = config.marks
    tied = marks[np.repeat(np.arange(len(points)), np.diff(indptr))] == marks[indices]
    # Every tied configuration has edges between equal marks, so the index comparison ran.
    assert tied.any() == (len(points) > 1)


def _lexsort_edges(xs, us, rows, cols, n, gamma, beta):
    """The edge list as built before the one-key sort: powers per candidate, one lexsort."""
    keep = (us[cols] > us[rows]) | ((us[cols] == us[rows]) & (cols > rows))
    rows, cols = rows[keep], cols[keep]
    if isinstance(n, np.ndarray):
        n = n[rows]
    d = torus_dist(xs[rows], xs[cols], n)
    ok = d * us[rows] ** gamma * us[cols] ** (1.0 - gamma) <= beta
    rows, cols = rows[ok], cols[ok]
    indptr = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=xs.size), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _block_sets(source, trial, rng):
    if source == "tori":
        params = ModelParams(rng.uniform(0.05, 0.5), rng.uniform(0.3, 2.0), rng.uniform(2.0, 400.0))
        configs = [sample_config(params, seed) for seed in (trial, trial + 100)]
        bounds = np.concatenate(([0], np.cumsum([len(c) for c in configs])))
        return [model._Blocks(
            np.concatenate([c.positions for c in configs]), np.concatenate([c.marks for c in configs]),
            bounds, np.full(2, params.torus_length), np.zeros((2, 0), dtype=np.int64),
            params.gamma, params.beta,
        )]
    if source == "every mark tied":
        # Every candidate ties, so the index comparison decides each orientation.
        blocks = _blocks_of(rng, rng.integers(0, 60, 8).tolist(), rng.uniform(1.0, 40.0, 8).tolist())
        return [blocks._replace(marks=np.full(blocks.marks.size, 0.5))]
    # A wedge-root chunk at one anchor, and a joint sigma chunk on tori of many lengths.
    params = ModelParams(0.3, 1.0, 256.0)
    return [
        model._palm_blocks(theory._at_anchors(params, [MarkedPoint(0.0, 0.01)], trial, (), 0, 100), 2),
        model._palm_blocks(theory._sigma_samples(params, 100.0, 64.0, trial, (2,), 0, 100), 1),
    ]


@pytest.mark.parametrize("source", ["tori", "every mark tied", "palm chunks"])
def test_the_one_key_sort_gives_the_lexsort_edge_list(source):
    rng = np.random.default_rng(41)
    for blocks in (b for trial in range(6) for b in _block_sets(source, trial, rng)):
        rows, cols = model._window_pairs(blocks)
        n = np.repeat(blocks.lengths, np.diff(blocks.bounds))
        args = (blocks.positions, blocks.marks, rows, cols, n, blocks.gamma, blocks.beta)
        indptr, indices = model._edges(*args)
        expected = _lexsort_edges(*args)
        assert indptr.tolist() == expected[0].tolist()
        assert indices.tolist() == expected[1].tolist()
        assert indices.size > 0


# -- CSR membership table ---------------------------------------------------------


def _every_query(indptr, indices):
    """The table's answer and the key search's to every (row, value), values one past each end."""
    size = indptr.size - 1
    rows = np.repeat(np.arange(size), size + 2)
    values = np.tile(np.arange(-1, size + 1), size)
    found = model._RowSpans(indptr, indices)(rows, values)
    return found, csr_contains_oracle(indptr, indices, rows, values)


def _membership_case(case):
    """CSRs of one kind of input, as (indptr, indices) pairs."""
    if case == "empty graphs":
        empty = np.zeros(0, dtype=np.int64)
        return [(np.zeros(1, dtype=np.int64), empty), (np.zeros(6, dtype=np.int64), empty)]
    if case == "empty and single-entry rows":
        lists = [[], [3], [], [0], [1, 4], [], [2]]
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in lists])))
        return [(indptr, np.array([v for row in lists for v in row], dtype=np.int64))]
    # Capped windows join points across the seam, so rows straddle 0 and N - 1.
    graphs = []
    for n in (2.0, 5.0, 16.0):
        for seed in range(5):
            up = neighborhood_adjacency(sample_config(ModelParams(0.3, 1.0, n), seed))
            graphs += [up, _transpose(*up)]
    return graphs


@pytest.mark.parametrize("case", ["empty graphs", "empty and single-entry rows", "capped windows"])
def test_the_membership_table_answers_as_the_key_search(case):
    empty = np.zeros(0, dtype=np.int64)
    straddles = 0
    for indptr, indices in _membership_case(case):
        found, expected = _every_query(indptr, indices)
        assert found.tolist() == expected.tolist()
        assert found.sum() == indices.size
        # An empty query, as a listing with no candidates asks.
        assert model._RowSpans(indptr, indices)(empty, empty).size == 0
        size = indptr.size - 1
        for row in _csr_as_lists(indptr, indices):
            straddles += bool(row) and row[0] < size // 4 and row[-1] >= size - size // 4
    if case == "capped windows":
        assert straddles > 20


def test_the_membership_table_of_far_apart_blocks_does_not_grow_with_the_gap():
    graphs = [neighborhood_adjacency(sample_config(ModelParams(0.3, 1.0, 64.0), s)) for s in (1, 2)]
    (ptr_a, idx_a), (ptr_b, idx_b) = graphs
    size_a = ptr_a.size - 1
    cells = []
    for gap in (0, 7, 10**6):
        # Block b's indices start gap empty rows after block a's last row.
        indptr = np.concatenate((ptr_a, np.full(gap, ptr_a[-1]), ptr_b[1:] + ptr_a[-1]))
        indices = np.concatenate((idx_a, idx_b + size_a + gap))
        table = model._RowSpans(indptr, indices)
        cells.append(table.cells.size)
        # Every row of both blocks against every vertex of both blocks.
        vertices = np.concatenate((np.arange(size_a), size_a + gap + np.arange(ptr_b.size - 1)))
        rows = np.repeat(vertices, vertices.size)
        values = np.tile(vertices, vertices.size)
        found = table(rows, values)
        assert found.tolist() == csr_contains_oracle(indptr, indices, rows, values).tolist()
        assert found.sum() == indices.size > 0
    assert cells[0] == cells[1] == cells[2]
    spans = [row[-1] - row[0] + 1 for g in graphs for row in _csr_as_lists(*g) if row]
    assert cells[0] == 1 + sum(spans)


# -- seeds -----------------------------------------------------------------------


def _no_dispatch(*args):
    raise AssertionError("a task was dispatched")


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seed(-3),
        lambda: derive_seed(5, 0, -3),
        lambda: _derive_seeds(-3, (), [0]),
        lambda: _derive_seeds(5, (1, -3), [0]),
        lambda: _derive_seeds(5, (), np.array([0, -3])),
        lambda: sigma_palm(ModelParams(0.3, 1.0, 64.0), 2, 2, mc_budget=8, seed=-3),
        lambda: neighborhood_counts(ModelParams(0.3, 1.0, 64.0), 0.5, 4, seed=-3),
    ],
    ids=["derive_seed-master", "derive_seed-path", "_derive_seeds-master",
         "_derive_seeds-prefix", "_derive_seeds-index", "sigma_palm", "neighborhood_counts"],
)
def test_a_negative_seed_raises_a_parameter_error_naming_it(monkeypatch, call):
    monkeypatch.setattr(theory, "parallel_map", _no_dispatch)
    with pytest.raises(ParameterError, match="got -3$"):
        call()


@given(
    master=st.integers(0, 2**130),
    prefix=st.lists(st.integers(0, 2**70), max_size=3),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_derive_seeds_equal_derive_seed_element_by_element(master, prefix, indices):
    # Also a guard: a numpy that changed SeedSequence would fail here.
    seeds = _derive_seeds(master, prefix, np.array(indices, dtype=np.uint64))
    assert seeds.dtype == np.uint64
    expected = [seed_sequence_oracle(master, *prefix, i) for i in indices]
    assert seeds.tolist() == expected
    assert [derive_seed(master, *prefix, i) for i in indices] == expected
    # The empty path and the bare prefix, which no index ends.
    assert derive_seed(master, *prefix) == seed_sequence_oracle(master, *prefix)


@pytest.mark.parametrize("master", [0, 2**32 - 1, 2**63 + 1, 2**64 + 5, 2**128 + 7])
@pytest.mark.parametrize("prefix", [(), (0,), (2**40,), (3, 0, 2**40)])
def test_derive_seeds_named_shapes(master, prefix):
    indices = [0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1]
    seeds = _derive_seeds(master, prefix, np.array(indices, dtype=np.uint64))
    assert seeds.tolist() == [seed_sequence_oracle(master, *prefix, i) for i in indices]
    # A range of int64 indices, as the Palm runs pass them.
    assert _derive_seeds(master, prefix, np.arange(300)).tolist() == [
        seed_sequence_oracle(master, *prefix, i) for i in range(300)
    ]
    assert derive_seed(master, *prefix) == seed_sequence_oracle(master, *prefix)


def test_derive_seeds_take_a_uint64_master_array():
    masters = np.array([0, 1, 2**32 - 1, 2**32, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    assert _derive_seeds(masters, (), 1).tolist() == [
        seed_sequence_oracle(m, 1) for m in masters.tolist()
    ]
    assert _derive_seeds(masters, (7, 2**40), np.arange(6)).tolist() == [
        seed_sequence_oracle(m, 7, 2**40, i) for i, m in enumerate(masters.tolist())
    ]
    assert _derive_seeds(masters[:0], (), 1).shape == (0,)


# -- add_point, the test oracle that inserts a point ------------------------------


def test_add_point_to_empty():
    params = ModelParams(0.5, 1.0, 10.0)
    cfg = config_from_points(params, [])
    grown, i = add_point(cfg, MarkedPoint(1.0, 0.5))
    assert len(grown) == 1 and len(cfg) == 0 and i == 0


def test_add_point_duplicate_rejected():
    params = ModelParams(0.5, 1.0, 10.0)
    cfg = config_from_points(params, [(1.0, 0.5)])
    with pytest.raises(ParameterError):
        add_point(cfg, MarkedPoint(1.0, 0.5))


def test_add_point_monotone_up_neighbors():
    rng = np.random.default_rng(8)
    params = ModelParams(0.3, 1.0, 20.0)
    for _ in range(50):
        cfg = random_config(params, rng, 25)
        if len(cfg) == 0:
            continue
        probe = int(rng.integers(len(cfg)))
        before = len(_up_down_rows(cfg, probe)[0])
        extra = MarkedPoint(float(rng.uniform(-10, 10)), 1.0 - float(rng.random()))
        try:
            grown, _ = add_point(cfg, extra)
        except ParameterError:
            continue
        after = len(_up_down_rows(grown, index_of(grown, point_of(cfg, probe)))[0])
        assert before <= after <= before + 1


def test_add_point_down_neighbors_match_oracle():
    rng = np.random.default_rng(9)
    params = ModelParams(0.45, 0.7, 15.0)
    for _ in range(100):
        cfg = random_config(params, rng, 20)
        extra = MarkedPoint(float(rng.uniform(-7.5, 7.5)), 1.0 - float(rng.random()))
        try:
            grown, idx = add_point(cfg, extra)
        except ParameterError:
            continue
        _, downs = neighbors_oracle(grown, point_of(grown, idx), member_index=idx)
        assert _up_down_rows(grown, idx)[1] == downs


def test_config_arrays_immutable():
    params = ModelParams(0.5, 1.0, 10.0)
    cfg = sample_config(params, 1)
    with pytest.raises(ValueError):
        cfg.positions[0] = 0.0


# -- Palm statistics -----------------------------------------------------------


def test_palm_down_mean_matches_intensity():
    params = ModelParams(0.3, 0.5, 200.0)
    reps = 3000
    counts = np.empty(reps)
    for i in range(reps):
        aug, j = add_point(sample_config(params, derive_seed(31, i)), MarkedPoint(0.0, 0.37))
        counts[i] = len(_up_down_rows(aug, j)[1])
    lam = lambda_down(params)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - lam) <= 3.0 * se


def test_palm_up_mean_matches_intensity():
    params = ModelParams(0.3, 0.5, 200.0)
    u = 0.1
    reps = 3000
    counts = np.empty(reps)
    for i in range(reps):
        aug, j = add_point(sample_config(params, derive_seed(37, i)), MarkedPoint(0.0, u))
        counts[i] = len(_up_down_rows(aug, j)[0])
    lam = lambda_up(u, params)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - lam) <= 3.0 * se


# -- CSV export -------------------------------------------------------------------


def test_csv_round_trip_exact():
    params = ModelParams(0.3, 1.0, 300.0)
    cfg = sample_config(params, 123)
    buffer = io.StringIO()
    config_to_csv(cfg, buffer)
    header, *rows = buffer.getvalue().splitlines()
    assert header == "x,u"
    assert len(rows) == len(cfg)
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(back[:, 0], cfg.positions)
    assert np.array_equal(back[:, 1], cfg.marks)


def test_point_config_validation():
    params = ModelParams(0.3, 1.0, 10.0)
    with pytest.raises(ParameterError):
        PointConfig(params, np.array([0.0]), np.array([1.5]), 0)
    with pytest.raises(ParameterError):
        PointConfig(params, np.array([6.0]), np.array([0.5]), 0)
    with pytest.raises(ParameterError):
        PointConfig(params, np.array([1.0, 0.0]), np.array([0.5, 0.6]), 0)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_point_config_rejects_non_finite_positions_and_marks(bad):
    params = ModelParams(0.3, 1.0, 10.0)
    value = float(bad)
    with pytest.raises(ParameterError, match="positions must be canonical"):
        PointConfig(params, np.array([value, 1.0]), np.array([0.5, 0.5]), 0)
    with pytest.raises(ParameterError, match="marks must lie"):
        PointConfig(params, np.array([1.0, 2.0]), np.array([0.5, value]), 0)
