"""Core model tests: sampling laws, toroidal metric, kernel, the CSR edge list."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adrcm.model as model
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    PointConfig,
    _palm_config,
    _transpose,
    config_to_csv,
    connects,
    derive_seed,
    neighborhood_adjacency,
    sample_config,
    torus_dist,
    wrap_position,
)
from adrcm.theory import lambda_down, lambda_up

from oracles import (
    add_point,
    add_points,
    config_from_points,
    connected_oracle,
    index_of,
    neighbors_oracle,
    random_config,
)


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


def test_wrap_position_canonical_range():
    n = 10.0
    for x in (-5.0, 5.0, 17.3, -123.4, 4.999999):
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


def test_mark_ties_are_redrawn_in_both_samplers(monkeypatch):
    # Marks 1 - draw are 0.5, 0.75, 0.5, 0.25, 0.75: the later copies (draws
    # 2 and 4) are redrawn as 1 - 0.875 and 1 - 0.625, in draw order.
    monkeypatch.setattr(model, "_rng", _TiedStream)
    params = ModelParams(0.5, 1.0, 10.0)
    cfg = sample_config(params, 7)
    assert cfg.positions.tolist() == [-4.0, -1.0, 0.5, 2.0, 3.0]
    assert cfg.marks.tolist() == [0.25, 0.75, 0.375, 0.125, 0.5]
    # From (0, 0.5) the kernel d * sqrt(u v) <= 1 reaches x = -1, 0.5 and 2;
    # one step further (2, 0.125) reaches (3, 0.5) and, across the seam,
    # (-4, 0.25).  The anchor itself is kept too.
    anchor = MarkedPoint(0.0, 0.5)
    near, anchor_indices = _palm_config(params, 7, [anchor], 1)
    assert near.positions.tolist() == [-1.0, 0.0, 0.5, 2.0]
    assert near.marks.tolist() == [0.75, 0.5, 0.375, 0.125]
    assert near.seed == 7 and near.params == params
    assert anchor_indices == [1]
    whole, i = add_point(cfg, anchor)
    assert _palm_config(params, 7, [anchor], 2) == (whole, [i])


def test_palm_config_rejects_a_drawn_point_equal_to_an_anchor(monkeypatch):
    params = ModelParams(0.5, 1.0, 10.0)
    drawn = (np.array([3.0, -1.0, 2.0]), np.array([0.25, 0.75, 0.5]))
    monkeypatch.setattr(model, "_draw", lambda params, seed: drawn)
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_config(params, 7, [MarkedPoint(2.0, 0.5)], 1)
    # The anchor wraps onto the drawn point at -1.
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_config(params, 7, [MarkedPoint(0.0, 0.3), MarkedPoint(9.0, 0.75)], 1)
    # Two equal anchors are refused as well.
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_config(params, 7, [MarkedPoint(0.0, 0.3), MarkedPoint(0.0, 0.3)], 1)
    near, anchor_indices = _palm_config(params, 7, [MarkedPoint(2.0, 0.4)], 1)
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
        near, anchor_indices = _palm_config(params, seed, anchors, hops)
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
        assert _up_down_rows(aug, i) == neighbors_oracle(aug, aug.point(i), member_index=i)


def test_neighbors_of_member_point_match_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(200):
        params = ModelParams(rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.5), 12.0)
        cfg = random_config(params, rng, 30)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        assert _up_down_rows(cfg, i) == neighbors_oracle(cfg, cfg.point(i), member_index=i)


def test_up_down_partition_neighbors():
    rng = np.random.default_rng(15)
    params = ModelParams(0.3, 1.0, 25.0)
    for _ in range(50):
        cfg = random_config(params, rng, 40)
        p = MarkedPoint(float(rng.uniform(-12.5, 12.5)), 1.0 - float(rng.random()))
        aug, i = add_point(cfg, p)
        ups, downs = _up_down_rows(aug, i)
        assert not (set(ups) & set(downs))
        o_ups, o_downs = neighbors_oracle(aug, aug.point(i), member_index=i)
        assert set(ups) | set(downs) == set(o_ups) | set(o_downs)


def test_tied_marks_split_by_index():
    params = ModelParams(0.5, 2.0, 10.0)
    cfg = config_from_points(params, [(-1.0, 0.5), (1.0, 0.5)])
    assert _up_down_rows(cfg, 0) == ([1], [])
    assert _up_down_rows(cfg, 1) == ([], [0])


# -- CSR edge list -------------------------------------------------------------


def _csr_as_lists(indptr, indices):
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(indptr.size - 1)]


def _assert_edge_list_matches_oracle(cfg):
    indptr, indices = neighborhood_adjacency(cfg)
    assert indptr.size == len(cfg) + 1
    # The oracle lists ascending indices, so equality also checks the order.
    expected = [neighbors_oracle(cfg, cfg.point(i), member_index=i)[0] for i in range(len(cfg))]
    assert _csr_as_lists(indptr, indices) == expected


def test_edge_list_rows_match_brute_force():
    rng = np.random.default_rng(31)
    sizes = []
    for _ in range(150):
        # n down to 1 caps every window (2 beta / u >= n); larger n caps the
        # windows of small marks only.
        params = ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.0), rng.uniform(1.0, 30.0))
        cfg = random_config(params, rng, 2 * model._ALL_PAIRS_BELOW)
        _assert_edge_list_matches_oracle(cfg)
        sizes.append(len(cfg))
    # Both candidate generators, every pair and the windows, were checked.
    below = sum(size < model._ALL_PAIRS_BELOW for size in sizes)
    assert 30 <= below <= 120


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
        indptr, indices = neighborhood_adjacency(cfg)
        assert indptr.tolist() == [0] * (len(points) + 1)
        assert indices.size == 0


def test_local_edge_list_matches_brute_force(monkeypatch):
    # Every configuration goes through both candidate generators: every pair
    # (the former local edge list) and the windows.
    rng = np.random.default_rng(32)
    configs = [
        random_config(
            ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.0), rng.uniform(1.0, 30.0)),
            rng,
            60,
        )
        for _ in range(100)
    ]
    tied = config_from_points(ModelParams(0.5, 2.0, 10.0), [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.5)])
    for cut in (0, 10**9):
        monkeypatch.setattr(model, "_ALL_PAIRS_BELOW", cut)
        for cfg in configs:
            _assert_edge_list_matches_oracle(cfg)
        assert _csr_as_lists(*neighborhood_adjacency(tied)) == [[1, 2], [2], []]


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
        after = len(_up_down_rows(grown, index_of(grown, cfg.point(probe)))[0])
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
        _, downs = neighbors_oracle(grown, grown.point(idx), member_index=idx)
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
