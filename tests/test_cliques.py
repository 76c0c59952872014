"""Clique counting against exhaustive subset enumeration and recount oracles."""

import numpy as np
import pytest

from adrcm import theory
from adrcm.cliques import _clique_levels, count_cliques_upto
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    _palm_blocks,
    neighborhood_adjacency,
    sample_config,
    wrap_position,
)

from oracles import (
    add_point,
    add_points,
    centered,
    centered_cliques_oracle,
    cliques_containing_oracle,
    cliques_oracle,
    common_neighbours_oracle,
    config_from_points,
    connects,
    diff1,
    diff2_recount,
    index_of,
    joint,
    joint_cliques_oracle,
    neighbors_oracle,
    point_of,
    random_config,
    without,
)


def _param_grid(rng):
    gamma = float(rng.choice([0.2, 0.3, 0.45]))
    beta = float(rng.choice([0.5, 1.0]))
    return ModelParams(gamma, beta, float(rng.uniform(4.0, 20.0)))


def _per_center(cfg, k):
    return {i: centered(cfg, i, k)[k - 1] for i in range(len(cfg))}


def test_count_cliques_k1_is_point_count():
    cfg = sample_config(ModelParams(0.3, 1.0, 50.0), 3)
    assert count_cliques_upto(cfg, 1) == [len(cfg)]
    assert all(v == 1 for v in _per_center(cfg, 1).values())


def test_count_cliques_k2_is_edge_count():
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 25)
        assert count_cliques_upto(cfg, 2)[1] == cliques_oracle(cfg, 2)[0]


def test_count_cliques_matches_subset_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(60):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 25)
        totals = count_cliques_upto(cfg, 4)
        for k in (2, 3, 4):
            total, per_center = cliques_oracle(cfg, k)
            assert totals[k - 1] == total
            assert _per_center(cfg, k) == per_center


def test_count_cliques_upto_five_matches_subset_enumeration_on_dense_tori():
    # Level 5 tests each candidate against three earlier columns on one table.
    rng = np.random.default_rng(55)
    params = ModelParams(0.3, 2.0, 5.0)
    fives = 0
    for _ in range(4):
        cfg = random_config(params, rng, 16)
        totals = count_cliques_upto(cfg, 5)
        assert totals[0] == len(cfg)
        for k in (2, 3, 4, 5):
            total, per_center = cliques_oracle(cfg, k)
            assert totals[k - 1] == total
            assert _per_center(cfg, k) == per_center
        fives += totals[4]
    assert fives > 100


def _clique_case(case):
    """Configurations of one kind: dense sampled tori, an edgeless one or an empty one."""
    if case == "sampled tori":
        return [sample_config(ModelParams(0.3, 2.0, 8.0), seed) for seed in range(6)]
    # Marks of 1 join points only within beta = 0.3; these lie 3 apart.
    params = ModelParams(0.3, 0.3, 30.0)
    points = [(x, 1.0) for x in np.arange(-15.0, 15.0, 3.0).tolist()] if case == "edgeless" else []
    return [config_from_points(params, points)]


@pytest.mark.parametrize("case", ["sampled tori", "edgeless", "empty"])
def test_the_counted_last_level_equals_the_listed_levels_and_subset_enumeration(case):
    fives = 0
    for cfg in _clique_case(case):
        seeds = (np.arange(len(cfg)),)
        listed = [level[0].size for level in _clique_levels(neighborhood_adjacency(cfg), seeds, 5)]
        assert listed == [len(cfg)] + [cliques_oracle(cfg, k)[0] for k in range(2, 6)]
        # k_max = 3 counts the level after the edges; k_max >= 4 lists one level or more first.
        for k_max in range(1, 6):
            assert count_cliques_upto(cfg, k_max) == listed[:k_max]
        fives += listed[4]
    assert (fives > 0) == (case == "sampled tori")


def test_center_decomposition_identity():
    rng = np.random.default_rng(99)
    for _ in range(30):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 30)
        assert count_cliques_upto(cfg, 3)[2] == sum(_per_center(cfg, 3).values())


def test_count_cliques_upto_consistent():
    rng = np.random.default_rng(17)
    params = ModelParams(0.3, 1.0, 30.0)
    cfg = random_config(params, rng, 30)
    totals = count_cliques_upto(cfg, 4)
    for k in (1, 2, 3, 4):
        assert count_cliques_upto(cfg, k) == totals[:k]


def test_invalid_k_rejected():
    cfg = sample_config(ModelParams(0.3, 1.0, 10.0), 0)
    with pytest.raises(ParameterError):
        count_cliques_upto(cfg, -2)


# -- vertex indices ----------------------------------------------------------------
# The kernels take index rows as given; the helpers refuse a row that is not
# distinct vertices of the configuration, such as index_of's -1 for a point
# that add_point failed to insert.


def _triangle():
    """Three points, every pair connected: an unchecked index still counts something."""
    cfg = config_from_points(ModelParams(0.3, 1.0, 10.0), [(0.0, 0.5), (0.5, 0.6), (1.0, 0.7)])
    assert count_cliques_upto(cfg, 3) == [3, 3, 1]
    return cfg


@pytest.mark.parametrize("i", [-1, 3])
def test_centered_rejects_an_index_outside_the_configuration(i):
    with pytest.raises(ParameterError, match="outside 0..2"):
        centered(_triangle(), i, 3)


@pytest.mark.parametrize("i", [-1, 3])
def test_diff1_rejects_an_index_outside_the_configuration(i):
    with pytest.raises(ParameterError, match="outside 0..2"):
        diff1(_triangle(), i, 3)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)])
@pytest.mark.parametrize("k_max", [1, 3])
def test_diff2_rejects_indices_outside_the_configuration_or_equal(i, j, k_max):
    with pytest.raises(ParameterError, match="outside 0..2|must differ"):
        diff2_recount(_triangle(), i, j, k_max)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)])
def test_joint_rejects_indices_outside_the_configuration_or_equal(i, j):
    with pytest.raises(ParameterError, match="outside 0..2|must differ"):
        joint(_triangle(), i, j, 2, 2)


# -- centered counts -------------------------------------------------------


def test_centered_k1_and_k2():
    rng = np.random.default_rng(31)
    params = ModelParams(0.3, 1.0, 20.0)
    cfg = random_config(params, rng, 25)
    aug, i = add_point(cfg, MarkedPoint(0.0, 0.4))
    assert centered(aug, i, 1) == [1]
    ups, _ = neighbors_oracle(aug, point_of(aug, i), member_index=i)
    assert centered(aug, i, 2) == [1, len(ups)]


def test_centered_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 20)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        counts = centered(cfg, i, 3)
        assert centered(cfg, i, 2) == counts[:2]
        for k in (2, 3):
            assert counts[k - 1] == len(centered_cliques_oracle(cfg, i, k))


def test_centered_palm_translation_invariance():
    rng = np.random.default_rng(4)
    params = ModelParams(0.3, 1.0, 16.0)
    cfg = random_config(params, rng, 25)
    u = 0.21
    aug, i = add_point(cfg, MarkedPoint(0.0, u))
    base = centered(aug, i, 3)[2]
    # translate every point by a constant and re-center the probe
    delta = 3.7
    pts = [
        (wrap_position(x + delta, params.torus_length), m)
        for x, m in zip(cfg.positions, cfg.marks)
    ]
    moved, j = add_point(config_from_points(params, pts), MarkedPoint(delta, u))
    assert centered(moved, j, 3)[2] == base


# -- difference operators -----------------------------------------------------


def test_diff1_empty_config_k1():
    cfg, i = add_point(config_from_points(ModelParams(0.3, 1.0, 10.0), []), MarkedPoint(0.0, 0.5))
    assert diff1(cfg, i, 1) == [1]


def test_diff1_k2_is_degree():
    rng = np.random.default_rng(8)
    params = ModelParams(0.35, 1.0, 18.0)
    cfg = random_config(params, rng, 25)
    p = MarkedPoint(0.0, 0.6)
    aug, idx = add_point(cfg, p)
    degree = sum(
        1
        for j in range(len(aug))
        if j != idx and connects(point_of(aug, j), p, params)
    )
    assert diff1(aug, idx, 2) == [1, degree]


def test_diff1_matches_recount_difference():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 22)
        u = 1.0 - float(rng.random())
        if index_of(cfg, MarkedPoint(0.0, u)) >= 0:
            continue
        aug, i = add_point(cfg, MarkedPoint(0.0, u))
        recount = [a - b for a, b in zip(count_cliques_upto(aug, 3), count_cliques_upto(cfg, 3))]
        assert diff1(aug, i, 3) == recount


def test_diff1_upto_matches_individual():
    rng = np.random.default_rng(23)
    params = ModelParams(0.3, 1.0, 20.0)
    for _ in range(30):
        cfg = random_config(params, rng, 20)
        aug, i = add_point(cfg, MarkedPoint(0.0, 1.0 - float(rng.random())))
        vec = diff1(aug, i, 4)
        for k in (1, 2, 3, 4):
            assert diff1(aug, i, k) == vec[:k]


def _exact_diff2(cfg, i, j) -> list[int]:
    """The exact law's second differences at vertices i and j for sizes 1..3: 0, 1{i~j} and 1{i~j} M.

    1{i~j} is theory's kernel indicator, and M the common neighbours of the
    two by brute force.
    """
    p, q = (MarkedPoint(float(cfg.positions[m]), float(cfg.marks[m])) for m in (i, j))
    joined = int(theory._adjacent(cfg.params, p.u, q.x - p.x, q.u)[0])
    return [0, joined, joined * common_neighbours_oracle(cfg, p, q)]


def test_diff2_trivial_cases():
    rng = np.random.default_rng(3)
    params = ModelParams(0.3, 1.0, 30.0)
    cfg = random_config(params, rng, 15)
    both, (i, j) = add_points(cfg, [MarkedPoint(0.0, 0.998), MarkedPoint(14.0, 0.999)])
    assert diff2_recount(both, i, j, 1) == [0]
    # distance ~14 at marks near 1 cannot connect for beta = 1
    assert diff2_recount(both, i, j, 3) == [0, 0, 0]
    assert not theory._adjacent(params, 0.998, 14.0, 0.999)[0]
    assert _exact_diff2(both, i, j) == [0, 0, 0]


def test_diff_counts_points_already_present_as_members():
    # A configuration that already holds the added point, as a Palm
    # configuration holds its anchor, gives at its index the difference to
    # the configuration without it.
    rng = np.random.default_rng(45)
    for _ in range(100):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 18)
        if len(cfg) < 1:
            continue
        i = int(rng.integers(len(cfg)))
        full, no_i = count_cliques_upto(cfg, 4), count_cliques_upto(without(cfg, i), 4)
        assert diff1(cfg, i, 4) == [a - b for a, b in zip(full, no_i)]


def test_diff2_rejects_equal_added_points():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg, i = add_point(config_from_points(params, [(0.0, 0.5), (1.0, 0.6)]), MarkedPoint(0.0, 0.7))
    # The same point added twice is not a pair, whatever its position's wrap.
    for k_max in (2, 3):
        with pytest.raises(ParameterError):
            diff2_recount(cfg, i, i, k_max)
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_blocks([(params, [MarkedPoint(0.0, 0.7), MarkedPoint(10.0, 0.7)], 7, True)], 1)


def test_diff2_matches_four_term_recount():
    # The exact law that gamma_diagnostics uses, on configurations: the
    # four-term recount of the totals at two added points is 0 for 1-cliques,
    # 1{p~q} for edges and 1{p~q} times their common neighbours for triangles.
    rng = np.random.default_rng(44)
    joined = 0
    for _ in range(200):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 18)
        u = 1.0 - float(rng.random())
        q = MarkedPoint(float(rng.uniform(-2.0, 2.0)), 1.0 - float(rng.random()))
        p0 = MarkedPoint(0.0, u)
        if u == q.u and q.x == 0.0:
            continue
        if index_of(cfg, p0) >= 0 or index_of(cfg, MarkedPoint(wrap_position(q.x, params.torus_length), q.u)) >= 0:
            continue
        with_p, _ = add_point(cfg, p0)
        with_q, _ = add_point(cfg, q)
        with_both, (i, j) = add_points(cfg, [p0, q])
        counts = [count_cliques_upto(c, 3) for c in (with_both, with_p, with_q, cfg)]
        four_term = [a - b - c + d for a, b, c, d in zip(*counts)]
        assert diff2_recount(with_both, i, j, 3) == four_term
        assert _exact_diff2(with_both, i, j) == four_term
        joined += four_term[2] > 0
    assert joined > 20


def test_diff2_symmetric_under_exchange():
    rng = np.random.default_rng(55)
    params = ModelParams(0.3, 1.0, 12.0)
    for _ in range(50):
        cfg = random_config(params, rng, 15)
        u = 1.0 - float(rng.random())
        q = MarkedPoint(float(rng.uniform(-3, 3)), 1.0 - float(rng.random()))
        if q.x == 0.0 and q.u == u:
            continue
        both, (i, j) = add_points(cfg, [MarkedPoint(0.0, u), q])
        direct = diff2_recount(both, i, j, 3)
        # translate so q sits at the origin; the old origin point moves to -q.x
        pts = [
            (wrap_position(x - q.x, params.torus_length), m)
            for x, m in zip(cfg.positions, cfg.marks)
        ]
        moved, (a, b) = add_points(
            config_from_points(params, pts), [MarkedPoint(0.0, q.u), MarkedPoint(-q.x, u)]
        )
        assert direct == diff2_recount(moved, a, b, 3)
        # The exact law is symmetric too: the kernel indicator exactly, mu to rounding.
        assert theory._adjacent(params, u, q.x, q.u) == theory._adjacent(params, q.u, -q.x, u)
        mu = [float(theory._common_mean(params, *node)) for node in ((u, q.x, q.u), (q.u, -q.x, u))]
        assert mu[0] == pytest.approx(mu[1], rel=1e-12)


def test_add_point_never_decreases_counts():
    rng = np.random.default_rng(66)
    params = ModelParams(0.3, 1.0, 15.0)
    for _ in range(40):
        cfg = random_config(params, rng, 20)
        u = 1.0 - float(rng.random())
        if index_of(cfg, MarkedPoint(0.0, u)) >= 0:
            continue
        aug, i = add_point(cfg, MarkedPoint(0.0, u))
        assert min(diff1(aug, i, 3)) >= 0


# -- joint counts ----------------------------------------------------------------


def test_joint_singletons_disjoint():
    rng = np.random.default_rng(10)
    params = ModelParams(0.3, 1.0, 12.0)
    cfg = random_config(params, rng, 10)
    both, (i, j) = add_points(cfg, [MarkedPoint(0.0, 0.5), MarkedPoint(1.0, 0.6)])
    assert joint(both, i, j, 1, 1) == (0, 0)


def test_joint_empty_config_no_edge():
    params = ModelParams(0.5, 1.0, 40.0)
    cfg = config_from_points(params, [(0.0, 0.9), (19.0, 0.95)])
    p, q = point_of(cfg, 0), point_of(cfg, 1)
    assert not connects(p, q, params)
    assert joint(cfg, 0, 1, 2, 2) == (0, 0)


def test_joint_matches_double_loop_oracle():
    rng = np.random.default_rng(20)
    for _ in range(120):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 14)
        if len(cfg) < 2:
            continue
        i, j = (int(m) for m in rng.choice(len(cfg), size=2, replace=False))
        for k, l in ((2, 2), (2, 3), (3, 3)):
            expect = joint_cliques_oracle(cfg, i, j, k, l)
            got = joint(cfg, i, j, k, l)
            assert got == expect


def test_joint_requires_membership():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg = config_from_points(params, [(0.0, 0.5)])
    # (2.0, 0.7) is not a member, so it has no index: 1 is past the end.
    with pytest.raises(ParameterError):
        joint(cfg, 0, 1, 2, 2)


def test_diff2_of_members_that_are_not_adjacent_is_zero():
    # No clique holds two vertices that are not adjacent, so the exact law
    # carries the factor 1{i~j}; brute force agrees with it up to triangles.
    rng = np.random.default_rng(89)
    params = ModelParams(0.3, 1.0, 12.0)
    apart = 0
    for _ in range(80):
        cfg = random_config(params, rng, 16)
        if len(cfg) < 2:
            continue
        i, j = (int(m) for m in rng.choice(len(cfg), size=2, replace=False))
        brute = [0] + [cliques_containing_oracle(cfg, (i, j), k) for k in (2, 3, 4)]
        assert brute[:3] == _exact_diff2(cfg, i, j)
        p, q = (MarkedPoint(cfg.positions[v], cfg.marks[v]) for v in (i, j))
        if not connects(p, q, params):
            apart += 1
            assert brute == [0, 0, 0, 0]
    assert apart > 20


# -- containment counts ---------------------------------------------------------


def test_containment_counts_match_subset_oracle():
    rng = np.random.default_rng(88)
    params = ModelParams(0.3, 1.0, 12.0)
    for _ in range(60):
        cfg = random_config(params, rng, 16)
        u = 1.0 - float(rng.random())
        p0 = MarkedPoint(0.0, u)
        if index_of(cfg, p0) >= 0:
            continue
        aug, idx = add_point(cfg, p0)
        diffs = diff1(aug, idx, 3)
        for k in (2, 3):
            assert diffs[k - 1] == cliques_containing_oracle(aug, (idx,), k)
