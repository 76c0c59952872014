"""Clique counting against exhaustive subset enumeration and recount oracles."""

import numpy as np
import pytest

from adrcm.cliques import (
    count_cliques_centered,
    count_cliques_upto,
    diff1_clique_upto,
    diff2_clique_upto,
    joint_clique_counts,
)
from adrcm.model import (
    MarkedPoint,
    ModelParams,
    ParameterError,
    _palm_config,
    connects,
    sample_config,
    wrap_position,
)

from oracles import (
    add_point,
    add_points,
    centered_cliques_oracle,
    cliques_containing_oracle,
    cliques_oracle,
    config_from_points,
    index_of,
    joint_cliques_oracle,
    neighbors_oracle,
    random_config,
)


def _param_grid(rng):
    gamma = float(rng.choice([0.2, 0.3, 0.45]))
    beta = float(rng.choice([0.5, 1.0]))
    return ModelParams(gamma, beta, float(rng.uniform(4.0, 20.0)))


def _per_center(cfg, k):
    return {i: count_cliques_centered(cfg, i, k)[k - 1] for i in range(len(cfg))}


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
    both, (i, j) = add_points(cfg, [MarkedPoint(0.0, 0.5), MarkedPoint(1.0, 0.6)])
    with pytest.raises(ParameterError):
        count_cliques_upto(cfg, -2)
    with pytest.raises(ParameterError):
        count_cliques_centered(both, i, 0)
    with pytest.raises(ParameterError):
        diff1_clique_upto(both, i, 0)
    with pytest.raises(ParameterError):
        diff2_clique_upto(both, i, j, 0)
    with pytest.raises(ParameterError):
        joint_clique_counts(both, i, j, 0, 2)


# -- vertex indices ----------------------------------------------------------------


def _triangle():
    """Three points, every pair connected: an unchecked index still counts something."""
    cfg = config_from_points(ModelParams(0.3, 1.0, 10.0), [(0.0, 0.5), (0.5, 0.6), (1.0, 0.7)])
    assert count_cliques_upto(cfg, 3) == [3, 3, 1]
    return cfg


@pytest.mark.parametrize("i", [-1, 3])
def test_centered_rejects_an_index_outside_the_configuration(i):
    with pytest.raises(ParameterError, match="outside 0..2"):
        count_cliques_centered(_triangle(), i, 3)


@pytest.mark.parametrize("i", [-1, 3])
def test_diff1_rejects_an_index_outside_the_configuration(i):
    with pytest.raises(ParameterError, match="outside 0..2"):
        diff1_clique_upto(_triangle(), i, 3)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)])
@pytest.mark.parametrize("k_max", [1, 3])
def test_diff2_rejects_indices_outside_the_configuration_or_equal(i, j, k_max):
    with pytest.raises(ParameterError, match="outside 0..2|must differ"):
        diff2_clique_upto(_triangle(), i, j, k_max)


@pytest.mark.parametrize("i,j", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)])
def test_joint_rejects_indices_outside_the_configuration_or_equal(i, j):
    with pytest.raises(ParameterError, match="outside 0..2|must differ"):
        joint_clique_counts(_triangle(), i, j, 2, 2)


# -- centered counts -------------------------------------------------------


def test_centered_k1_and_k2():
    rng = np.random.default_rng(31)
    params = ModelParams(0.3, 1.0, 20.0)
    cfg = random_config(params, rng, 25)
    aug, i = add_point(cfg, MarkedPoint(0.0, 0.4))
    assert count_cliques_centered(aug, i, 1) == [1]
    ups, _ = neighbors_oracle(aug, aug.point(i), member_index=i)
    assert count_cliques_centered(aug, i, 2) == [1, len(ups)]


def test_centered_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 20)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        counts = count_cliques_centered(cfg, i, 3)
        assert count_cliques_centered(cfg, i, 2) == counts[:2]
        for k in (2, 3):
            assert counts[k - 1] == len(centered_cliques_oracle(cfg, i, k))


def test_centered_palm_translation_invariance():
    rng = np.random.default_rng(4)
    params = ModelParams(0.3, 1.0, 16.0)
    cfg = random_config(params, rng, 25)
    u = 0.21
    aug, i = add_point(cfg, MarkedPoint(0.0, u))
    base = count_cliques_centered(aug, i, 3)[2]
    # translate every point by a constant and re-center the probe
    delta = 3.7
    pts = [
        (wrap_position(x + delta, params.torus_length), m)
        for x, m in zip(cfg.positions, cfg.marks)
    ]
    moved, j = add_point(config_from_points(params, pts), MarkedPoint(delta, u))
    assert count_cliques_centered(moved, j, 3)[2] == base


# -- difference operators -----------------------------------------------------


def test_diff1_empty_config_k1():
    cfg, i = add_point(config_from_points(ModelParams(0.3, 1.0, 10.0), []), MarkedPoint(0.0, 0.5))
    assert diff1_clique_upto(cfg, i, 1) == [1]


def test_diff1_k2_is_degree():
    rng = np.random.default_rng(8)
    params = ModelParams(0.35, 1.0, 18.0)
    cfg = random_config(params, rng, 25)
    p = MarkedPoint(0.0, 0.6)
    aug, idx = add_point(cfg, p)
    degree = sum(
        1
        for j in range(len(aug))
        if j != idx and connects(aug.point(j), p, params)
    )
    assert diff1_clique_upto(aug, idx, 2) == [1, degree]


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
        assert diff1_clique_upto(aug, i, 3) == recount


def test_diff1_upto_matches_individual():
    rng = np.random.default_rng(23)
    params = ModelParams(0.3, 1.0, 20.0)
    for _ in range(30):
        cfg = random_config(params, rng, 20)
        aug, i = add_point(cfg, MarkedPoint(0.0, 1.0 - float(rng.random())))
        vec = diff1_clique_upto(aug, i, 4)
        for k in (1, 2, 3, 4):
            assert diff1_clique_upto(aug, i, k) == vec[:k]


def test_diff2_trivial_cases():
    rng = np.random.default_rng(3)
    params = ModelParams(0.3, 1.0, 30.0)
    cfg = random_config(params, rng, 15)
    both, (i, j) = add_points(cfg, [MarkedPoint(0.0, 0.998), MarkedPoint(14.0, 0.999)])
    assert diff2_clique_upto(both, i, j, 1) == [0]
    # distance ~14 at marks near 1 cannot connect for beta = 1
    assert diff2_clique_upto(both, i, j, 3) == [0, 0, 0]


def _without(cfg, *members):
    """cfg less the given member indices."""
    kept = [i for i in range(len(cfg)) if i not in members]
    return config_from_points(cfg.params, list(zip(cfg.positions[kept], cfg.marks[kept])))


def test_diff_counts_points_already_present_as_members():
    # A configuration that already holds the added points, as a Palm
    # configuration holds its anchors, gives at their indices the
    # differences to the configuration without them.
    rng = np.random.default_rng(45)
    for _ in range(100):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 18)
        if len(cfg) < 2:
            continue
        i, j = (int(m) for m in rng.choice(len(cfg), size=2, replace=False))
        full, no_i, no_j, neither = (
            count_cliques_upto(c, 4)
            for c in (cfg, _without(cfg, i), _without(cfg, j), _without(cfg, i, j))
        )
        assert diff1_clique_upto(cfg, i, 4) == [a - b for a, b in zip(full, no_i)]
        four_term = [a - b - c + d for a, b, c, d in zip(full, no_j, no_i, neither)]
        assert diff2_clique_upto(cfg, i, j, 4) == four_term


def test_diff2_rejects_equal_added_points():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg, i = add_point(config_from_points(params, [(0.0, 0.5), (1.0, 0.6)]), MarkedPoint(0.0, 0.7))
    # The same point added twice is not a pair, whatever its position's wrap.
    for k_max in (2, 3):
        with pytest.raises(ParameterError):
            diff2_clique_upto(cfg, i, i, k_max)
    with pytest.raises(ParameterError, match="duplicate point"):
        _palm_config(params, 7, [MarkedPoint(0.0, 0.7), MarkedPoint(10.0, 0.7)], 1)


def test_diff2_matches_four_term_recount():
    rng = np.random.default_rng(44)
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
        assert diff2_clique_upto(with_both, i, j, 3) == four_term


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
        direct = diff2_clique_upto(both, i, j, 3)
        # translate so q sits at the origin; the old origin point moves to -q.x
        pts = [
            (wrap_position(x - q.x, params.torus_length), m)
            for x, m in zip(cfg.positions, cfg.marks)
        ]
        moved, (a, b) = add_points(
            config_from_points(params, pts), [MarkedPoint(0.0, q.u), MarkedPoint(-q.x, u)]
        )
        assert direct == diff2_clique_upto(moved, a, b, 3)


def test_add_point_never_decreases_counts():
    rng = np.random.default_rng(66)
    params = ModelParams(0.3, 1.0, 15.0)
    for _ in range(40):
        cfg = random_config(params, rng, 20)
        u = 1.0 - float(rng.random())
        if index_of(cfg, MarkedPoint(0.0, u)) >= 0:
            continue
        aug, i = add_point(cfg, MarkedPoint(0.0, u))
        assert min(diff1_clique_upto(aug, i, 3)) >= 0


# -- joint counts ----------------------------------------------------------------


def test_joint_singletons_disjoint():
    rng = np.random.default_rng(10)
    params = ModelParams(0.3, 1.0, 12.0)
    cfg = random_config(params, rng, 10)
    both, (i, j) = add_points(cfg, [MarkedPoint(0.0, 0.5), MarkedPoint(1.0, 0.6)])
    assert joint_clique_counts(both, i, j, 1, 1) == (0, 0)


def test_joint_empty_config_no_edge():
    params = ModelParams(0.5, 1.0, 40.0)
    cfg = config_from_points(params, [(0.0, 0.9), (19.0, 0.95)])
    p, q = cfg.point(0), cfg.point(1)
    assert not connects(p, q, params)
    assert joint_clique_counts(cfg, 0, 1, 2, 2) == (0, 0)


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
            got = joint_clique_counts(cfg, i, j, k, l)
            assert got == expect


def test_joint_requires_membership():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg = config_from_points(params, [(0.0, 0.5)])
    # (2.0, 0.7) is not a member, so it has no index: 1 is past the end.
    with pytest.raises(ParameterError):
        joint_clique_counts(cfg, 0, 1, 2, 2)


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
        diffs = diff1_clique_upto(aug, idx, 3)
        for k in (2, 3):
            assert diffs[k - 1] == cliques_containing_oracle(aug, (idx,), k)
