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
    PointConfig,
    add_point,
    connects,
    sample_config,
    wrap_position,
)

from oracles import (
    centered_cliques_oracle,
    cliques_containing_oracle,
    cliques_oracle,
    config_from_points,
    joint_cliques_oracle,
    neighbors_oracle,
    random_config,
)


def _param_grid(rng):
    gamma = float(rng.choice([0.2, 0.3, 0.45]))
    beta = float(rng.choice([0.5, 1.0]))
    return ModelParams(gamma, beta, float(rng.uniform(4.0, 20.0)))


def _per_center(cfg, k):
    return {i: count_cliques_centered(cfg, cfg.point(i), k)[k - 1] for i in range(len(cfg))}


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
    p, q = MarkedPoint(0.0, 0.5), MarkedPoint(1.0, 0.6)
    with pytest.raises(ParameterError):
        count_cliques_upto(cfg, -2)
    with pytest.raises(ParameterError):
        count_cliques_centered(cfg, p, 0)
    with pytest.raises(ParameterError):
        diff1_clique_upto(cfg, 0.5, 0)
    with pytest.raises(ParameterError):
        diff2_clique_upto(cfg, 0.5, q, 0)
    both = add_point(add_point(cfg, p), q)
    with pytest.raises(ParameterError):
        joint_clique_counts(both, p, q, 0, 2)


# -- centered counts -------------------------------------------------------


def test_centered_k1_and_k2():
    rng = np.random.default_rng(31)
    params = ModelParams(0.3, 1.0, 20.0)
    cfg = random_config(params, rng, 25)
    p = MarkedPoint(0.0, 0.4)
    assert count_cliques_centered(cfg, p, 1) == [1]
    aug = add_point(cfg, p)
    ups, _ = neighbors_oracle(aug, p, member_index=aug.index_of(p))
    assert count_cliques_centered(cfg, p, 2) == [1, len(ups)]


def test_centered_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 20)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        counts = count_cliques_centered(cfg, cfg.point(i), 3)
        assert count_cliques_centered(cfg, cfg.point(i), 2) == counts[:2]
        for k in (2, 3):
            assert counts[k - 1] == len(centered_cliques_oracle(cfg, i, k))


def test_centered_palm_translation_invariance():
    rng = np.random.default_rng(4)
    params = ModelParams(0.3, 1.0, 16.0)
    cfg = random_config(params, rng, 25)
    u = 0.21
    base = count_cliques_centered(cfg, MarkedPoint(0.0, u), 3)[2]
    # translate every point by a constant and re-center the probe
    delta = 3.7
    pts = [
        (wrap_position(x + delta, params.torus_length), m)
        for x, m in zip(cfg.positions, cfg.marks)
    ]
    moved = config_from_points(params, pts)
    assert count_cliques_centered(moved, MarkedPoint(wrap_position(delta, 16.0), u), 3)[2] == base


# -- difference operators -----------------------------------------------------


def test_diff1_empty_config_k1():
    cfg = config_from_points(ModelParams(0.3, 1.0, 10.0), [])
    assert diff1_clique_upto(cfg, 0.5, 1) == [1]


def test_diff1_k2_is_degree():
    rng = np.random.default_rng(8)
    params = ModelParams(0.35, 1.0, 18.0)
    cfg = random_config(params, rng, 25)
    p = MarkedPoint(0.0, 0.6)
    aug = add_point(cfg, p)
    idx = aug.index_of(p)
    degree = sum(
        1
        for j in range(len(aug))
        if j != idx and connects(aug.point(j), p, params)
    )
    assert diff1_clique_upto(cfg, 0.6, 2) == [1, degree]


def test_diff1_matches_recount_difference():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 22)
        u = 1.0 - float(rng.random())
        if cfg.index_of(MarkedPoint(0.0, u)) >= 0:
            continue
        aug = add_point(cfg, MarkedPoint(0.0, u))
        recount = [a - b for a, b in zip(count_cliques_upto(aug, 3), count_cliques_upto(cfg, 3))]
        assert diff1_clique_upto(cfg, u, 3) == recount


def test_diff1_upto_matches_individual():
    rng = np.random.default_rng(23)
    params = ModelParams(0.3, 1.0, 20.0)
    for _ in range(30):
        cfg = random_config(params, rng, 20)
        u = 1.0 - float(rng.random())
        vec = diff1_clique_upto(cfg, u, 4)
        for k in (1, 2, 3, 4):
            assert diff1_clique_upto(cfg, u, k) == vec[:k]


def test_diff2_trivial_cases():
    rng = np.random.default_rng(3)
    params = ModelParams(0.3, 1.0, 30.0)
    cfg = random_config(params, rng, 15)
    q_far = MarkedPoint(14.0, 0.999)
    assert diff2_clique_upto(cfg, 0.998, q_far, 1) == [0]
    # distance ~14 at marks near 1 cannot connect for beta = 1
    assert diff2_clique_upto(cfg, 0.998, q_far, 3) == [0, 0, 0]


def test_diff_counts_points_already_present_as_members():
    # A configuration that already holds an added point, as a Palm
    # configuration holds its anchors, gives the counts of the configuration
    # without it.
    rng = np.random.default_rng(45)
    for _ in range(100):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 18)
        u = 1.0 - float(rng.random())
        q = MarkedPoint(float(rng.uniform(-2.0, 2.0)), 1.0 - float(rng.random()))
        with_p = add_point(cfg, MarkedPoint(0.0, u))
        assert diff1_clique_upto(with_p, u, 4) == diff1_clique_upto(cfg, u, 4)
        expected = diff2_clique_upto(cfg, u, q, 4)
        for held in (with_p, add_point(cfg, q), add_point(with_p, q)):
            assert diff2_clique_upto(held, u, q, 4) == expected


def test_diff2_rejects_equal_added_points():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg = config_from_points(params, [(0.0, 0.5), (1.0, 0.6)])
    # The same point added twice is not a pair, whatever its position's wrap.
    with pytest.raises(ParameterError):
        diff2_clique_upto(cfg, 0.7, MarkedPoint(0.0, 0.7), 3)
    with pytest.raises(ParameterError):
        diff2_clique_upto(cfg, 0.7, MarkedPoint(10.0, 0.7), 2)


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
        if cfg.index_of(p0) >= 0 or cfg.index_of(MarkedPoint(wrap_position(q.x, params.torus_length), q.u)) >= 0:
            continue
        with_p = add_point(cfg, p0)
        with_q = add_point(cfg, q)
        with_both = add_point(with_p, q)
        counts = [count_cliques_upto(c, 3) for c in (with_both, with_p, with_q, cfg)]
        four_term = [a - b - c + d for a, b, c, d in zip(*counts)]
        assert diff2_clique_upto(cfg, u, q, 3) == four_term


def test_diff2_symmetric_under_exchange():
    rng = np.random.default_rng(55)
    params = ModelParams(0.3, 1.0, 12.0)
    for _ in range(50):
        cfg = random_config(params, rng, 15)
        u = 1.0 - float(rng.random())
        q = MarkedPoint(float(rng.uniform(-3, 3)), 1.0 - float(rng.random()))
        if q.x == 0.0 and q.u == u:
            continue
        direct = diff2_clique_upto(cfg, u, q, 3)
        # translate so q sits at the origin; the old origin point moves to -q.x
        pts = [
            (wrap_position(x - q.x, params.torus_length), m)
            for x, m in zip(cfg.positions, cfg.marks)
        ]
        moved = config_from_points(params, pts)
        mirrored = diff2_clique_upto(
            moved, q.u, MarkedPoint(wrap_position(-q.x, params.torus_length), u), 3
        )
        assert direct == mirrored


def test_add_point_never_decreases_counts():
    rng = np.random.default_rng(66)
    params = ModelParams(0.3, 1.0, 15.0)
    for _ in range(40):
        cfg = random_config(params, rng, 20)
        u = 1.0 - float(rng.random())
        if cfg.index_of(MarkedPoint(0.0, u)) >= 0:
            continue
        assert min(diff1_clique_upto(cfg, u, 3)) >= 0


# -- joint counts ----------------------------------------------------------------


def test_joint_singletons_disjoint():
    rng = np.random.default_rng(10)
    params = ModelParams(0.3, 1.0, 12.0)
    cfg = random_config(params, rng, 10)
    a = add_point(cfg, MarkedPoint(0.0, 0.5))
    b = add_point(a, MarkedPoint(1.0, 0.6))
    assert joint_clique_counts(b, MarkedPoint(0.0, 0.5), MarkedPoint(1.0, 0.6), 1, 1) == (0, 0)


def test_joint_empty_config_no_edge():
    params = ModelParams(0.5, 1.0, 40.0)
    cfg = config_from_points(params, [(0.0, 0.9), (19.0, 0.95)])
    p, q = cfg.point(0), cfg.point(1)
    assert not connects(p, q, params)
    assert joint_clique_counts(cfg, p, q, 2, 2) == (0, 0)


def test_joint_matches_double_loop_oracle():
    rng = np.random.default_rng(20)
    for _ in range(120):
        params = _param_grid(rng)
        cfg = random_config(params, rng, 14)
        if len(cfg) < 2:
            continue
        i, j = rng.choice(len(cfg), size=2, replace=False)
        p, q = cfg.point(int(i)), cfg.point(int(j))
        for k, l in ((2, 2), (2, 3), (3, 3)):
            expect = joint_cliques_oracle(cfg, int(i), int(j), k, l)
            got = joint_clique_counts(cfg, p, q, k, l)
            assert got == expect


def test_joint_requires_membership():
    params = ModelParams(0.3, 1.0, 10.0)
    cfg = config_from_points(params, [(0.0, 0.5)])
    with pytest.raises(ParameterError):
        joint_clique_counts(cfg, MarkedPoint(0.0, 0.5), MarkedPoint(2.0, 0.7), 2, 2)


# -- containment counts ---------------------------------------------------------


def test_containment_counts_match_subset_oracle():
    rng = np.random.default_rng(88)
    params = ModelParams(0.3, 1.0, 12.0)
    for _ in range(60):
        cfg = random_config(params, rng, 16)
        u = 1.0 - float(rng.random())
        p0 = MarkedPoint(0.0, u)
        if cfg.index_of(p0) >= 0:
            continue
        aug = add_point(cfg, p0)
        idx = aug.index_of(p0)
        diffs = diff1_clique_upto(cfg, u, 3)
        for k in (2, 3):
            assert diffs[k - 1] == cliques_containing_oracle(aug, (idx,), k)
