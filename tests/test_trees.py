"""Directed-tree embedding counts against exhaustive assignment oracles."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrcm.cliques import count_cliques_upto
from adrcm.model import MarkedPoint, ModelParams, ParameterError, sample_config
import adrcm.trees as trees
from adrcm.trees import (
    BlockSums,
    DirectedTreeSpec,
    TreeSpecError,
    block_sums,
    count_trees,
    lag_covariance_table,
    parse_tree_spec,
)
from adrcm.model import derive_seed

from oracles import (
    add_point,
    config_from_points,
    count_trees_oracle,
    cox_grimmett_oracle,
    d_in,
    d_in_oracle,
    lag_covariance_oracle,
    neighbors_oracle,
    point_of,
    random_config,
    tree_edge,
    tree_path,
    tree_star,
    tree_wedge,
)

MIXED_SPEC = DirectedTreeSpec(3, ((2, 1), (1, 3)), 1)


# -- validation ----------------------------------------------------------------


def test_validate_single_edge():
    spec = DirectedTreeSpec(2, ((2, 1),), 1)
    assert spec.leaf_count == 1
    assert spec.root_degree_one


def test_validate_wedge():
    spec = tree_wedge()
    assert spec.leaf_count == 2
    assert not spec.root_degree_one


def test_validate_cycle_rejected():
    with pytest.raises(TreeSpecError, match="a tree on 2 vertices needs 1 edges, got 2"):
        DirectedTreeSpec(2, ((1, 2), (2, 1)), 1)


def test_validate_multi_edge_rejected():
    with pytest.raises(TreeSpecError, match="multi-edge between 1 and 2"):
        DirectedTreeSpec(3, ((2, 1), (1, 2)), 1)


def test_validate_disconnected_rejected():
    with pytest.raises(TreeSpecError, match="multi-edge between 3 and 4"):
        DirectedTreeSpec(4, ((2, 1), (4, 3), (3, 4)), 1)


def test_validate_root_out_of_range():
    with pytest.raises(TreeSpecError, match="root 5 outside 1..2"):
        DirectedTreeSpec(2, ((2, 1),), 5)


def test_validate_edge_vertex_out_of_range():
    with pytest.raises(TreeSpecError, match="edge 3->1 references a vertex outside 1..2"):
        DirectedTreeSpec(2, ((3, 1),), 1)


@pytest.mark.parametrize(
    "m, edges, root, message",
    [
        (0, (), 1, "vertex_count must be >= 1, got 0"),
        (2, ((1, 1),), 1, "self-loop 1->1"),
        (4, ((2, 3), (3, 4), (4, 2)), 1, "tree skeleton is not connected"),
        # m-1 distinct edges that leave a vertex unreached close a cycle.
        (4, ((1, 2), (2, 3), (3, 1)), 4, "tree skeleton is not connected"),
        (4, ((1, 2), (2, 3), (3, 1)), 1, "tree skeleton is not connected"),
        (5, ((2, 3), (3, 4), (4, 2), (1, 5)), 1, "tree skeleton is not connected"),
    ],
)
def test_validate_remaining_invariants_rejected(m, edges, root, message):
    with pytest.raises(TreeSpecError, match=message):
        DirectedTreeSpec(m, edges, root)


def test_leaf_counts_of_standard_trees():
    assert tree_edge().leaf_count == 1
    assert tree_wedge().leaf_count == 2
    assert tree_path(3).leaf_count == 1
    assert tree_star(3).leaf_count == 3
    assert MIXED_SPEC.leaf_count == 2


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_random_attachment_trees_validate(m, data):
    edges = []
    for v in range(2, m + 1):
        parent = data.draw(st.integers(1, v - 1))
        if data.draw(st.booleans()):
            edges.append((v, parent))
        else:
            edges.append((parent, v))
    root = data.draw(st.integers(1, m))
    spec = DirectedTreeSpec(m, tuple(edges), root)
    degree = {v: 0 for v in range(1, m + 1)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert spec.leaf_count == sum(1 for v, d in degree.items() if d == 1 and v != root)


# -- parser ---------------------------------------------------------------------


def test_parse_round_trip_wedge():
    text = "m=3\nroot=1\nedge=2->1\nedge=3->1\n"
    spec = parse_tree_spec(text)
    assert spec == tree_wedge()


def test_parse_allows_blank_lines():
    spec = parse_tree_spec("\nm=2\n\nroot=1\nedge=2->1\n\n")
    assert spec == tree_edge()


@pytest.mark.parametrize(
    "text",
    [
        "m=2\nroot=1\nedge=2->1\nfoo=3\n",
        "m=2\nroot=1\nedge=2-1\n",
        "m=x\nroot=1\n",
        "root=1\nedge=2->1\n",
        "m=2\nroot=1\nedge=2->1\nhello world\n",
        "m=2\nm=2\nroot=1\nedge=2->1\n",
    ],
)
def test_parse_rejections(text):
    with pytest.raises(TreeSpecError):
        parse_tree_spec(text)


# -- d_in -------------------------------------------------------------------------


def test_d_in_wedge_is_ordered_pairs():
    rng = np.random.default_rng(6)
    params = ModelParams(0.3, 1.0, 25.0)
    for _ in range(20):
        cfg = random_config(params, rng, 25)
        p = MarkedPoint(0.0, 0.3)
        n_up = len(neighbors_oracle(cfg, p)[0])
        aug, i = add_point(cfg, p)
        assert d_in(aug, i, tree_wedge()) == n_up * (n_up - 1)


def test_d_in_single_edge_is_up_degree():
    rng = np.random.default_rng(61)
    params = ModelParams(0.4, 0.8, 25.0)
    cfg = random_config(params, rng, 30)
    p = MarkedPoint(0.0, 0.5)
    aug, i = add_point(cfg, p)
    assert d_in(aug, i, tree_edge()) == len(neighbors_oracle(cfg, p)[0])


@pytest.mark.parametrize(
    "spec",
    [tree_edge(), tree_wedge(), tree_path(3), tree_star(3), MIXED_SPEC],
    ids=["edge", "wedge", "path3", "star3", "mixed"],
)
def test_d_in_matches_backtracking_oracle(spec):
    rng = np.random.default_rng(13)
    for _ in range(40):
        params = ModelParams(
            float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.4, 1.2)), 10.0
        )
        cfg = random_config(params, rng, 12)
        u = 1.0 - float(rng.random())
        aug, i = add_point(cfg, MarkedPoint(0.0, u))
        assert d_in(aug, i, spec) == d_in_oracle(cfg, (0.0, u), spec)


def test_d_in_member_root_matches_oracle():
    rng = np.random.default_rng(14)
    params = ModelParams(0.3, 1.0, 10.0)
    for _ in range(40):
        cfg = random_config(params, rng, 12)
        if len(cfg) == 0:
            continue
        i = int(rng.integers(len(cfg)))
        p = point_of(cfg, i)
        for spec in (tree_wedge(), tree_path(3), MIXED_SPEC):
            assert d_in(cfg, i, spec) == d_in_oracle(
                cfg, (p.x, p.u), spec, member_index=i
            )


@pytest.mark.parametrize("i", [-1, 3])
def test_d_in_rejects_an_index_outside_the_configuration(i):
    cfg = config_from_points(ModelParams(0.5, 1.0, 8.0), [(-0.5, 0.2), (-0.4, 0.6), (-0.3, 0.7)])
    with pytest.raises(ParameterError, match="outside 0..2"):
        d_in(cfg, i, tree_wedge())


# Root 1 with a down step 1 -> 2, a second down step 2 -> 3 from a non-root
# image, and an up step 4 -> 1: whole-configuration counts read the down
# rows (the transposed edge list) at two depths.
DOWN_DOWN_SPEC = DirectedTreeSpec(4, ((1, 2), (2, 3), (4, 1)), 1)


@pytest.mark.parametrize(
    "spec, plan",
    [
        (tree_edge(), ((1, 0, True),)),
        (tree_wedge(), ((1, 0, True), (2, 0, True))),
        (tree_path(3), ((1, 0, True), (2, 1, True))),
        (MIXED_SPEC, ((1, 0, True), (2, 0, False))),
        (DOWN_DOWN_SPEC, ((1, 0, False), (2, 0, True), (3, 1, False))),
        (DirectedTreeSpec(1, (), 1), ()),
    ],
)
def test_the_spec_carries_its_assignment_plan(spec, plan):
    assert spec.plan == plan
    assert pickle.loads(pickle.dumps(spec)).plan == plan


def test_the_plan_is_not_part_of_a_specs_identity():
    spec = tree_wedge()
    assert repr(spec) == (
        "DirectedTreeSpec(vertex_count=3, edges=((2, 1), (3, 1)), root=1, "
        "leaf_count=2, root_degree_one=False)"
    )
    assert hash(spec) == hash((3, ((2, 1), (3, 1)), 1, 2, False))
    other = DirectedTreeSpec(3, ((2, 1), (3, 1)), 1)
    object.__setattr__(other, "plan", ())
    assert other == spec and hash(other) == hash(spec)
    assert spec != DirectedTreeSpec(3, ((1, 2), (3, 1)), 1)


def test_count_trees_matches_oracle():
    rng = np.random.default_rng(15)
    specs = (tree_edge(), tree_wedge(), tree_path(3), tree_star(3), MIXED_SPEC, DOWN_DOWN_SPEC)
    for spec in specs:
        for _ in range(15):
            params = ModelParams(
                float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.4, 1.2)), 8.0
            )
            cfg = random_config(params, rng, 11)
            assert count_trees(cfg, spec) == count_trees_oracle(cfg, spec)


def test_count_trees_single_edge_equals_edge_count():
    rng = np.random.default_rng(16)
    params = ModelParams(0.3, 1.0, 30.0)
    for _ in range(15):
        cfg = random_config(params, rng, 30)
        assert count_trees(cfg, tree_edge()) == count_cliques_upto(cfg, 2)[1]


def test_wedge_counts_two_orderings_per_geometric_wedge():
    """Hand-built 8-point fixture: 7 geometric wedges, ordered count 14.

    Cluster one: a low-mark root with four higher-mark neighbors spread so the
    neighbors never connect to each other (6 wedges).  Cluster two: a
    triangle rooted at its lowest mark (1 wedge).  Clusters sit hundreds of
    units apart on a long torus, far beyond every kernel radius.
    """
    params = ModelParams(0.5, 1.0, 1000.0)
    pts = [
        (0.0, 0.04),     # root of cluster one
        (-9.0, 0.30),    # distance 9.0 <= radius 9.13
        (-5.5, 0.35),    # 5.5 <= 8.45
        (5.5, 0.40),     # 5.5 <= 7.91
        (8.5, 0.33),     # 8.5 <= 8.70; 3.0 > 2.75 from its nearest sibling
        (400.0, 0.05),   # root of cluster two
        (400.2, 0.45),
        (399.8, 0.50),   # 0.4 <= 2.11, so the two leaves also connect
    ]
    cfg = config_from_points(params, pts)
    geometric = 0
    for i in range(len(cfg)):
        ups = len(neighbors_oracle(cfg, point_of(cfg, i), member_index=i)[0])
        geometric += ups * (ups - 1) // 2
    assert geometric == 7
    assert count_trees(cfg, tree_wedge()) == 14
    assert count_trees(cfg, tree_wedge()) == count_trees_oracle(cfg, tree_wedge())


def test_homomorphism_monotone_under_add_point():
    rng = np.random.default_rng(17)
    params = ModelParams(0.3, 1.0, 15.0)
    for _ in range(30):
        cfg = random_config(params, rng, 15)
        before = count_trees(cfg, tree_wedge())
        extra = MarkedPoint(float(rng.uniform(-7, 7)), 1.0 - float(rng.random()))
        try:
            grown, _ = add_point(cfg, extra)
        except ParameterError:
            continue
        assert count_trees(grown, tree_wedge()) >= before


# -- block sums --------------------------------------------------------------------


def test_block_sums_empty_config():
    params = ModelParams(0.3, 1.0, 8.0)
    cfg = config_from_points(params, [])
    bs = block_sums(cfg, tree_wedge())
    assert bs.values.tolist() == [0] * 8


def test_block_sums_partition_identity():
    rng = np.random.default_rng(18)
    params = ModelParams(0.2, 1.0, 16.0)
    for i in range(100):
        cfg = sample_config(params, derive_seed(900, i))
        bs = block_sums(cfg, tree_wedge())
        assert sum(bs.values.tolist()) == count_trees(cfg, tree_wedge())


def test_block_sums_single_point_placement():
    params = ModelParams(0.5, 1.0, 8.0)
    # shifted coordinate x + 4 in [3, 4) -> block index 3
    cfg = config_from_points(params, [(-0.5, 0.2), (-0.4, 0.6), (-0.3, 0.7)])
    bs = block_sums(cfg, tree_wedge())
    assert bs.values[3] == sum(bs.values.tolist())
    assert bs.values[3] == sum(d_in(cfg, i, tree_wedge()) for i in range(len(cfg)))


def test_block_sums_requires_integer_length():
    # An exact integer: a length within rounding of one once passed too.
    for n in (8.5, 16.0 + 1e-10):
        cfg = config_from_points(ModelParams(0.3, 1.0, n), [])
        with pytest.raises(ParameterError, match=f"^block sums need an integer torus length, got {n}$"):
            block_sums(cfg, tree_wedge())


def test_tree_totals_never_wrap(monkeypatch):
    params = ModelParams(0.1, 1.0, 8.0)
    cfg = config_from_points(params, [(0.0, 0.5), (1.5, 0.6)])
    huge = np.array([2**62, 2**62], dtype=np.int64)
    monkeypatch.setattr(trees, "_rooted", lambda config, spec, roots: huge)
    assert count_trees(cfg, tree_wedge()) == 2**63
    with pytest.raises(OverflowError):
        block_sums(cfg, tree_wedge())
    assert sum(BlockSums(values=huge, params=params).values.tolist()) == 2**63


# -- covariance diagnostics -----------------------------------------------------------


def _block_replicates(params, reps, seed):
    return [
        block_sums(sample_config(params, derive_seed(seed, i)), tree_wedge())
        for i in range(reps)
    ]


def test_cox_grimmett_empty_tail_is_zero():
    params = ModelParams(0.2, 1.0, 8.0)
    reps = _block_replicates(params, 50, 41)
    k = math.ceil(8 / 2)
    value, se = lag_covariance_table(reps, [k])[3][k]
    assert value == 0.0


def test_cox_grimmett_requires_replicates():
    params = ModelParams(0.2, 1.0, 8.0)
    # Two replicates would leave one row per jackknife subsample.
    for count in (1, 2):
        reps = _block_replicates(params, count, 42)
        with pytest.raises(ParameterError):
            lag_covariance_table(reps, [1])


def test_cox_grimmett_shuffled_blocks_near_zero():
    params = ModelParams(0.2, 1.0, 16.0)
    reps = _block_replicates(params, 400, 43)
    matrix = np.stack([r.values for r in reps])
    rng = np.random.default_rng(0)
    shuffled = np.empty_like(matrix)
    for col in range(matrix.shape[1]):
        shuffled[:, col] = matrix[rng.permutation(matrix.shape[0]), col]
    surrogate = [BlockSums(values=row, params=params) for row in shuffled]
    value, se = lag_covariance_table(surrogate, [1])[3][1]
    assert abs(value) <= 3.0 * se


def test_lag_covariance_table_shapes():
    params = ModelParams(0.2, 1.0, 16.0)
    reps = _block_replicates(params, 60, 44)
    lags, covs, ses, _ = lag_covariance_table(reps, [])
    assert lags.tolist() == list(range(1, 9))
    assert covs.shape == ses.shape == (8,)


def _as_block_sums(matrix):
    params = ModelParams(0.2, 1.0, float(matrix.shape[1]))
    return [BlockSums(values=row, params=params) for row in matrix]


def _same(a, b) -> bool:
    """Exact equality in which NaN equals NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 17, 64])
def test_lag_covariance_table_matches_per_lag_reference(n):
    rng = np.random.default_rng(1000 + n)
    for r in (3, 19, 20, 21, 200):
        matrix = rng.integers(0, 50, size=(r, n)) * rng.integers(1, 4, size=(r, 1))
        cutoffs = range(1, n + 1)
        lags, covs, ses, u_values = lag_covariance_table(_as_block_sums(matrix), cutoffs)
        ref_lags, ref_covs, ref_ses = lag_covariance_oracle(matrix)
        assert lags.tolist() == ref_lags.tolist()
        assert covs.dtype == ses.dtype == np.float64
        assert _same(covs, ref_covs) and _same(ses, ref_ses), (n, r)
        assert list(u_values) == list(cutoffs)
        for k in cutoffs:
            assert _same(u_values[k], cox_grimmett_oracle(matrix, k)), (n, r, k)


def test_cox_grimmett_tails_add_left_to_right(monkeypatch):
    # Left to right, 1e16 + 1.0 rounds back to 1e16 and the tail is 0; a
    # compensated sum (the built-in sum from Python 3.12 on) would give 2.
    covs = {1: 1e16, 2: 1.0, 3: -1e16, 4: 0.0}
    monkeypatch.setattr(trees, "_cyclic_lag_cov", lambda centered, lag: covs[lag])
    reps = _as_block_sums(np.arange(24).reshape(3, 8))
    assert lag_covariance_table(reps, [1])[3][1] == (0.0, 0.0)


def test_lag_covariance_table_rejects_cutoffs_outside_one_to_n():
    reps = _as_block_sums(np.arange(24).reshape(3, 8))
    for bad in ([0], [9], [1, 9], [-1]):
        with pytest.raises(ParameterError):
            lag_covariance_table(reps, bad)


@pytest.mark.parametrize("r", [3, 19, 20, 21, 200])
def test_lag_covariance_table_centres_each_subsample_once(monkeypatch, r):
    """One centring for the full sample and one per jackknife subsample."""
    seen = []
    original = trees._cyclic_lag_cov

    def recording(centered, lag):
        seen.append(centered)  # kept alive, so ids stay distinct
        return original(centered, lag)

    monkeypatch.setattr(trees, "_cyclic_lag_cov", recording)
    matrix = np.random.default_rng(r).integers(0, 50, size=(r, 8))
    lag_covariance_table(_as_block_sums(matrix), range(1, 9))
    b = min(20, r)
    assert len({id(c) for c in seen}) == b + 1
    assert len(seen) == (b + 1) * 4


# -- batch jackknife ---------------------------------------------------------------


def test_jackknife_se_of_mean_is_batch_mean_spread():
    rng = np.random.default_rng(7)
    for r, b in ((200, 20), (60, 10), (30, 30)):
        x = rng.gamma(2.0, 3.0, size=r)
        batch_means = x.reshape(b, r // b).mean(axis=1)
        expect = batch_means.std(ddof=1) / math.sqrt(b)
        got = trees._jackknife_se(np.mean, x, batches=b)
        assert isinstance(got, float)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_jackknife_se_needs_two_batches():
    assert math.isnan(trees._jackknife_se(np.mean, np.ones(1)))
    assert math.isnan(trees._jackknife_se(np.mean, np.arange(10.0), batches=1))


def test_jackknife_se_is_elementwise_for_array_statistics():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(120, 3)) * np.array([1.0, 5.0, 0.1])
    got = trees._jackknife_se(lambda m: m.mean(axis=0), x, batches=20)
    assert got.shape == (3,)
    for j in range(3):
        expect = x[:, j].reshape(20, 6).mean(axis=1).std(ddof=1) / math.sqrt(20)
        assert got[j] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    # Bit for bit: each element of a list statistic gets the SE of that
    # element alone, as lag_covariance_table's covariances and tails do.
    for _ in range(50):
        b = int(rng.integers(9, 41))
        y = rng.normal(size=(int(rng.integers(b, 200)), 7)) * rng.gamma(1.0, 10.0, size=7)
        got = trees._jackknife_se(lambda m: [np.mean(col) for col in m.T], y, batches=b)
        for j in range(7):
            assert got[j] == trees._jackknife_se(np.mean, y[:, j], batches=b), (b, j)
    cov_se = trees._jackknife_se(lambda m: np.cov(m.T), x, batches=20)
    assert cov_se.shape == (3, 3)
    assert np.allclose(cov_se, cov_se.T, rtol=1e-12, atol=0.0)
