"""Tests of the benchmark's own code: span arithmetic, wrappers and gates.

Run from the root of the source tree:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import adrcm.harness  # noqa: E402
import adrcm._parallel  # noqa: E402
from adrcm.model import ModelParams  # noqa: E402
from adrcm.theory import lambda_up  # noqa: E402

from bench_gates import (  # noqa: E402
    Z_MAX,
    block_sums_checksum,
    canonical_summary,
    replicate_checksum,
    target_problem,
)
from bench_spans import Installation, Tracer, per_layer_metrics, self_times  # noqa: E402
from bench_workloads import CliqueLadder, PalmMix, U_GRID, WedgeBlocks  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_only_the_covered_part():
    # A child running past its parent's end covers only the overlap.
    assert self_times([0.0, 2.0], [4.0, 6.0], [-1, 0]).tolist() == [2.0, 4.0]


def test_tracer_records_parents_and_self_times():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    self_s, calls = tracer.durations_by_name()
    assert calls == {"inner": 3, "outer": 1}
    total = tracer.end[0] - tracer.start[0]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(total, rel=1e-9)
    assert 0.0 <= self_s["outer"] < total


def test_installation_wraps_copied_bindings_and_restores_them():
    original = adrcm.harness.count_cliques_upto
    tracer = Tracer()
    with Installation(tracer):
        assert adrcm.harness.count_cliques_upto is not original
        assert adrcm.cliques.count_cliques_upto is adrcm.harness.count_cliques_upto
        adrcm.harness.run_replicates(
            adrcm.harness.ExperimentPlan(
                ModelParams(0.3, 1.0, 20.0), adrcm.harness.CliqueStatistic((1, 3)), 3, 1
            )
        )
        assert adrcm._parallel.parallel_map(abs, [-1, -2], threads=2) == [1, 2]
    assert adrcm.harness.count_cliques_upto is original
    metrics = per_layer_metrics(tracer, 1, {})
    assert metrics["cliques.count_cliques_upto.calls"] == 3
    assert metrics["model.sample_config.calls"] == 3
    assert metrics["parallel.map.calls"] == 2
    assert metrics["parallel.pools_started"] == 1
    assert metrics["parallel.tasks"] == 5


CSV = """# schema_version=1
replicate,seed,point_count,wall_time,cliques_k1,cliques_k3
0,11,5,0.001000,5,2
1,12,7,0.002000,7,4
"""
COLUMNS = ("seed", "point_count", "cliques_k1", "cliques_k3")


def test_checksum_changes_with_a_count_and_ignores_timing():
    base = replicate_checksum([CSV], COLUMNS)
    assert replicate_checksum([CSV.replace("0.002000", "9.500000")], COLUMNS) == base
    assert replicate_checksum([CSV.replace(",7,4\n", ",7,5\n")], COLUMNS) != base


def test_block_sums_checksum_changes_with_one_block():
    class Rep:
        def __init__(self, values):
            self.values = np.asarray(values, dtype=np.int64)

    base = block_sums_checksum([Rep([1, 2, 3]), Rep([4, 5, 6])])
    assert block_sums_checksum([Rep([1, 2, 3]), Rep([4, 5, 6])]) == base
    assert block_sums_checksum([Rep([1, 2, 3]), Rep([4, 5, 7])]) != base


def test_summary_identity_ignores_only_timing_fields():
    doc = {"estimates": {"gamma1": 0.25}, "wall_time": 1.0, "config_hash": "x"}
    base = canonical_summary(doc)
    assert canonical_summary(dict(doc, wall_time=2.0, timings={"pool": 1.0})) == base
    assert canonical_summary(dict(doc, estimates={"gamma1": 0.2500000001})) != base


def test_exact_target_check_fails_on_a_shifted_mean():
    assert target_problem("x", 10.0 + 0.5 * Z_MAX, 1.0, 10.0) is None
    assert target_problem("x", 10.0 + 1.2 * Z_MAX, 1.0, 10.0) is not None
    assert target_problem("x", 10.0, 0.0, 10.0) is not None


class _Profile:
    def __init__(self, moments, se):
        self.moments = np.asarray(moments)
        self.std_errors = np.full(len(moments), se)


def _palm_gate(up_shift=0.0, wedge_shift=0.0) -> list[str]:
    rng = np.random.default_rng(5)
    p = PalmMix.neighbor_params
    up = rng.poisson(lambda_up(PalmMix.NEIGHBOR_U, p), 20000) + up_shift
    down = rng.poisson(2.0 * p.beta / (1.0 - p.gamma), 20000)
    exact = [lambda_up(u, PalmMix.wedge_params) ** 2 for u in U_GRID]
    wedge = _Profile([m + wedge_shift for m in exact], 0.05)
    return PalmMix.__new__(PalmMix).target_problems(up, down, wedge)


def test_palm_gate_passes_exact_samples_and_fails_shifted_ones():
    assert _palm_gate() == []
    assert any("up-degree" in p for p in _palm_gate(up_shift=1))
    assert len(_palm_gate(wedge_shift=1.0)) == len(U_GRID)


def _golden_problems(kind, tmp_path) -> list[str]:
    gate = kind(1, tmp_path)
    gate.checksums, gate.summaries = set(), set()
    gate.finish()
    return gate.problems


@pytest.mark.parametrize("kind", [CliqueLadder, WedgeBlocks])
def test_golden_gate_passes_and_fails_on_a_changed_count(kind, tmp_path, monkeypatch):
    assert _golden_problems(kind, tmp_path) == []
    if kind is CliqueLadder:
        count = adrcm.harness.count_cliques_upto
        monkeypatch.setattr(adrcm.harness, "count_cliques_upto",
                            lambda config, k: count(config, k)[:-1] + [count(config, k)[-1] + 1])
    else:
        block_sums = adrcm.harness.block_sums

        def perturbed(config, spec):
            out = block_sums(config, spec)
            values = out.values.copy()
            values[0] += 1
            return type(out)(values=values, params=out.params)

        monkeypatch.setattr(adrcm.harness, "block_sums", perturbed)
    assert any("golden" in p for p in _golden_problems(kind, tmp_path))
