"""CLI config parsing, mode execution, determinism, and plot exports."""

import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adrcm.cli as cli
from adrcm.cli import (
    ConfigError,
    RunConfig,
    config_hash,
    export_plotdata,
    main,
    parse_config,
    render_config,
)
from adrcm.harness import MIN_TEST_SAMPLES, CliqueStatistic, ExperimentPlan, variance_scaling
from adrcm.model import ModelParams
from adrcm.theory import MomentProfile, lambda_up

WEDGE_TEXT = "m=3\nroot=1\nedge=2->1\nedge=3->1\n"


def _write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def _minimal(mode="sample", extra="", out="out"):
    return (
        "[model]\ngamma = 0.3\nbeta = 1.0\nn = 50\n\n"
        f"[experiment]\nmode = {mode}\n{extra}\n"
        f"[output]\ndirectory = {out}\n"
    )


# -- parsing ----------------------------------------------------------------


def test_parse_minimal_defaults():
    cfg = parse_config(_minimal())
    assert cfg.r == 1000
    assert cfg.formats == ("csv", "json")
    assert cfg.seed == 0
    assert cfg.directory == "out"


def test_parse_regime_gate_for_clt():
    body = (
        "[model]\ngamma = 0.6\nbeta = 1.0\nn = 50\n\n"
        "[experiment]\nmode = clt\nk_list = 3\nn_list = 50,100\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert any("1/2" in e for e in err.value.errors)
    cfg = parse_config(body, override_regime=True)
    assert cfg.gamma == 0.6


def test_parse_tree_regime_gate(tmp_path):
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    body = (
        "[model]\ngamma = 0.3\nbeta = 1.0\nn = 50\n\n"
        f"[experiment]\nmode = clt\ntree_file = {tree}\nn_list = 50\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(body)  # wedge has 2 leaves: needs gamma < 1/4
    assert any("1/(2*2)" in e for e in err.value.errors)
    assert parse_config(body, override_regime=True).tree_file == str(tree)


def test_parse_unknown_key_suggestion():
    body = "[model]\ngama = 0.3\nbeta = 1.0\nn = 50\n\n[experiment]\nmode = sample\n"
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert any("did you mean 'gamma'" in e for e in err.value.errors)


def test_parse_collects_all_errors():
    body = "[model]\ngamma = nope\nbeta = -1\n\n[experiment]\nmode = bogus\nk_list = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    text = "\n".join(err.value.errors)
    assert "gamma" in text and "beta" in text and "mode" in text
    assert "missing required key 'n'" in text
    assert len(err.value.errors) >= 4


def test_parse_rejects_trailing_garbage_and_orphan_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("gamma = 0.3\n[model]\nwhat is this\n")
    joined = "\n".join(err.value.errors)
    assert "outside of any [section]" in joined
    assert "expected key = value" in joined


def test_parse_missing_tree_file(tmp_path):
    body = (
        "[model]\ngamma = 0.2\nbeta = 1.0\nn = 50\n\n"
        f"[experiment]\nmode = trees\ntree_file = {tmp_path}/none.tree\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert any("does not exist" in e for e in err.value.errors)


def test_render_parse_round_trip(tmp_path):
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    configs = [
        RunConfig(gamma=0.3, beta=1.0, n=50.0, mode="sample"),
        RunConfig(gamma=0.2, beta=0.5, n=64.0, mode="cliques", k_list=(2, 3), r=7, seed=9),
        RunConfig(
            gamma=0.2,
            beta=0.5,
            n=64.0,
            mode="clt",
            k_list=(3,),
            n_list=(32.0, 64.0),
            formats=("json",),
            directory="elsewhere",
        ),
        RunConfig(gamma=0.1, beta=1.0, n=16.0, mode="blocks", tree_file=str(tree), r=12),
    ]
    for cfg in configs:
        assert parse_config(render_config(cfg)) == cfg


_TREE_NAMES = ("e.tree", "a#b;c.tree", "a b.tree", "a #b.tree", "a ;b.tree", "a\tb.tree")


@pytest.fixture(scope="module")
def tree_dir(tmp_path_factory):
    """One-edge trees (one leaf) under names with comment marks and spaces."""
    path = tmp_path_factory.mktemp("trees")
    for name in _TREE_NAMES:
        (path / name).write_text("m=2\nroot=1\nedge=2->1\n", encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(cli.MODES),
    gamma=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    beta=st.floats(0.0, 1e6, exclude_min=True),
    n=st.integers(1, 10**6) | st.floats(0.0, 1e6, exclude_min=True),
    k_list=st.lists(st.integers(1, 5), max_size=2),
    tree=st.none() | st.sampled_from(_TREE_NAMES),
    r=st.integers(1, 10**6),
    n_list=st.lists(st.integers(1, 10**4) | st.floats(0.0, 1e4, exclude_min=True), max_size=3),
    seed=st.integers(0, 2**64 - 1),
    directory=st.text(alphabet="ab #;=\t", max_size=8),
    formats=st.lists(st.sampled_from(("csv", "json")), min_size=1, max_size=2),
    comment=st.sampled_from(("", "  # note", "\t;note")),
)
def test_render_parse_round_trip_for_every_accepted_config(
    tree_dir, mode, gamma, beta, n, k_list, tree, r, n_list, seed, directory, formats, comment
):
    lines = ["[model]", f"gamma = {gamma}", f"beta = {beta}", f"n = {n}", "[experiment]"]
    lines += [f"mode = {mode}", f"r = {r}", f"seed = {seed}"]
    if k_list:
        lines.append("k_list = " + ",".join(map(str, k_list)))
    if tree is not None:
        lines.append(f"tree_file = {tree_dir / tree}")
    if n_list:
        lines.append("n_list = " + ",".join(map(str, n_list)))
    lines += ["[output]", f"directory = {directory}", "formats = " + ",".join(formats)]
    try:
        cfg = parse_config("\n".join(line + comment for line in lines))
    except ConfigError:
        assume(False)
    assert parse_config(render_config(cfg)) == cfg


def test_comment_marks_inside_paths_are_kept(tmp_path):
    tree = tmp_path / "a#b;c.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    out = tmp_path / "o#1;2"
    body = (
        "# leading comment\n; another\n"
        "[model]\ngamma = 0.1   # weight exponent\nbeta = 1.0 ; range\nn = 8\n\n"
        f"[experiment]\nmode = blocks\ntree_file = {tree}   # wedge\nr = 12\n"
        f"[output]\ndirectory = {out}\n"
    )
    cfg = parse_config(body)
    assert cfg.tree_file == str(tree)
    assert cfg.directory == str(out)
    assert (cfg.gamma, cfg.beta) == (0.1, 1.0)
    assert parse_config(render_config(cfg)) == cfg
    assert main(["blocks", "--config", _write_config(tmp_path, body)]) == 0
    assert (out / "blocks_summary.json").exists()


@pytest.mark.parametrize("out", [" out", "out #1"])
def test_out_override_that_changes_in_the_round_trip_is_rejected(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    cfgp = _write_config(tmp_path, _minimal(out="results"))
    assert main(["sample", "--config", cfgp, "--out", out]) == 2
    assert "directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_override_with_inner_hash_is_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgp = _write_config(tmp_path, _minimal(out="results"))
    assert main(["sample", "--config", cfgp, "--out", "a#b"]) == 0
    assert (tmp_path / "a#b" / "sample_summary.json").exists()


# -- mode runs -----------------------------------------------------------------


def test_sample_mode_row_count(tmp_path, capsys):
    out = tmp_path / "results"
    cfgp = _write_config(tmp_path, _minimal(out=str(out)))
    assert main(["sample", "--config", cfgp, "--seed", "5"]) == 0
    text = (out / "sample_points.csv").read_text()
    rows = [l for l in text.strip().splitlines() if not l.startswith("#")]
    summary = json.loads((out / "sample_summary.json").read_text())
    assert len(rows) - 1 == summary["estimates"]["point_count"]
    assert summary["schema_version"] == "1"
    assert summary["seeds"]["master"] == 5
    assert summary["config_hash"]
    # metadata preamble embeds the seed, hash and schema version
    assert "# master_seed=5" in text
    assert "# schema_version=1" in text
    assert "# config_hash=" in text


def test_summary_document_schema(tmp_path):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _minimal(out=str(out)))
    assert main(["sample", "--config", cfgp, "--seed", "5"]) == 0
    doc = json.loads((out / "sample_summary.json").read_text())
    assert set(doc) == {
        "schema_version", "plan", "estimates", "std_errors", "test_statistics",
        "p_values", "seeds", "wall_time", "config_hash", "files",
    }
    assert doc["schema_version"] == "1"
    cfg = dataclasses.replace(parse_config(_minimal(out=str(out))), seed=5)
    assert doc["plan"] == json.loads(json.dumps(cfg.__dict__))
    assert doc["config_hash"] == config_hash(cfg)
    assert doc["std_errors"] == doc["test_statistics"] == doc["p_values"] == {}


def test_cliques_mode_outputs(tmp_path):
    out = tmp_path / "o"
    body = _minimal("cliques", "k_list = 1,2\nr = 30\nseed = 3\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["cliques", "--config", cfgp]) == 0
    lines = [
        l
        for l in (out / "cliques_replicates.csv").read_text().strip().splitlines()
        if not l.startswith("#")
    ]
    assert len(lines) == 31
    summary = json.loads((out / "cliques_summary.json").read_text())
    assert "cliques_k1" in summary["estimates"]


def test_clt_mode_tiny_r_flags_insufficient(tmp_path):
    out = tmp_path / "o"
    body = _minimal("clt", "k_list = 1\nr = 2\nn_list = 20,40\nseed = 1\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["clt", "--config", cfgp]) == 0
    summary = json.loads((out / "clt_summary.json").read_text())
    assert any("insufficient samples for KS" in note for note in summary["notes"])


@pytest.mark.parametrize("r", [29, 30])
def test_clt_reads_the_last_label_rows_of_variance_scaling(tmp_path, r):
    out = tmp_path / "o"
    body = _minimal("clt", f"k_list = 1,2\nr = {r}\nn_list = 20,40\nseed = 5\n", str(out))
    assert main(["clt", "--config", _write_config(tmp_path, body)]) == 0
    summary = json.loads((out / "clt_summary.json").read_text())
    plan = ExperimentPlan(ModelParams(0.3, 1.0, 50.0), CliqueStatistic((1, 2)), r, 5, (20.0, 40.0))
    rows = [row for row in variance_scaling(plan).rows if row.label == "cliques_k2"]
    estimates = summary["estimates"]
    assert estimates["var_over_n"] == {"%g" % row.n: row.var_over_n for row in rows}
    if r < MIN_TEST_SAMPLES:
        assert all(row.ci_lo is None and row.ci_hi is None for row in rows)
        assert estimates["ci_lo"] == estimates["ci_hi"] == {}
        assert summary["notes"] == [
            f"insufficient samples for KS at n={n} (r={r})" for n in (20, 40)
        ]
    else:
        assert estimates["ci_lo"] == {"%g" % row.n: row.ci_lo for row in rows}
        assert estimates["ci_hi"] == {"%g" % row.n: row.ci_hi for row in rows}
        assert summary["notes"] == []


def test_clt_assert_fails_on_discrete_counts(tmp_path):
    # Poisson(3) counts are far from normal: KS must reject and --assert exit 1.
    out = tmp_path / "o"
    body = (
        "[model]\ngamma = 0.3\nbeta = 1.0\nn = 3\n\n"
        "[experiment]\nmode = clt\nk_list = 1\nr = 400\nn_list = 3\nseed = 2\n"
        f"[output]\ndirectory = {out}\n"
    )
    cfgp = _write_config(tmp_path, body)
    assert main(["clt", "--config", cfgp, "--assert"]) == 1
    assert main(["clt", "--config", cfgp]) == 0


def test_clt_runs_every_torus_length_in_one_pool(tmp_path, monkeypatch):
    body = _minimal("clt", "k_list = 1,2,3\nr = 40\nn_list = 16,24,32\nseed = 5\n", "PLACEHOLDER")
    started = []
    init = ProcessPoolExecutor.__init__

    def counting(pool, *args, **kwargs):
        started.append(threads)
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        cfgp = _write_config(tmp_path, body.replace("PLACEHOLDER", str(out)), f"t{threads}.cfg")
        assert main(["clt", "--config", cfgp, "--threads", threads]) == 0
        summary = json.loads((out / "clt_summary.json").read_text())
        del summary["wall_time"], summary["plan"]["directory"], summary["config_hash"]
        csvs = []
        for n in (16, 24, 32):
            lines = (out / f"clt_replicates_n{n}.csv").read_text().splitlines()
            # Drop the preamble's config hash and every row's wall_time.
            rows = [line.split(",") for line in lines if not line.startswith("# config_hash")]
            csvs.append([row[:3] + row[4:] for row in rows])
        outputs.append((summary, csvs))
    assert started == ["2"]
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0][0]["p_values"]["ks"]) == ["16", "24", "32"]


def test_summary_records_wall_time(tmp_path):
    out = tmp_path / "o"
    body = _minimal("cliques", "k_list = 1,2\nr = 5\nseed = 2\n", str(out))
    assert main(["cliques", "--config", _write_config(tmp_path, body)]) == 0
    summary = json.loads((out / "cliques_summary.json").read_text())
    assert summary["wall_time"] > 0.0


def test_json_deterministic_modulo_wall_time(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    body = _minimal("cliques", "k_list = 1,2\nr = 25\nseed = 11\n", "PLACEHOLDER")
    cfg_a = _write_config(tmp_path, body.replace("PLACEHOLDER", str(out_a)), "a.cfg")
    assert main(["cliques", "--config", cfg_a]) == 0
    assert main(["cliques", "--config", cfg_a, "--out", str(out_b)]) == 0

    def normalized(path):
        doc = json.loads(path.read_text())
        doc["wall_time"] = None
        doc["plan"]["directory"] = None
        doc["config_hash"] = None
        return json.dumps(doc, sort_keys=True)

    assert normalized(out_a / "cliques_summary.json") == normalized(out_b / "cliques_summary.json")


def test_stdout_deterministic_except_time_lines(tmp_path, capsys):
    out = tmp_path / "o"
    body = _minimal("cliques", "k_list = 1\nr = 10\nseed = 4\n", str(out))
    cfgp = _write_config(tmp_path, body)
    main(["cliques", "--config", cfgp])
    first = capsys.readouterr().out
    main(["cliques", "--config", cfgp])
    second = capsys.readouterr().out

    def strip_time(text):
        return [l for l in text.splitlines() if not l.startswith("# time:")]

    assert strip_time(first) == strip_time(second)
    assert any(l.startswith("# time:") for l in first.splitlines())


def test_blocks_mode_and_decay_export(tmp_path):
    out = tmp_path / "o"
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    body = (
        "[model]\ngamma = 0.1\nbeta = 1.0\nn = 16\n\n"
        f"[experiment]\nmode = blocks\ntree_file = {tree}\nr = 60\nseed = 3\n"
        f"[output]\ndirectory = {out}\n"
    )
    cfgp = _write_config(tmp_path, body)
    assert main(["blocks", "--config", cfgp]) == 0
    summary_path = out / "blocks_summary.json"
    text = export_plotdata(json.loads(summary_path.read_text()), "decay", str(out))
    lines = text.strip().splitlines()
    assert lines[0] == "k,covariance,se"
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks == sorted(ks)


def _blocks_config(tmp_path, r=60):
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    body = (
        "[model]\ngamma = 0.1\nbeta = 1.0\nn = 16\n\n"
        f"[experiment]\nmode = blocks\ntree_file = {tree}\nr = {r}\nseed = 3\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    return _write_config(tmp_path, body, f"blocks-{r}.cfg")


def _strict_json(path):
    """Parse JSON, refusing the non-standard NaN and Infinity literals."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_blocks_mode_rejects_fewer_than_three_replicates(tmp_path, capsys):
    assert main(["blocks", "--config", _blocks_config(tmp_path, r=2)]) == 2
    err = capsys.readouterr().err
    assert "config error: mode blocks requires r >= 3" in err
    assert "got 2" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()
    # Three replicates leave two in every jackknife subsample: finite SEs.
    assert main(["blocks", "--config", _blocks_config(tmp_path, r=3)]) == 0
    summary = _strict_json(tmp_path / "o" / "blocks_summary.json")
    ses = [d["se"] for d in summary["estimates"]["lag_covariance"]]
    ses += [u["se"] for u in summary["estimates"]["cox_grimmett"].values()]
    assert ses and all(np.isfinite(ses))


def test_blocks_summary_records_stage_timings(tmp_path):
    assert main(["blocks", "--config", _blocks_config(tmp_path)]) == 0
    timings = _strict_json(tmp_path / "o" / "blocks_summary.json")["timings"]
    assert set(timings) == {"replicates", "reductions"}
    assert timings["replicates"] > 0.0 and timings["reductions"] > 0.0


def test_blocks_outputs_do_not_depend_on_the_worker_count(tmp_path):
    cfgp = _blocks_config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        assert main(["blocks", "--config", cfgp, "--threads", threads]) == 0
        summary = _strict_json(tmp_path / "o" / "blocks_summary.json")
        del summary["wall_time"], summary["timings"]
        outputs.append((summary, (tmp_path / "o" / "blocks_decay.csv").read_text()))
    assert outputs[0] == outputs[1]


def test_moments_mode_runs(tmp_path):
    out = tmp_path / "o"
    body = _minimal("moments", "k_list = 3\nr = 40\nseed = 6\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["moments", "--config", cfgp]) == 0
    summary = json.loads((out / "moments_summary.json").read_text())
    assert "slope" in summary["estimates"]


def _wedge_moments_config(tmp_path, tree=WEDGE_TEXT, r=300):
    (tmp_path / "w.tree").write_text(tree, encoding="utf-8")
    body = (
        "[model]\ngamma = 0.1\nbeta = 1.0\nn = 256\n\n"
        f"[experiment]\nmode = moments\ntree_file = {tmp_path / 'w.tree'}\nr = {r}\nseed = 4\n\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    return _write_config(tmp_path, body)


def test_moments_assert_checks_the_wedge_against_its_exact_law(tmp_path):
    # Every up-radius beta/u <= 100 fits in n/2 = 128, so E[D_in(u)] =
    # lambda_up(u)^2 exactly; the profile's slope (0.90) is far above the
    # asymptotic leaves * gamma + 0.15 = 0.35, and a correct run must pass.
    assert main(["moments", "--config", _wedge_moments_config(tmp_path), "--assert"]) == 0
    estimates = json.loads((tmp_path / "o" / "moments_summary.json").read_text())["estimates"]
    exact = estimates["exact_law"]
    assert "slope_bound" not in estimates
    assert exact["law"] == "lambda_up(u)^2"
    params = ModelParams(0.1, 1.0, 256.0)
    assert exact["target"] == [lambda_up(u, params) ** 2 for u in estimates["u_grid"]]
    assert len(exact["z"]) == 6 and exact["max_abs_z"] <= 3.0
    assert exact["marks_ok"] and exact["slope_ok"]


def test_moments_assert_fails_a_biased_wedge_profile(tmp_path, monkeypatch, capsys):
    def profile(params, spec, u_grid, replicates, power, seed, threads):
        law = np.array([lambda_up(u, params) ** 2 for u in u_grid])
        bias = np.array([1.0, 1.0, 1.0, 1.0, 1.05, 1.05])  # the two smallest marks
        return MomentProfile(tuple(u_grid), law * bias, 0.01 * law, power)

    monkeypatch.setattr(cli, "tree_root_moment_profile", profile)
    assert main(["moments", "--config", _wedge_moments_config(tmp_path), "--assert"]) == 1
    assert "exact law lambda_up(u)^2: max |z| 5.00 above 3" in capsys.readouterr().out


def test_moments_mode_keeps_the_slope_bound_for_other_trees(tmp_path):
    path3 = "m=3\nroot=1\nedge=2->1\nedge=3->2\n"
    assert main(["moments", "--config", _wedge_moments_config(tmp_path, path3, r=20)]) == 0
    estimates = json.loads((tmp_path / "o" / "moments_summary.json").read_text())["estimates"]
    assert estimates["slope_bound"] == pytest.approx(0.25)
    assert "exact_law" not in estimates


def test_sigma_mode_runs(tmp_path):
    out = tmp_path / "o"
    body = _minimal("sigma", "k_list = 2\nr = 300\nseed = 6\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["sigma", "--config", cfgp]) == 0
    summary = json.loads((out / "sigma_summary.json").read_text())
    assert summary["estimates"]["sigma"] == pytest.approx(
        summary["estimates"]["term_single"] + summary["estimates"]["term_joint"]
    )


# -- plotdata ---------------------------------------------------------------------


def _run_clt(tmp_path, r=120):
    out = tmp_path / "o"
    body = _minimal("clt", f"k_list = 1\nr = {r}\nn_list = 20,40\nseed = 8\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["clt", "--config", cfgp]) == 0
    return out


def test_plotdata_qq_shape(tmp_path):
    out = _run_clt(tmp_path)
    summary = json.loads((out / "clt_summary.json").read_text())
    text = export_plotdata(summary, "qq", str(out))
    lines = text.strip().splitlines()
    assert lines[0] == "normal_quantile,sample_quantile"
    quantiles = [float(l.split(",")[0]) for l in lines[1:]]
    assert len(quantiles) == 120
    assert all(a < b for a, b in zip(quantiles, quantiles[1:]))


def test_plotdata_qq_defaults_to_the_largest_n(tmp_path):
    files = {}
    for n, rows in ((250, 3), (500, 4), (1000, 5)):
        fname = f"clt_replicates_n{n}.csv"
        lines = ["# schema_version=1", "seed,cliques_k1"] + [f"{i},{i * i}" for i in range(rows)]
        (tmp_path / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
        files[f"replicates_n{n}"] = fname
    summary = {"plan": {"mode": "clt"}, "files": files}
    assert len(export_plotdata(summary, "qq", str(tmp_path)).splitlines()) == 1 + 5
    assert len(export_plotdata(summary, "qq", str(tmp_path), n=500).splitlines()) == 1 + 4


def test_plotdata_scaling_rows(tmp_path):
    out = _run_clt(tmp_path)
    summary = json.loads((out / "clt_summary.json").read_text())
    text = export_plotdata(summary, "scaling", str(out))
    lines = text.strip().splitlines()
    assert lines[0] == "n,var_over_n,ci_lo,ci_hi"
    assert len(lines) == 3
    assert [float(l.split(",")[0]) for l in lines[1:]] == [20.0, 40.0]


def test_plotdata_mode_mismatch(tmp_path):
    out = _run_clt(tmp_path)
    summary = json.loads((out / "clt_summary.json").read_text())
    from adrcm.model import ParameterError

    with pytest.raises(ParameterError):
        export_plotdata(summary, "decay", str(out))


def test_plotdata_cli_to_stdout(tmp_path, capsys):
    out = _run_clt(tmp_path)
    capsys.readouterr()  # drop the setup run's output
    assert main(["plotdata", "--kind", "scaling", "--results", str(out / "clt_summary.json")]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("n,var_over_n")


# -- exit codes ----------------------------------------------------------------------


def test_exit_code_usage_error(tmp_path):
    cfgp = _write_config(tmp_path, "[model]\ngamma = 2.0\nbeta = 1\nn = 10\n\n[experiment]\nmode = sample\n")
    assert main(["sample", "--config", cfgp]) == 2


def _clt_text(gamma, out, mode="mode = clt"):
    return (
        f"[model]\ngamma = {gamma}\nbeta = 1.0\nn = 20\n\n"
        f"[experiment]\n{mode}\nk_list = 1\nr = 20\nn_list = 20\nseed = 1\n"
        f"[output]\ndirectory = {out}\n"
    )


@pytest.mark.parametrize(
    "gamma, mode, argv",
    [
        (0.7, "mode = clt", ["clt", "--gamma", "0.3"]),
        (0.7, "mode = clt", ["sample"]),
        (0.3, "", ["sample"]),
        (0.7, "", ["clt", "--gamma", "0.3"]),
    ],
    ids=["gamma-flag", "clt-file-as-sample", "no-mode-as-sample", "no-mode-gamma-flag"],
)
def test_the_subcommand_and_flags_are_validated_in_place_of_the_file(tmp_path, gamma, mode, argv):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _clt_text(gamma, out, mode))
    assert main(argv[:1] + ["--config", cfgp] + argv[1:]) == 0
    plan = json.loads((out / f"{argv[0]}_summary.json").read_text())["plan"]
    assert plan["mode"] == argv[0]
    assert plan["gamma"] == (0.3 if "--gamma" in argv else gamma)


def test_gamma_flag_outside_the_regime_is_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _clt_text(0.3, out))
    assert main(["clt", "--config", cfgp, "--gamma", "0.6"]) == 2
    assert "config error: clt mode with clique counts requires gamma < 1/2 (got 0.6)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, minimum",
    [("cliques", 2), ("trees", 2), ("clt", 2), ("moments", 2), ("sigma", 8), ("blocks", 3)],
)
def test_each_mode_rejects_too_few_replicates(tmp_path, capsys, mode, minimum):
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    extra = {"trees": f"tree_file = {tree}", "blocks": f"tree_file = {tree}", "clt": "k_list = 1\nn_list = 20"}
    out = tmp_path / "o"
    for r in (minimum - 1, minimum):
        body = _minimal(mode, f"{extra.get(mode, 'k_list = 2')}\nr = {r}\n", str(out))
        body = body.replace("gamma = 0.3", "gamma = 0.1").replace("n = 50", "n = 20")
        code = main([mode, "--config", _write_config(tmp_path, body)])
        err = capsys.readouterr().err
        if r < minimum:
            assert code == 2
            assert err == f"config error: mode {mode} requires r >= {minimum}, got {r}\n"
            assert not out.exists()
        else:
            assert code == 0, err
            assert out.exists()


def test_exit_code_missing_config():
    assert main(["sample"]) == 2


def test_gamma_diag_is_a_moments_option_only(tmp_path, capsys):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _minimal("clt", "k_list = 1\nr = 20\nn_list = 20\n", str(out)))
    with pytest.raises(SystemExit) as err:
        main(["clt", "--config", cfgp, "--gamma-diag", "1.2"])
    assert err.value.code == 2
    assert "--gamma-diag" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_seed_outside_64_bits_is_rejected(tmp_path, capsys, where):
    out = tmp_path / "o"
    seed = "-1" if where == "config" else "0"
    cfgp = _write_config(tmp_path, _minimal("cliques", f"k_list = 2\nr = 5\nseed = {seed}\n", str(out)))
    argv = ["cliques", "--config", cfgp] + (["--seed", "-1"] if where == "flag" else [])
    assert main(argv) == 2
    assert "config error: seed must lie in [0, 2^64), got -1" in capsys.readouterr().err
    for bad in (-1, 2**64):
        with pytest.raises(ConfigError):
            parse_config(_minimal("sample", f"seed = {bad}\n"))
    assert parse_config(_minimal("sample", f"seed = {2**64 - 1}\n")).seed == 2**64 - 1
    assert not out.exists()


def test_moments_rejects_more_than_one_clique_size(tmp_path, capsys):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _minimal("moments", "k_list = 3,2\nr = 20\n", str(out)))
    assert main(["moments", "--config", cfgp]) == 2
    assert "config error: mode moments takes one clique size, got k_list (3, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_diag_requires_a_clique_size(tmp_path, capsys):
    assert main(["moments", "--config", _wedge_moments_config(tmp_path, r=20), "--gamma-diag", "1.05"]) == 2
    assert "error: --gamma-diag needs k_list" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_list", ["16,16.0000001", "16,32,16"])
def test_clt_rejects_n_list_entries_with_one_label(tmp_path, capsys, n_list):
    # Each torus writes replicates_n<label>.csv and one summary row under its
    # "%g" label, so two entries with one label would overwrite each other.
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _minimal("clt", f"k_list = 1\nr = 20\nn_list = {n_list}\n", str(out)))
    assert main(["clt", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    entries = ", ".join(repr(float(v)) for v in n_list.split(",") if float(v) < 17)
    assert f"config error: n_list entries {entries} share the output label n16" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, old, new, flags, message",
    [
        ("cliques", "n = 50", "n = inf", [], "n must be positive and finite, got inf"),
        ("cliques", "", "", ["--n", "inf"], "n must be positive and finite, got inf"),
        ("cliques", "beta = 1.0", "beta = inf", [], "beta must be positive and finite, got inf"),
        ("clt", "n_list = 50", "n_list = inf", [], "n_list entries must be positive and finite, got (inf,)"),
        ("clt", "n_list = 50", "n_list = 0,50", [], "n_list entries must be positive and finite, got (0.0, 50.0)"),
        ("clt", "n_list = 50", "n_list = nan", [], "n_list entries must be positive and finite, got (nan,)"),
    ],
    ids=["n-inf", "n-flag-inf", "beta-inf", "n_list-inf", "n_list-zero", "n_list-nan"],
)
def test_lengths_must_be_positive_and_finite(tmp_path, capsys, mode, old, new, flags, message):
    # An infinite torus once reached the sampler and exited 3; a zero one
    # exited 2 with a message that named no config key.
    out = tmp_path / "o"
    body = _minimal(mode, "k_list = 2\nr = 5\nn_list = 50\n", str(out)).replace(old, new)
    assert main([mode, "--config", _write_config(tmp_path, body)] + flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_blocks_mode_rejects_non_integer_n(tmp_path, capsys):
    tree = tmp_path / "wedge.tree"
    tree.write_text(WEDGE_TEXT, encoding="utf-8")
    body = (
        "[model]\ngamma = 0.1\nbeta = 1.0\nn = {n}\n\n"
        f"[experiment]\nmode = blocks\ntree_file = {tree}\nr = 12\n"
        f"[output]\ndirectory = {tmp_path / 'o'}\n"
    )
    bad = _write_config(tmp_path, body.format(n="16.5"), "bad.cfg")
    good = _write_config(tmp_path, body.format(n="16"), "good.cfg")
    for argv in (["blocks", "--config", bad], ["blocks", "--config", good, "--n", "16.5"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: mode blocks requires an integer n" in err
        assert "16.5" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_exit_code_plotdata_mismatch(tmp_path):
    out = _run_clt(tmp_path)
    assert (
        main(["plotdata", "--kind", "decay", "--results", str(out / "clt_summary.json")]) == 2
    )


def test_rerun_from_rendered_config_reproduces(tmp_path):
    out = tmp_path / "o"
    body = _minimal("cliques", "k_list = 2\nr = 15\nseed = 21\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["cliques", "--config", cfgp]) == 0
    summary = json.loads((out / "cliques_summary.json").read_text())
    rebuilt = RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in summary["plan"].items()})
    assert config_hash(rebuilt) == summary["config_hash"]
    out2 = tmp_path / "p"
    cfg2 = _write_config(tmp_path, render_config(rebuilt).replace(str(out), str(out2)), "re.cfg")
    assert main(["cliques", "--config", cfg2]) == 0
    a = json.loads((out / "cliques_summary.json").read_text())["estimates"]
    b = json.loads((out2 / "cliques_summary.json").read_text())["estimates"]
    assert a == b


def test_python_m_adrcm_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    cfgp = _write_config(tmp_path, _minimal(out=str(tmp_path / "o")))
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "adrcm", "sample", "--config", cfgp],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "sample_summary.json").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_rejected(tmp_path, capsys, threads):
    out = tmp_path / "o"
    cfgp = _write_config(tmp_path, _minimal("cliques", "k_list = 2\nr = 5\n", str(out)))
    with pytest.raises(SystemExit) as err:
        main(["cliques", "--config", cfgp, "--threads", threads])
    assert err.value.code == 2
    assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
