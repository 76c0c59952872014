"""CLI config parsing, mode execution, determinism, and plot exports."""

import json

import pytest

from adrcm.cli import (
    ConfigError,
    RunConfig,
    config_hash,
    export_plotdata,
    main,
    parse_config,
    render_config,
)

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


def test_moments_mode_runs(tmp_path):
    out = tmp_path / "o"
    body = _minimal("moments", "k_list = 3\nr = 40\nseed = 6\n", str(out))
    cfgp = _write_config(tmp_path, body)
    assert main(["moments", "--config", cfgp]) == 0
    summary = json.loads((out / "moments_summary.json").read_text())
    assert "slope" in summary["estimates"]


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


def test_exit_code_missing_config():
    assert main(["sample"]) == 2


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
