"""Command-line front end: config parsing, experiment orchestration, exports.

Exit codes: 0 success, 1 statistical assertion failure (with --assert),
2 usage or configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .harness import (
    CliqueStatistic,
    ExperimentPlan,
    TreeStatistic,
    ks_distance_normal,
    replicates_csv,
    run_block_replicates,
    run_replicates,
    samples_matrix,
    standardize,
    variance_scaling,
    wasserstein1_distance_normal,
)
from .model import (
    ModelParams,
    ParameterError,
    config_to_csv,
    sample_config,
)
from .theory import (
    RegimeError,
    _exact_law_check,
    _regime_bound,
    clique_diff_moment_profile,
    gamma_diagnostics,
    lambda_up,
    sigma_palm,
    tree_root_moment_profile,
)
from .trees import TreeSpecError, lag_covariance_table, parse_tree_spec

__all__ = ["ConfigError", "RunConfig", "parse_config", "render_config", "run", "main"]

MODES = ("sample", "cliques", "trees", "clt", "sigma", "moments", "blocks")
DEFAULT_U_GRID = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
KS_ALPHA = 0.01

# The fewest replicates each mode can reduce: a standard error needs 2, every
# blocks jackknife subsample 2 (so 3 in all), and sigma_palm a budget of 8.
_MIN_R = {"cliques": 2, "trees": 2, "clt": 2, "moments": 2, "sigma": 8, "blocks": 3}

_SECTION_KEYS = {
    "model": ("gamma", "beta", "n"),
    "experiment": ("mode", "k_list", "tree_file", "r", "n_list", "seed"),
    "output": ("directory", "formats"),
}

CONFIG_GRAMMAR = """\
configuration grammar
    The configuration is a flat key = value document split into sections:

        [model]
        gamma = 0.3          # weight exponent, in (0, 1)
        beta = 1.0           # connection range, > 0
        n = 1000             # torus circumference

        [experiment]
        mode = cliques       # optional: the subcommand sets it
        k_list = 2,3         # clique sizes (cliques/clt/sigma; one for moments)
        tree_file = w.tree   # directed tree spec (trees/clt/moments/blocks)
        r = 1000             # replicates (>= 2; blocks >= 3), sigma's MC budget (>= 8)
        n_list = 250,500     # torus ladder for clt
        seed = 0             # 64-bit master seed

        [output]
        directory = out
        formats = csv,json

    A '#' or ';' at the start of a line or after whitespace begins a
    comment; elsewhere, as in a path, it is kept.  Tree files
    use the line forms  m=<int>, root=<int>, edge=<i>-><j>.

    The subcommand sets mode, and --seed, --out, --gamma, --beta and --n
    replace the keys seed, directory, gamma, beta and n; the run is then
    validated once, on the values it runs with.

regimes
    clt mode asserts normality only where it is proved: gamma < 1/2 for
    clique counts and gamma < 1/(2 * leaves) for tree counts.  Pass
    --override-regime to explore outside those ranges.

exit codes
    0 success; 1 statistical test failed under --assert; 2 usage or
    configuration error; 3 internal error.
"""


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of problems."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description."""

    gamma: float
    beta: float
    n: float
    mode: str
    k_list: tuple[int, ...] = ()
    tree_file: str | None = None
    r: int = 1000
    n_list: tuple[float, ...] = ()
    seed: int = 0
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.gamma, self.beta, self.n)


# A comment starts at '#' or ';' only at the start of a line or after
# whitespace, so a path such as a#b.tree survives.
_COMMENT = re.compile(r"(?:^|\s)[#;].*")


def _suggest(key: str, options: tuple[str, ...]) -> str:
    close = difflib.get_close_matches(key, options, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def parse_config(text: str, override_regime: bool = False) -> RunConfig:
    """Parse and validate a configuration document.

    All problems are collected and reported together in a ConfigError, not
    just the first one.
    """
    values, errors = _read_config(text)
    return _validate(values, errors, override_regime)


def _read_config(text: str) -> tuple[dict[str, str], list[str]]:
    """The document's key/value texts, and its syntax errors."""
    errors: list[str] = []
    values: dict[str, str] = {}
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                errors.append(
                    f"line {line_no}: unknown section [{section}]"
                    + _suggest(section, tuple(_SECTION_KEYS))
                )
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected key = value, got {line!r}")
            continue
        if section is None:
            errors.append(f"line {line_no}: key outside of any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTION_KEYS[section]:
            errors.append(
                f"line {line_no}: unknown key {key!r} in [{section}]"
                + _suggest(key, _SECTION_KEYS[section])
            )
            continue
        if key in values:
            errors.append(f"line {line_no}: duplicate key {key!r}")
            continue
        values[key] = value
    return values, errors


def _validate(values: dict[str, str], errors: list[str], override_regime: bool) -> RunConfig:
    """Convert and check the key/value texts; raise one ConfigError with every problem."""

    def take(key: str, conv, default=None, required=False):
        if key not in values:
            if required:
                errors.append(f"missing required key {key!r}")
            return default
        try:
            return conv(values[key])
        except (ValueError, ParameterError) as exc:
            errors.append(f"key {key!r}: {exc}")
            return default

    def int_list(text_value: str) -> tuple[int, ...]:
        return tuple(int(t.strip()) for t in text_value.split(",") if t.strip())

    def float_list(text_value: str) -> tuple[float, ...]:
        return tuple(float(t.strip()) for t in text_value.split(",") if t.strip())

    def formats_list(text_value: str) -> tuple[str, ...]:
        out = tuple(t.strip() for t in text_value.split(",") if t.strip())
        bad = [f for f in out if f not in ("csv", "json")]
        if bad:
            raise ValueError(f"unsupported formats {bad}; allowed: csv, json")
        if not out:
            raise ValueError("formats must not be empty")
        return out

    gamma = take("gamma", float, required=True)
    beta = take("beta", float, required=True)
    n = take("n", float, required=True)
    mode = take("mode", str, required=True)
    k_list = take("k_list", int_list, default=())
    tree_file = take("tree_file", str)
    r = take("r", int, default=1000)
    n_list = take("n_list", float_list, default=())
    seed = take("seed", int, default=0)
    directory = take("directory", str, default="out")
    formats = take("formats", formats_list, default=("csv", "json"))

    if mode is not None and mode not in MODES:
        errors.append(f"mode must be one of {', '.join(MODES)}; got {mode!r}" + _suggest(mode or "", MODES))
    if gamma is not None and not (0.0 < gamma < 1.0):
        errors.append(f"gamma must lie in (0, 1), got {gamma}")
    # In-range conjunctions, so that NaN and inf fail too.
    if beta is not None and not 0.0 < beta < math.inf:
        errors.append(f"beta must be positive and finite, got {beta}")
    if n is not None and not 0.0 < n < math.inf:
        errors.append(f"n must be positive and finite, got {n}")
    if any(not 0.0 < v < math.inf for v in n_list):
        errors.append(f"n_list entries must be positive and finite, got {n_list}")
    if r is not None and r < 1:
        errors.append(f"r must be >= 1, got {r}")
    if k_list and any(k < 1 for k in k_list):
        errors.append(f"k_list entries must be >= 1, got {k_list}")
    if seed is not None and not 0 <= seed < 2**64:
        errors.append(f"seed must lie in [0, 2^64), got {seed}")

    leaves: int | None = None
    if tree_file is not None:
        if not os.path.exists(tree_file):
            errors.append(f"tree_file {tree_file!r} does not exist")
        else:
            try:
                with open(tree_file, encoding="utf-8") as handle:
                    leaves = parse_tree_spec(handle.read()).leaf_count
            except TreeSpecError as exc:
                errors.append(f"tree_file {tree_file!r}: {exc}")

    if mode in ("cliques",) and not k_list:
        errors.append("mode cliques requires k_list")
    if mode in ("trees", "blocks") and tree_file is None:
        errors.append(f"mode {mode} requires tree_file")
    if mode == "blocks" and n is not None and not n.is_integer():
        errors.append(f"mode blocks requires an integer n (one block per unit length), got {n}")
    if mode in _MIN_R and r is not None and r < _MIN_R[mode]:
        errors.append(f"mode {mode} requires r >= {_MIN_R[mode]}, got {r}")
    if mode in ("clt", "moments") and bool(k_list) == bool(tree_file):
        errors.append(f"mode {mode} requires exactly one of k_list or tree_file")
    if mode == "sigma" and len(k_list) not in (1, 2):
        errors.append("mode sigma requires k_list with one or two entries")
    if mode == "moments" and len(k_list) > 1:
        errors.append(f"mode moments takes one clique size, got k_list {k_list}")
    if mode == "clt" and not n_list:
        errors.append("mode clt requires n_list")
    # Each torus writes its results under its "%g" label, which must be unique.
    labels = ["%g" % v for v in n_list]
    for label in sorted({l for l in labels if labels.count(l) > 1}):
        same = ", ".join(repr(v) for v, l in zip(n_list, labels) if l == label)
        errors.append(f"n_list entries {same} share the output label n{label}")

    if mode == "clt" and gamma is not None and not override_regime:
        if k_list and gamma >= _regime_bound():
            errors.append(
                f"clt mode with clique counts requires gamma < 1/2 (got {gamma}); "
                "pass --override-regime to explore anyway"
            )
        if leaves is not None and gamma >= _regime_bound(leaves):
            errors.append(
                f"clt mode with this tree requires gamma < 1/(2*{leaves}) "
                f"(got {gamma}); pass --override-regime to explore anyway"
            )

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        gamma=gamma,
        beta=beta,
        n=n,
        mode=mode,
        k_list=k_list,
        tree_file=tree_file,
        r=r,
        n_list=n_list,
        seed=seed,
        directory=directory,
        formats=formats,
    )


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = [
        "[model]",
        f"gamma = {cfg.gamma!r}",
        f"beta = {cfg.beta!r}",
        f"n = {cfg.n!r}",
        "",
        "[experiment]",
        f"mode = {cfg.mode}",
    ]
    if cfg.k_list:
        lines.append("k_list = " + ",".join(str(k) for k in cfg.k_list))
    if cfg.tree_file is not None:
        lines.append(f"tree_file = {cfg.tree_file}")
    lines.append(f"r = {cfg.r}")
    if cfg.n_list:
        lines.append("n_list = " + ",".join(repr(v) for v in cfg.n_list))
    lines.append(f"seed = {cfg.seed}")
    lines += [
        "",
        "[output]",
        f"directory = {cfg.directory}",
        "formats = " + ",".join(cfg.formats),
        "",
    ]
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()


# -- output helpers ----------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _summary(cfg: RunConfig, **sections) -> dict:
    """Versioned JSON-ready summary; the four result tables default to empty."""
    doc = {key: {} for key in ("estimates", "std_errors", "test_statistics", "p_values")}
    doc.update(sections)
    doc.update(
        schema_version="1",
        plan={f.name: getattr(cfg, f.name) for f in fields(cfg)},
        seeds={"master": cfg.seed},
        wall_time=0.0,  # set by run() once the mode has finished
        config_hash=config_hash(cfg),
    )
    return doc


def _emit(cfg: RunConfig, name: str, summary: dict, csv_files: dict[str, str]) -> None:
    out = cfg.directory
    preamble = (
        f"# schema_version={summary['schema_version']}\n"
        f"# master_seed={cfg.seed}\n"
        f"# config_hash={config_hash(cfg)}\n"
    )
    if "csv" in cfg.formats:
        for fname, text in csv_files.items():
            _write_atomic(os.path.join(out, fname), preamble + text)
            print(f"wrote {os.path.join(out, fname)}")
    if "json" in cfg.formats:
        path = os.path.join(out, f"{name}_summary.json")
        _write_atomic(path, _json_text(summary))
        print(f"wrote {path}")


# -- mode implementations ----------------------------------------------------

# (output name, summary, CSV files by name, failed check or None); run()
# writes the outputs and turns a failed check into exit code 1 under --assert.
_ModeOutput = tuple[str, dict, dict[str, str], str | None]


def _tree_spec(cfg: RunConfig):
    assert cfg.tree_file is not None
    with open(cfg.tree_file, encoding="utf-8") as handle:
        spec = parse_tree_spec(handle.read())
    if spec.root_degree_one:
        print(
            "note: the root has skeleton degree one; it is not counted as a leaf"
        )
    return spec


def _statistic(cfg: RunConfig):
    if cfg.k_list:
        return CliqueStatistic(k_list=cfg.k_list)
    return TreeStatistic(spec=_tree_spec(cfg))


def _mode_sample(cfg: RunConfig, threads: int) -> _ModeOutput:
    config = sample_config(cfg.params, cfg.seed)
    buffer = io.StringIO()
    config_to_csv(config, buffer)
    summary = _summary(cfg, estimates={"point_count": len(config)},
                       files={"points": "sample_points.csv"})
    return "sample", summary, {"sample_points.csv": buffer.getvalue()}, None


def _mode_counts(cfg: RunConfig, threads: int) -> _ModeOutput:
    statistic = _statistic(cfg)
    plan = ExperimentPlan(cfg.params, statistic, cfg.r, cfg.seed)
    results = run_replicates(plan, threads=threads)
    matrix = samples_matrix(results)
    estimates = {}
    std_errors = {}
    for j, label in enumerate(statistic.labels):
        col = matrix[:, j]
        estimates[label] = {
            "mean": float(col.mean()),
            "var_over_n": float(col.var(ddof=1) / cfg.n),
        }
        std_errors[label] = float(col.std(ddof=1) / np.sqrt(col.size))
    name = "cliques" if cfg.k_list else "trees"
    summary = _summary(
        cfg,
        estimates=estimates,
        std_errors=std_errors,
        files={"replicates": f"{name}_replicates.csv"},
    )
    return name, summary, {f"{name}_replicates.csv": replicates_csv(results, statistic.labels)}, None


def _mode_clt(cfg: RunConfig, threads: int) -> _ModeOutput:
    statistic = _statistic(cfg)
    label = statistic.labels[-1]
    notes: list[str] = []
    estimates: dict = {"var_over_n": {}, "ci_lo": {}, "ci_hi": {}}
    test_statistics: dict = {"ks": {}, "w1": {}}
    p_values: dict = {"ks": {}}
    files: dict = {}
    csv_files: dict[str, str] = {}
    failed = False
    plan = ExperimentPlan(cfg.params, statistic, cfg.r, cfg.seed, cfg.n_list)
    scaling = variance_scaling(plan, threads)
    rows = [row for row in scaling.rows if row.label == label]
    for row, results in zip(rows, scaling.replicates.values()):
        key = "%g" % row.n
        estimates["var_over_n"][key] = row.var_over_n
        if row.ci_lo is not None:
            estimates["ci_lo"][key], estimates["ci_hi"][key] = row.ci_lo, row.ci_hi
            std = standardize(samples_matrix(results)[:, -1])
            ks_stat, ks_p = ks_distance_normal(std)
            test_statistics["ks"][key] = ks_stat
            test_statistics["w1"][key] = wasserstein1_distance_normal(std)
            p_values["ks"][key] = ks_p
            if ks_p <= KS_ALPHA:
                failed = True
        else:
            notes.append(f"insufficient samples for KS at n={key} (r={cfg.r})")
        fname = f"clt_replicates_n{key}.csv"
        files[f"replicates_n{key}"] = fname
        csv_files[fname] = replicates_csv(results, statistic.labels)
    summary = _summary(
        cfg,
        estimates=estimates,
        test_statistics=test_statistics,
        p_values=p_values,
        files=files,
        notes=notes,
    )
    summary["statistic_label"] = label
    return "clt", summary, csv_files, f"KS p-value <= {KS_ALPHA}" if failed else None


def _mode_sigma(cfg: RunConfig, threads: int) -> _ModeOutput:
    k = cfg.k_list[0]
    l = cfg.k_list[1] if len(cfg.k_list) > 1 else k
    est = sigma_palm(cfg.params, k, l, mc_budget=cfg.r, seed=cfg.seed, threads=threads)
    summary = _summary(
        cfg,
        estimates={
            "sigma": est.value,
            "term_single": est.components[0],
            "term_joint": est.components[1],
            "details": est.details,
        },
        std_errors={"sigma": est.std_error},
    )
    failure = None
    if not est.value > 3.0 * est.std_error:
        failure = "sigma estimate not positive at 3 standard errors"
    return "sigma", summary, {}, failure


def _mode_moments(cfg: RunConfig, threads: int, gamma_diag_eta: float | None = None) -> _ModeOutput:
    if gamma_diag_eta is not None:
        if not cfg.k_list:
            raise ParameterError("--gamma-diag needs k_list: its diagnostics are for clique counts")
        diag = gamma_diagnostics(
            cfg.params, gamma_diag_eta, mc_budget=cfg.r, seed=cfg.seed,
            k0=cfg.k_list[0], threads=threads,
        )
        summary = _summary(
            cfg,
            estimates={
                "gamma1": diag.gamma1,
                "gamma2": diag.gamma2,
                "gamma3": diag.gamma3,
                "eta": diag.eta,
                "details": diag.details,
            },
            std_errors={"gamma1": diag.se1, "gamma2": diag.se2, "gamma3": diag.se3},
        )
        return "gamma_diagnostics", summary, {}, None
    u_grid = DEFAULT_U_GRID
    exact = None
    if cfg.k_list:
        profile = clique_diff_moment_profile(
            cfg.params, cfg.k_list[0], u_grid, replicates=cfg.r, power=2.0,
            seed=cfg.seed, threads=threads,
        )
        bound = 2.0 * cfg.gamma + 0.15
    else:
        spec = _tree_spec(cfg)
        profile = tree_root_moment_profile(
            cfg.params, spec, u_grid, replicates=cfg.r, power=1.0,
            seed=cfg.seed, threads=threads,
        )
        bound = spec.leaf_count * cfg.gamma + 0.15
        # A star (every edge into the root) with L leaves counts N(N-1)...(N-L+1)
        # root embeddings, N ~ Poisson(lambda_up(u)) exactly when every
        # up-radius beta/u fits in n/2; its first moment is lambda_up(u)^L.
        star = spec.edges and all(j == spec.root for _, j in spec.edges)
        if star and cfg.params.beta / min(u_grid) <= 0.5 * cfg.n:
            law = [lambda_up(u, cfg.params) ** len(spec.edges) for u in u_grid]
            exact = dict(_exact_law_check(profile, law), law=f"lambda_up(u)^{len(spec.edges)}")
    rows = ["u,moment,std_error"]
    for u, m, s in zip(profile.u_grid, profile.moments, profile.std_errors):
        rows.append("%.17g,%.17g,%.17g" % (u, m, s))
    estimates = {"slope": profile.slope, "power": profile.power, "u_grid": list(profile.u_grid)}
    failure = None
    if exact is None:
        estimates["slope_bound"] = bound
        if profile.slope > bound:
            failure = f"slope {profile.slope:.4f} above bound {bound:.4f}"
    else:
        estimates["exact_law"] = exact
        if not exact["marks_ok"]:
            failure = f"moments off the exact law {exact['law']}: max |z| {exact['max_abs_z']:.2f} above 3"
        elif not exact["slope_ok"]:
            failure = (
                f"slope {profile.slope:.4f} differs from the exact law's grid slope "
                f"{exact['exact_slope']:.4f} by more than 3 x {exact['slope_se']:.4f}"
            )
    summary = _summary(cfg, estimates=estimates, files={"moments": "moments.csv"})
    return "moments", summary, {"moments.csv": "\n".join(rows) + "\n"}, failure


def _mode_blocks(cfg: RunConfig, threads: int) -> _ModeOutput:
    spec = _tree_spec(cfg)
    start = time.perf_counter()
    reps = run_block_replicates(cfg.params, spec, cfg.r, cfg.seed, threads=threads)
    counted = time.perf_counter()
    cutoffs = range(1, min(10, int(cfg.n) // 2) + 1)
    lags, covs, ses, u_values = lag_covariance_table(reps, cutoffs)
    timings = {"replicates": counted - start, "reductions": time.perf_counter() - counted}
    decay = [
        {"k": int(k), "covariance": float(c), "se": float(s)}
        for k, c, s in zip(lags, covs, ses)
    ]
    rows = ["k,covariance,se"] + [
        "%d,%.17g,%.17g" % (d["k"], d["covariance"], d["se"]) for d in decay
    ]
    summary = _summary(
        cfg,
        estimates={
            "lag_covariance": decay,
            "cox_grimmett": {str(k): {"value": v, "se": se} for k, (v, se) in u_values.items()},
        },
        files={"decay": "blocks_decay.csv"},
        timings=timings,
    )
    failure = None
    if any(c < -3.0 * s for c, s in zip(covs, ses)):
        failure = "a lag covariance is below -3 SE"
    return "blocks", summary, {"blocks_decay.csv": "\n".join(rows) + "\n"}, failure


_MODE_RUNNERS = {
    "sample": _mode_sample,
    "cliques": _mode_counts,
    "trees": _mode_counts,
    "clt": _mode_clt,
    "sigma": _mode_sigma,
    "moments": _mode_moments,
    "blocks": _mode_blocks,
}


def run(
    cfg: RunConfig,
    threads: int = 1,
    assert_mode: bool = False,
    gamma_diag_eta: float | None = None,
) -> int:
    """Execute the configured experiment; returns the process exit code.

    The summary's wall_time is the mode's computing time, before any output
    is written.
    """
    start = time.perf_counter()
    if cfg.mode == "moments":
        name, summary, csv_files, failure = _mode_moments(cfg, threads, gamma_diag_eta)
    else:
        name, summary, csv_files, failure = _MODE_RUNNERS[cfg.mode](cfg, threads)
    summary["wall_time"] = time.perf_counter() - start
    _emit(cfg, name, summary, csv_files)
    code = 0
    if assert_mode and failure is not None:
        print(f"assertion failed: {failure}")
        code = 1
    print(f"# time: {cfg.mode} {time.perf_counter() - start:.3f}s")
    return code


# -- plot-data export ---------------------------------------------------------


def export_plotdata(summary: dict, kind: str, results_dir: str, n: float | None = None) -> str:
    """Plot-ready CSV derived from a result summary.

    qq needs the replicate CSVs next to the summary; scaling and decay read
    the summary alone.  The summary's mode must match the requested kind.
    """
    mode = summary.get("plan", {}).get("mode")
    if kind == "qq":
        if mode != "clt":
            raise ParameterError(f"qq plot data needs a clt result, got mode {mode!r}")
        if n is None:
            # The largest torus by value; as strings, "1000" sorts before "250".
            key = max(summary["files"], key=lambda k: float(k.removeprefix("replicates_n")))
        else:
            key = f"replicates_n{'%g' % n}"
            if key not in summary["files"]:
                raise ParameterError(f"no replicates recorded for n={n}")
        fname = summary["files"][key]
        with open(os.path.join(results_dir, fname), encoding="utf-8") as handle:
            rows = [l.strip() for l in handle if l.strip() and not l.startswith("#")]
        col = len(rows[0].split(",")) - 1
        values = [float(line.split(",")[col]) for line in rows[1:]]
        std = np.sort(standardize(np.asarray(values)))
        m = std.size
        quantiles = special.ndtri((np.arange(1, m + 1) - 0.5) / m)
        rows = ["normal_quantile,sample_quantile"]
        rows += ["%.17g,%.17g" % (q, s) for q, s in zip(quantiles, std)]
        return "\n".join(rows) + "\n"
    if kind == "scaling":
        if mode != "clt":
            raise ParameterError(f"scaling plot data needs a clt result, got mode {mode!r}")
        table = summary["estimates"]["var_over_n"]
        ci_lo = summary["estimates"].get("ci_lo", {})
        ci_hi = summary["estimates"].get("ci_hi", {})
        rows = ["n,var_over_n,ci_lo,ci_hi"]
        for key in sorted(table, key=float):
            rows.append(
                "%.17g,%.17g,%s,%s"
                % (
                    float(key),
                    table[key],
                    "%.17g" % ci_lo[key] if key in ci_lo else "",
                    "%.17g" % ci_hi[key] if key in ci_hi else "",
                )
            )
        return "\n".join(rows) + "\n"
    if kind == "decay":
        if mode != "blocks":
            raise ParameterError(f"decay plot data needs a blocks result, got mode {mode!r}")
        rows = ["k,covariance,se"]
        for entry in sorted(summary["estimates"]["lag_covariance"], key=lambda d: d["k"]):
            rows.append("%d,%.17g,%.17g" % (entry["k"], entry["covariance"], entry["se"]))
        return "\n".join(rows) + "\n"
    raise ParameterError(f"unknown plot kind {kind!r}")


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adrcm",
        description=(
            "Sample age-dependent random connection graphs on the 1-D torus "
            "and verify their subgraph-count limit behavior."
        ),
        epilog=CONFIG_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the configuration document")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--threads", type=int, default=1, help="worker processes")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--assert", dest="assert_mode", action="store_true",
                        help="exit 1 when a statistical check fails")
    common.add_argument("--override-regime", action="store_true",
                        help="allow clt mode outside the proved gamma range")
    common.add_argument("--gamma", type=float, help="override model gamma")
    common.add_argument("--beta", type=float, help="override model beta")
    common.add_argument("--n", type=float, help="override the torus length")
    for mode in MODES:
        sub.add_parser(mode, parents=[common], help=f"run the {mode} experiment")
    sub.choices["moments"].add_argument(
        "--gamma-diag", type=float, default=None, metavar="ETA",
        help="estimate the difference-moment integrals at this eta",
    )
    plot = sub.add_parser("plotdata", help="emit plot-ready CSV from results")
    plot.add_argument("--kind", required=True, choices=("qq", "scaling", "decay"))
    plot.add_argument("--results", required=True, help="path to a *_summary.json")
    plot.add_argument("--n", type=float, help="torus length to select (qq)")
    plot.add_argument("--out", help="write here instead of stdout")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if not args.config:
        raise ConfigError(["--config is required for this command"])
    with open(args.config, encoding="utf-8") as handle:
        values, errors = _read_config(handle.read())
    # The subcommand and the flags replace the file's texts before the one
    # validation, so every rule sees the values the run uses.
    overrides = {
        "mode": args.command, "seed": args.seed, "directory": args.out,
        "gamma": args.gamma, "beta": args.beta, "n": args.n,
    }
    values.update((key, str(value)) for key, value in overrides.items() if value is not None)
    # config_hash and re-runs render the directory on a config line, which
    # must read it back unchanged.
    out = args.out
    if out is not None and _read_config(f"[output]\ndirectory = {out}") != ({"directory": out}, []):
        errors.append(f"directory {out!r} cannot be written on a config line")
    return _validate(values, errors, args.override_regime)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")
    try:
        if args.command == "plotdata":
            with open(args.results, encoding="utf-8") as handle:
                summary = json.load(handle)
            text = export_plotdata(
                summary, args.kind, os.path.dirname(args.results) or ".", n=args.n
            )
            if args.out:
                _write_atomic(args.out, text)
                print(f"wrote {args.out}")
            else:
                sys.stdout.write(text)
            return 0
        cfg = _load_config(args)
        return run(
            cfg,
            threads=args.threads,
            assert_mode=args.assert_mode,
            gamma_diag_eta=getattr(args, "gamma_diag", None),
        )
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ParameterError, TreeSpecError, RegimeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostics
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
