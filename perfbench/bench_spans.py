"""Outside-in tracing of adrcm: spans around calls into its public functions.

The benchmark replaces each traced function in every adrcm module namespace
that binds it (``from .cliques import count_cliques_upto`` copies the binding
into ``adrcm.harness``, so that copy needs its own wrapper).  Nothing under
``src/`` changes.  Spans (name, start, end, parent) are kept in memory and
written out when the run ends; counts come from the wrapped calls' return
values.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# Stated accuracy for ``theory.sigma_palm.s_at_se``: the sigma_palm(3, 3)
# standard error a study would aim for (about 3% of sigma ~ 300).
TARGET_SIGMA_SE = 10.0

# Grid sizes of gamma_diagnostics that its summary does not report: the
# Gamma_3 mark grid has 12 marks.
GAMMA3_MARKS = 12


def gamma_diag_samples(details: dict) -> int:
    """Palm samples drawn by one gamma_diagnostics call, from its details."""
    nodes = len(details["u_grid"]) * len(details["y_grid"]) * len(details["v_grid"])
    per_node = int(details["samples_per_node"])
    return per_node * (nodes + len(details["v_grid"])) + int(details["samples_per_mark"]) * GAMMA3_MARKS


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        p = parent[child]
        covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
        np.subtract.at(out, p, np.maximum(covered, 0.0))
    return out


class Tracer:
    """Span recorder with per-name counters; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.sigma_s_at_se: list[float] = []
        self._failures_seen: set[int] = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one span per call of fn, then counting its result."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ReplicateFailure" and id(exc) not in self._failures_seen:
                    self._failures_seen.add(id(exc))
                    self.add("harness.replicate_failures", 1)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    count(self, fn, args, kwargs, out, self.end[idx] - self.start[idx])
                except Exception:  # noqa: BLE001 - a counter must not break the run
                    self.add("trace.count_errors", 1)
            return out

        return traced

    def durations_by_name(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count for every span name."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        own = self_times(
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
            np.asarray(self.parent, dtype=np.int64),
        )
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return (
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed archive."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int64),
        )


# -- counters over return values ---------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _points(t, fn, args, kwargs, out, dur):
    t.add("model.points_sampled", len(out))


def _adjacency(t, fn, args, kwargs, out, dur):
    degrees = [len(s) for s in out[0]]
    t.add("model.edges_built", sum(degrees))
    t.high("model.max_up_degree", max(degrees, default=0))


def _neighbors(t, fn, args, kwargs, out, dur):
    t.add("model.neighbors_returned", len(out))


def _cliques(t, fn, args, kwargs, out, dur):
    if isinstance(out, tuple):  # joint_clique_counts: (pairs, unions)
        t.add("cliques.cliques_counted", out[0])
    elif isinstance(out, list):  # every size from 1; size 1 is the point itself
        t.add("cliques.cliques_counted", sum(out[1:]))
    else:
        t.add("cliques.cliques_counted", out)


def _embeddings(t, fn, args, kwargs, out, dur):
    t.add("trees.embeddings_counted", int(getattr(out, "total", out)))


def _sigma(t, fn, args, kwargs, out, dur):
    t.add("theory.palm_samples", sum(out.details["samples"]))
    t.sigma_s_at_se.append(dur * (out.std_error / TARGET_SIGMA_SE) ** 2)


def _profile(t, fn, args, kwargs, out, dur):
    t.add("theory.palm_samples", len(out.u_grid) * int(_bound(fn, args, kwargs)["replicates"]))


def _neighborhoods(t, fn, args, kwargs, out, dur):
    t.add("theory.palm_samples", len(out[0]))


def _gamma_diag(t, fn, args, kwargs, out, dur):
    t.add("theory.palm_samples", gamma_diag_samples(out.details))


def _tasks(t, fn, args, kwargs, out, dur):
    t.add("parallel.tasks", len(_bound(fn, args, kwargs)["items"]))


# (module, function, span name, counter)
TARGETS = (
    ("adrcm.model", "sample_config", "model.sample_config", _points),
    ("adrcm.model", "neighborhood_adjacency", "model.neighborhood_adjacency", _adjacency),
    ("adrcm.model", "up_neighbors", "model.window_query", _neighbors),
    ("adrcm.model", "down_neighbors", "model.window_query", _neighbors),
    ("adrcm.model", "add_point", "model.add_point", None),
    ("adrcm.cliques", "count_cliques_upto", "cliques.count_cliques_upto", _cliques),
    ("adrcm.cliques", "count_cliques_centered", "cliques.centered", _cliques),
    ("adrcm.cliques", "joint_clique_counts", "cliques.joint", _cliques),
    ("adrcm.cliques", "diff1_clique", "cliques.diff", _cliques),
    ("adrcm.cliques", "diff2_clique", "cliques.diff", _cliques),
    ("adrcm.cliques", "diff1_clique_upto", "cliques.diff", _cliques),
    ("adrcm.cliques", "diff2_clique_upto", "cliques.diff", _cliques),
    ("adrcm.trees", "count_trees", "trees.count_trees", _embeddings),
    ("adrcm.trees", "block_sums", "trees.block_sums", _embeddings),
    ("adrcm.trees", "d_in", "trees.d_in", _embeddings),
    ("adrcm.trees", "lag_covariance_table", "trees.lag_covariance_table", None),
    ("adrcm.trees", "cox_grimmett", "trees.cox_grimmett", None),
    ("adrcm.theory", "sigma_palm", "theory.sigma_palm", _sigma),
    ("adrcm.theory", "clique_diff_moment_profile", "theory.profiles", _profile),
    ("adrcm.theory", "tree_root_moment_profile", "theory.profiles", _profile),
    ("adrcm.theory", "neighborhood_counts", "theory.neighborhood_counts", _neighborhoods),
    ("adrcm.theory", "gamma_diagnostics", "theory.gamma_diagnostics", _gamma_diag),
    ("adrcm.harness", "run_replicates", "harness.run_replicates", None),
    ("adrcm.harness", "run_block_replicates", "harness.run_block_replicates", None),
    ("adrcm.harness", "bootstrap_ci", "harness.bootstrap_ci", None),
    ("adrcm.harness", "standardize", "harness.normality", None),
    ("adrcm.harness", "ks_distance_normal", "harness.normality", None),
    ("adrcm.harness", "wasserstein1_distance_normal", "harness.normality", None),
    ("adrcm._parallel", "parallel_map", "parallel.map", _tasks),
    ("adrcm.cli", "main", "cli.main", None),
)


class Installation:
    """Wrappers for every target, switched into and out of adrcm's namespaces."""

    def __init__(self, tracer: Tracer, targets=TARGETS) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._wrapped: list[tuple[object, object]] = []  # (original, wrapper)
        for module_name, attr, span, count in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._wrapped.append((original, tracer.wrap(span, original, count)))
        self._patched: list[tuple[object, str, object]] = []
        self._pool_init = None

    def __enter__(self) -> "Installation":
        by_id = {id(orig): wrapper for orig, wrapper in self._wrapped}
        modules = [m for name, m in list(sys.modules.items()) if name == "adrcm" or name.startswith("adrcm.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, value))
        # Counting at the class catches a pool however its module names it.
        tracer = self.tracer
        original_init = self._pool_init = ProcessPoolExecutor.__init__

        def counting_init(pool, *args, **kwargs):
            tracer.add("parallel.pools_started", 1)
            return original_init(pool, *args, **kwargs)

        ProcessPoolExecutor.__init__ = counting_init
        return self

    def __exit__(self, *exc) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()
        ProcessPoolExecutor.__init__ = self._pool_init


# -- per-layer metrics ---------------------------------------------------------

PER_LAYER_UNITS = {
    "model.sample_config.calls": "count",
    "model.sample_config.self_s": "s",
    "model.points_sampled": "count",
    "model.neighborhood_adjacency.calls": "count",
    "model.neighborhood_adjacency.self_s": "s",
    "model.edges_built": "count",
    "model.max_up_degree": "count",
    "model.window_query.calls": "count",
    "model.window_query.self_s": "s",
    "model.add_point.calls": "count",
    "model.add_point.self_s": "s",
    "model.query_yield": "ratio",
    "cliques.count_cliques_upto.calls": "count",
    "cliques.count_cliques_upto.self_s": "s",
    "cliques.centered.calls": "count",
    "cliques.centered.self_s": "s",
    "cliques.joint.calls": "count",
    "cliques.joint.self_s": "s",
    "cliques.diff.calls": "count",
    "cliques.diff.self_s": "s",
    "cliques.cliques_counted": "count",
    "trees.count_trees.calls": "count",
    "trees.count_trees.self_s": "s",
    "trees.block_sums.calls": "count",
    "trees.block_sums.self_s": "s",
    "trees.d_in.calls": "count",
    "trees.d_in.self_s": "s",
    "trees.embeddings_counted": "count",
    "trees.lag_covariance_table.self_s": "s",
    "trees.cox_grimmett.calls": "count",
    "trees.cox_grimmett.self_s": "s",
    "theory.sigma_palm.self_s": "s",
    "theory.sigma_palm.s_at_se": "s",
    "theory.profiles.self_s": "s",
    "theory.neighborhood_counts.self_s": "s",
    "theory.gamma_diagnostics.self_s": "s",
    "theory.palm_samples": "count",
    "harness.run_replicates.self_s": "s",
    "harness.run_block_replicates.self_s": "s",
    "harness.bootstrap_ci.calls": "count",
    "harness.bootstrap_ci.self_s": "s",
    "harness.normality.self_s": "s",
    "harness.replicate_failures": "count",
    "parallel.map.calls": "count",
    "parallel.map.self_s": "s",
    "parallel.pools_started": "count",
    "parallel.tasks": "count",
    "parallel.tasks_per_pool": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_metrics(tracer: Tracer, iterations: int, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, averaged per traced workload execution.

    ``model.max_up_degree`` is the maximum over the run; ``query_yield`` and
    ``tasks_per_pool`` are ratios of run totals; ``extra`` supplies the
    metrics measured outside the spans (bytes written, tracing overhead).
    """
    per = 1.0 / max(iterations, 1)
    self_s, calls = tracer.durations_by_name()
    counts = tracer.counts
    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        if key.endswith(".self_s"):
            out[key] = self_s.get(key[: -len(".self_s")], 0.0) * per
        elif key.endswith(".calls"):
            out[key] = calls.get(key[: -len(".calls")], 0) * per
        else:
            out[key] = counts.get(key, 0.0) * per
    out["cli.self_s"] = self_s.get("cli.main", 0.0) * per
    out["model.max_up_degree"] = tracer.maxima.get("model.max_up_degree", 0.0)
    points = counts.get("model.points_sampled", 0.0)
    out["model.query_yield"] = counts.get("model.neighbors_returned", 0.0) / points if points else 0.0
    pools = counts.get("parallel.pools_started", 0.0)
    out["parallel.tasks_per_pool"] = counts.get("parallel.tasks", 0.0) / pools if pools else 0.0
    out["theory.sigma_palm.s_at_se"] = (
        float(np.median(tracer.sigma_s_at_se)) if tracer.sigma_s_at_se else 0.0
    )
    out["trace.spans"] = len(tracer.start) * per
    out.update(extra)
    return out
