"""The benchmark's four workloads: inputs from a seed, one execution, gates.

Each workload puts most of its time in a different adrcm layer, so that a
change to one layer shows on one workload and is predicted to change nothing
on the others (see NOTES.md).  One execution is timed from the call into
adrcm to its return; reading and checking the outputs is not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

import adrcm.cli as cli
import adrcm.harness as harness
import adrcm.theory as theory
import adrcm.trees as trees
from adrcm.model import ModelParams

from bench_gates import (
    block_sums_checksum,
    canonical_summary,
    replicate_checksum,
    replicate_rows,
    target_problem,
)
from bench_spans import gamma_diag_samples

WEDGE_TREE = "m=3\nroot=1\nedge=2->1\nedge=3->1\n"
# Mark grid of the moment-profile acceptance criteria.
U_GRID = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01)
# Fixed input of the exact-output gates; its checksums live in expected.json.
GOLDEN_SEED = 20260810
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def input_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for one input, derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(1))


def write_config(path: Path, model: dict, experiment: dict, out_dir: Path) -> Path:
    lines = ["[model]"] + [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[experiment]"] + [f"{k} = {v}" for k, v in experiment.items()]
    lines += ["", "[output]", f"directory = {out_dir}", "formats = csv,json", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def run_cli(argv: list[str]) -> None:
    """Run the adrcm command line in this process; a nonzero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"adrcm {' '.join(argv)} exited with {code}")


def dir_bytes(path: Path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Workload:
    """One workload instance: set up once, then executed repeatedly."""

    name = ""
    threads = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []
        self.bytes_written = 0
        self.record: dict = {}

    def setup(self) -> None:
        """Input files, warm-up and references; timed as set-up."""

    def execute(self, i: int) -> None:
        """The timed call into adrcm for execution i."""
        raise NotImplementedError

    def check(self, i: int) -> int:
        """Check execution i's outputs; returns the work it completed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after the timed executions."""


class CliqueLadder(Workload):
    """``adrcm clt`` over whole tori: the replication path and clique counter."""

    name = "clique_ladder"
    R = 250
    N_LIST = (250, 500, 1000)
    COLUMNS = ("seed", "point_count", "cliques_k1", "cliques_k2", "cliques_k3")

    def _config(self, name: str, r: int, n_list, seed: int) -> Path:
        return write_config(
            self.dir / f"{name}.cfg",
            {"gamma": 0.3, "beta": 1.0, "n": max(n_list)},
            {"mode": "clt", "k_list": "1,2,3", "r": r,
             "n_list": ",".join(str(n) for n in n_list), "seed": seed},
            self.dir / name,
        )

    def setup(self) -> None:
        self.cfg = self._config("ladder", self.R, self.N_LIST, input_seed(self.seed, 1))
        run_cli(["clt", "--config", str(self._config("warm", 30, (16, 32), 1))])
        self.checksums: set[str] = set()

    def execute(self, i: int) -> None:
        run_cli(["clt", "--config", str(self.cfg)])

    def _texts(self, name: str) -> list[str]:
        out = self.dir / name
        return [(out / f"clt_replicates_n{n}.csv").read_text() for n in self.N_LIST]

    def check(self, i: int) -> int:
        self.bytes_written += dir_bytes(self.dir / "ladder")
        texts = self._texts("ladder")
        for n, text in zip(self.N_LIST, texts):
            rows = replicate_rows(text, self.COLUMNS)
            if len(rows) != self.R or any(row[1] != row[2] for row in rows):
                self.problems.append(f"n={n}: expected {self.R} rows with cliques_k1 == point_count")
        self.checksums.add(replicate_checksum(texts, self.COLUMNS))
        return self.R * len(self.N_LIST)

    def finish(self) -> None:
        if len(self.checksums) > 1:
            self.problems.append("replicate counts differ between executions of one input")
        run_cli(["clt", "--config", str(self._config("golden", 40, self.N_LIST, GOLDEN_SEED))])
        got = replicate_checksum(self._texts("golden"), self.COLUMNS)
        self.record["golden_checksum"] = got
        if got != EXPECTED[self.name]:
            self.problems.append(f"golden replicate counts changed: checksum {got}")


class WedgeBlocks(Workload):
    """``adrcm blocks`` for the wedge: tree counter and jackknife reductions."""

    name = "wedge_blocks"
    R = 1000
    N = 64

    def setup(self) -> None:
        tree = self.dir / "wedge.tree"
        tree.write_text(WEDGE_TREE, encoding="utf-8")
        model = {"gamma": 0.1, "beta": 1.0, "n": self.N}
        experiment = {"mode": "blocks", "tree_file": tree, "r": self.R,
                      "seed": input_seed(self.seed, 2)}
        self.cfg = write_config(self.dir / "blocks.cfg", model, experiment, self.dir / "out")
        warm = write_config(self.dir / "warm.cfg", model, dict(experiment, r=20, seed=1),
                            self.dir / "warm")
        run_cli(["blocks", "--config", str(warm)])
        self.summaries: set[str] = set()

    def execute(self, i: int) -> None:
        run_cli(["blocks", "--config", str(self.cfg)])

    def check(self, i: int) -> int:
        out = self.dir / "out"
        self.bytes_written += dir_bytes(out)
        doc = json.loads((out / "blocks_summary.json").read_text())
        decay = doc["estimates"]["lag_covariance"]
        if len(decay) != self.N // 2 or not all(np.isfinite(d["covariance"]) for d in decay):
            self.problems.append(f"expected {self.N // 2} finite lag covariances")
        self.summaries.add(canonical_summary(doc))
        return self.R

    def finish(self) -> None:
        if len(self.summaries) > 1:
            self.problems.append("block summaries differ between executions of one input")
        reps = harness.run_block_replicates(
            ModelParams(0.1, 1.0, float(self.N)), trees.parse_tree_spec(WEDGE_TREE), 200, GOLDEN_SEED
        )
        got = block_sums_checksum(reps)
        self.record["golden_checksum"] = got
        if got != EXPECTED[self.name]:
            self.problems.append(f"golden block sums changed: checksum {got}")


class PalmMix(Workload):
    """Palm estimators by library call; every sample draws a whole torus.

    The Palm streams come from the benchmark seed but are not pinned: the
    gates check means against exact finite-size targets, E[up-degree] =
    lambda_up(u), E[down-degree] = lambda_down and E[wedge roots at (0, u)] =
    lambda_up(u)^2, which is exact at n = 256 because the largest kernel
    radius beta/u = 100 fits in the torus.  Every execution repeats the same
    input; fresh streams per execution would make the run's largest torus,
    and so its peak memory, differ from run to run.
    """

    name = "palm_mix"
    SIGMA_BUDGET = 3000
    PROFILE_R = 400
    NEIGHBOR_R = 2000
    NEIGHBOR_U = 0.1

    sigma_params = ModelParams(0.3, 1.0, 1000.0)
    clique_params = ModelParams(0.3, 1.0, 256.0)
    wedge_params = ModelParams(0.1, 1.0, 256.0)
    neighbor_params = ModelParams(0.3, 0.5, 1000.0)

    def setup(self) -> None:
        self.wedge = trees.parse_tree_spec(WEDGE_TREE)
        self.seeds = [input_seed(self.seed, 3, j) for j in range(4)]
        theory.sigma_palm(self.sigma_params, 3, 3, 8, seed=1)
        theory.neighborhood_counts(self.neighbor_params, self.NEIGHBOR_U, 4, seed=1)
        theory.tree_root_moment_profile(self.wedge_params, self.wedge, U_GRID[:1], 2, seed=1)
        theory.clique_diff_moment_profile(self.clique_params, 3, U_GRID[:1], 2, seed=1)
        self.sigma_checksums: set[str] = set()

    def execute(self, i: int) -> None:
        s = self.seeds
        self.sigma = theory.sigma_palm(self.sigma_params, 3, 3, self.SIGMA_BUDGET, seed=s[0])
        self.clique = theory.clique_diff_moment_profile(
            self.clique_params, 3, U_GRID, self.PROFILE_R, power=2.0, seed=s[1])
        self.tree = theory.tree_root_moment_profile(
            self.wedge_params, self.wedge, U_GRID, self.PROFILE_R, power=1.0, seed=s[2])
        self.up, self.down = theory.neighborhood_counts(
            self.neighbor_params, self.NEIGHBOR_U, self.NEIGHBOR_R, seed=s[3])

    def check(self, i: int) -> int:
        text = repr((self.sigma.value, self.sigma.std_error, self.sigma.components))
        self.sigma_checksums.add(hashlib.sha256(text.encode()).hexdigest()[:16])
        if i == 0:
            self.problems.extend(self.target_problems(self.up, self.down, self.tree))
        return (sum(self.sigma.details["samples"]) + len(self.clique.u_grid) * self.PROFILE_R
                + len(self.tree.u_grid) * self.PROFILE_R + len(self.up))

    def target_problems(self, up, down, wedge_profile) -> list[str]:
        """Means that miss their exact finite-size targets."""
        p = self.neighbor_params
        found = []
        for label, values, target in (
            ("up-degree", up, theory.lambda_up(self.NEIGHBOR_U, p)),
            ("down-degree", down, theory.lambda_down(p)),
        ):
            # Poisson law: the variance equals the exact mean.
            found.append(target_problem(label, float(np.mean(values)),
                                        float(np.sqrt(target / len(values))), target))
        for u, mean, se in zip(U_GRID, wedge_profile.moments, wedge_profile.std_errors):
            target = theory.lambda_up(u, self.wedge_params) ** 2
            found.append(target_problem(f"wedge roots at u={u}", float(mean), float(se), target))
        return [f for f in found if f]

    def finish(self) -> None:
        self.record["sigma_checksums"] = sorted(self.sigma_checksums)


class GammaPool(Workload):
    """``adrcm moments --gamma-diag`` on two workers: one pool per parallel_map."""

    name = "gamma_pool"
    threads = 2

    def _argv(self, threads: int) -> list[str]:
        return ["moments", "--config", str(self.cfg), "--gamma-diag", "1.2",
                "--threads", str(threads)]

    def _summary(self) -> dict:
        path = self.dir / "out" / "gamma_diagnostics_summary.json"
        self.bytes_written += path.stat().st_size
        return json.loads(path.read_text())

    def setup(self) -> None:
        self.cfg = write_config(
            self.dir / "gamma.cfg",
            {"gamma": 0.3, "beta": 1.0, "n": 16},
            {"mode": "moments", "k_list": 3, "r": 1000, "seed": input_seed(self.seed, 4)},
            self.dir / "out",
        )
        # The one-worker reference: the pooled runs must reproduce it bit for bit.
        run_cli(self._argv(1))
        self.reference = canonical_summary(self._summary())
        self.bytes_written = 0

    def execute(self, i: int) -> None:
        run_cli(self._argv(self.threads))

    def check(self, i: int) -> int:
        doc = self._summary()
        if canonical_summary(doc) != self.reference:
            self.problems.append(f"execution {i}: 2-worker summary differs from the 1-worker reference")
        return gamma_diag_samples(doc["estimates"]["details"])


WORKLOADS = {w.name: w for w in (CliqueLadder, WedgeBlocks, PalmMix, GammaPool)}
