"""Benchmark of adrcm's replication, reduction, Palm and pool paths.

Run from the root of a source tree:

    python3 perfbench/run.py --workload clique_ladder --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of that tree.  The run sets the
workload up, executes it repeatedly for ``--seconds`` seconds, checks the
outputs, writes a result file under ``perfbench/out/`` and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Relative to ROOT, the working directory of a run: configuration files name
# paths under it, and the config grammar cuts a line at '#' or ';'.
OUT = Path("perfbench") / "out"

# Every run executes a workload at least this often, even past --seconds.
MIN_EXECUTIONS = 4
# No execution starts after this many seconds, which keeps a run under 180 s.
HARD_LIMIT_S = 100.0
# Set-up is measured in this many fresh processes; setup_s is their median.
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up in a fresh process and print the seconds since T0.
    parser.add_argument("--probe-setup", type=float, metavar="T0", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import adrcm from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "adrcm" / "__init__.py").is_file():
        raise SystemExit(f"error: no adrcm sources under {src}")
    sys.path.insert(0, str(src))
    import adrcm

    if Path(adrcm.__file__).resolve().parent != src / "adrcm":
        raise SystemExit(f"error: imported adrcm from {adrcm.__file__}, not {src}")


def setup_seconds(args) -> list[float]:
    """Process start to the end of set-up, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--probe-setup", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def machine(workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workers": workload.threads,
    }


def git_commit() -> str | None:
    """HEAD of the tree's git repository, or None outside a git checkout."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def measure(workload, seconds: float, installation=None) -> dict:
    """Execute until the time is up; with an installation, trace every other one."""
    walls, traced_walls, rates = [], [], []
    failed = i = 0
    start = time.perf_counter()
    while i < MIN_EXECUTIONS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        traced = installation is not None and i % 2 == 1
        try:
            with installation if traced else contextlib.nullcontext():
                t = time.perf_counter()
                workload.execute(i)
                wall = time.perf_counter() - t
            work = workload.check(i)
            (traced_walls if traced else walls).append(wall)
            if not traced:
                rates.append(work / wall)
        except Exception:  # noqa: BLE001 - a failed execution is counted, the run goes on
            traceback.print_exc()
            failed += 1
        i += 1
    return {"executions": i, "failed": failed, "walls": walls, "traced_walls": traced_walls,
            "rates": rates}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_program()
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    kind = WORKLOADS[args.workload]
    if args.probe_setup is not None:
        kind(args.seed, OUT / "work" / f"{args.workload}-probe").setup()
        print(repr(time.monotonic() - args.probe_setup))
        return 0

    workload = kind(args.seed, OUT / "work" / args.workload)
    workload.setup()
    # Probing set-up first also brings the machine to its sustained speed,
    # which the first seconds of a run otherwise exceed.
    setup = None if args.trace else setup_seconds(args)
    notes = []
    if args.trace:
        from bench_spans import PER_LAYER_UNITS, Installation, Tracer, per_layer_metrics

        tracer = Tracer()
        installation = Installation(tracer)
        if installation.missing:
            notes.append("not traced, absent: " + ", ".join(installation.missing))
        run = measure(workload, args.seconds, installation)
        if workload.threads > 1:
            notes.append("worker processes are not traced: spans and counts are the parent's only")
        if tracer.counts.get("trace.count_errors"):
            notes.append("some counters could not read their call's result; their counts are short")
    else:
        run = measure(workload, args.seconds)
    try:
        workload.finish()
    except Exception as exc:  # noqa: BLE001 - a gate that cannot run fails the run
        traceback.print_exc()
        workload.problems.append(f"final checks raised {exc!r}")

    walls = run["walls"]
    checked = len(walls) + len(run["traced_walls"])
    if args.trace:
        tracer.save(OUT / f"spans-{args.workload}.npz")
        overhead = (statistics.median(run["traced_walls"]) - statistics.median(walls)
                    if walls and run["traced_walls"] else 0.0)
        metrics = per_layer_metrics(tracer, len(run["traced_walls"]), {
            "cli.bytes_written": workload.bytes_written / max(checked, 1),
            "trace.overhead_s": overhead,
        })
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "work_per_s": statistics.median(run["rates"]) if walls else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

    correct = not workload.problems and run["failed"] == 0
    attempted = run["executions"]
    failed = run["failed"] if not workload.problems else attempted
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(workload), "walls": walls,
        "traced_walls": run["traced_walls"], "problems": workload.problems, "notes": notes,
        **workload.record, "setup_probes": setup,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in workload.problems + notes:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
