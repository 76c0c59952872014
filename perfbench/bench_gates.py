"""Correctness gates: exact-output checksums, summary identity, exact targets."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence

# Summary fields that legitimately differ between runs of the same input.
TIMING_KEYS = ("wall_time", "timings")

# A Monte Carlo mean further than this many standard errors from its exact
# target fails the run; at 5 SE a correct sampler fails about once in 10^6.
Z_MAX = 5.0


def _digest(rows: Iterable[Sequence[int]]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(str(int(v)) for v in row) + "\n").encode("ascii"))
    return h.hexdigest()


def replicate_rows(csv_text: str, columns: Sequence[str]) -> list[list[int]]:
    """The named integer columns of a replicate CSV, comment lines skipped.

    Columns are picked by header name, so a timing column or a column added
    later does not enter the checksum.
    """
    lines = [l for l in csv_text.splitlines() if l.strip() and not l.startswith("#")]
    header = lines[0].split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"replicate CSV lacks columns {missing}")
    index = [header.index(c) for c in columns]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append([int(fields[i]) for i in index])
    return rows


def replicate_checksum(csv_texts: Sequence[str], columns: Sequence[str]) -> str:
    """Checksum of the named integer columns over several replicate CSVs."""
    rows: list[list[int]] = []
    for text in csv_texts:
        rows.append([-1])  # file separator
        rows.extend(replicate_rows(text, columns))
    return _digest(rows)


def block_sums_checksum(replicates: Sequence) -> str:
    """Checksum of every replicate's per-block embedding sums."""
    return _digest([int(v) for v in rep.values] for rep in replicates)


def canonical_summary(doc: dict) -> str:
    """A summary document as text, without its timing fields."""
    return json.dumps({k: v for k, v in doc.items() if k not in TIMING_KEYS}, sort_keys=True)


def target_problem(label: str, mean: float, se: float, target: float) -> str | None:
    """A message when mean lies more than Z_MAX standard errors from target."""
    if not (se > 0.0 and math.isfinite(mean)):
        return f"{label}: mean {mean!r} with standard error {se!r} cannot be checked"
    z = (mean - target) / se
    if abs(z) > Z_MAX:
        return f"{label}: mean {mean:.6g} vs exact {target:.6g} ({z:+.2f} SE, limit {Z_MAX})"
    return None
