"""Replicate-level parallel map with scheduling-independent results."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ReplicateFailure", "parallel_map"]


class ReplicateFailure(RuntimeError):
    """A replicate computation failed; carries the failing seed."""

    def __init__(self, seed: int, message: str):
        super().__init__(seed, message)
        self.seed = seed
        self.message = message

    def __str__(self) -> str:
        return f"replicate with seed {self.seed} failed: {self.message}"


def _call(fn: Callable[[T], R], item: T) -> R:
    try:
        return fn(item)
    except Exception as exc:  # noqa: BLE001 - reported with the failing seed
        raise ReplicateFailure(item[-1], repr(exc)) from exc


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map fn over items, optionally across processes.

    Results come back indexed by input order, so any thread count yields the
    same list; each item is a tuple that carries its own seed last for that to
    hold.  A task that raises is reported as a ReplicateFailure naming the
    seed.
    """
    call = partial(_call, fn)
    if threads <= 1 or len(items) <= 1:
        return [call(item) for item in items]
    chunk = max(1, len(items) // (8 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(call, items, chunksize=chunk))
