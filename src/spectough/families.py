"""Textual family specs shared by the CLI subcommands.

Grammar (params after a colon):

    petersen
    complete:N        cycle:N        path:N          (N may be a range A..B)
    complete_multipartite:N1,N2,...
    gnp:N,P           (seed supplied separately; count gives a batch)
    kss1:S            (complete bipartite with parts S and S+1; S may be A..B)

Every family is limited to order 62, and a range must not be empty.  A
spec is checked whole before a caller opens an output or draws a graph;
its errors name it.  ``analyze --family`` takes a spec of one graph.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import (Graph, SplitMix64, check_gnp, complete,
                     complete_multipartite, cycle, gnp, path, petersen)


_RANGED = {"complete": complete, "cycle": cycle, "path": path,
           "kss1": lambda s: complete_multipartite([s, s + 1])}


def _int_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    numbers = range(int(lo), int(hi if dots else lo) + 1)
    if not numbers:
        raise ValueError(f"empty range {text}")
    return numbers


def generate_family(spec: str, seed: int = 0, count: int = 1) -> Iterator[Graph]:
    """The graphs of one spec, checked whole here; only gnp's draw lazily."""
    name, colon, params = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "petersen":
            if colon:
                raise ValueError("petersen takes no parameters")
            return iter([petersen()])
        if name in _RANGED:
            return iter([_RANGED[name](k) for k in _int_range(params)])
        if name == "complete_multipartite":
            return iter([complete_multipartite(
                [int(x) for x in params.split(",")])])
        if name == "gnp":
            parts = params.split(",")
            if len(parts) != 2:
                raise ValueError("gnp spec needs gnp:N,P")
            n, p = int(parts[0]), float(parts[1])
            check_gnp(n, p)
            seeder = SplitMix64(seed)
            return (gnp(n, p, seeder.next_u64()) for _ in range(count))
        raise ValueError(f"unknown family {name!r}")
    except ValueError as exc:
        raise ValueError(f"family spec {spec!r}: {exc}") from None
