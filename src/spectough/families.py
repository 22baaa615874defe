"""Textual family specs shared by the CLI subcommands.

Grammar (params after a colon):

    petersen
    complete:N        cycle:N        path:N          (N may be a range A..B)
    complete_multipartite:N1,N2,...
    gnp:N,P           (seed supplied separately; count gives a batch)
    kss1:S            (complete bipartite with parts S and S+1; S may be A..B)
"""

from __future__ import annotations

from typing import Iterator

from .graphs import (Graph, SplitMix64, complete, complete_multipartite,
                     cycle, gnp, path, petersen)


def _int_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    n = int(text)
    return range(n, n + 1)


def generate_family(spec: str, seed: int = 0, count: int = 1) -> Iterator[Graph]:
    """The graphs of one family spec, drawn lazily; a bad spec raises here."""
    name, colon, params = spec.partition(":")
    name = name.strip().lower()
    if name == "petersen":
        if colon:
            raise ValueError(f"petersen takes no parameters: {spec!r}")
        return (petersen() for _ in range(1))
    if name in ("complete", "cycle", "path"):
        maker = {"complete": complete, "cycle": cycle, "path": path}[name]
        return map(maker, _int_range(params))
    if name == "complete_multipartite":
        return map(complete_multipartite,
                   [[int(x) for x in params.split(",")]])
    if name == "kss1":
        return (complete_multipartite([s, s + 1]) for s in _int_range(params))
    if name == "gnp":
        parts = params.split(",")
        if len(parts) != 2:
            raise ValueError("gnp spec needs gnp:N,P")
        n, p = int(parts[0]), float(parts[1])
        seeder = SplitMix64(seed)
        return (gnp(n, p, seeder.next_u64()) for _ in range(count))
    raise ValueError(f"unknown family {name!r}")
