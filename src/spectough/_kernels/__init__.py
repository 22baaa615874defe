"""Hot kernels (the cut and Hamilton searches and the G(n, p) draw): the
C library in bitset.c, or the pure-Python _ref.

``python setup.py build_ext --inplace`` compiles bitset.c into a shared
library next to this file (``_bitset`` plus the interpreter's extension
suffix).  It is not a Python module: it is loaded by path with ctypes.
When no built library exists, the reference implementation in _ref.py
runs instead.  Both return identical results; BACKEND names the one in
use ("compiled" or "pure").
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import os
from types import SimpleNamespace

from . import _ref

# Largest order the kernels take: a vertex set is one uint64_t, and
# (1 << n) - 1 must fit it.  graphs.GRAPH6_MAX_N is this limit too.
MAX_N = 62

_LIBRARY_NAME = "_bitset"  # the Extension name in setup.py

_U64 = ctypes.c_uint64
_U64_P = ctypes.POINTER(_U64)
_U64_MASK = (1 << 64) - 1


def library_path() -> str | None:
    """Path of the library built in place by setup.py, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(here, _LIBRARY_NAME + suffix)
        if os.path.isfile(path):
            return path
    return None


def load(path: str) -> SimpleNamespace:
    """Bind the kernels of the shared library at ``path``.

    The result has the BACKEND_NAME, toughness_search, hamilton_cycle and
    gnp_rows of _ref, with the same signatures and results.
    """
    lib = ctypes.CDLL(path)
    lib.st_toughness_search.argtypes = (ctypes.c_int, _U64_P, _U64_P)
    lib.st_toughness_search.restype = None
    lib.st_hamilton_cycle.argtypes = (ctypes.c_int, _U64_P)
    lib.st_hamilton_cycle.restype = ctypes.c_int
    lib.st_gnp.argtypes = (ctypes.c_int, _U64, _U64, ctypes.c_int, _U64_P)
    lib.st_gnp.restype = None

    def toughness_search(n: int, adj: tuple[int, ...]) -> tuple[int, int, int]:
        """Compiled _ref.toughness_search."""
        out = (_U64 * 3)()
        lib.st_toughness_search(n, _rows(n, adj), out)
        return out[0], out[1], out[2]

    def hamilton_cycle(n: int, adj: tuple[int, ...]) -> bool:
        """Compiled _ref.hamilton_cycle."""
        return bool(lib.st_hamilton_cycle(n, _rows(n, adj)))

    def gnp_rows(n: int, p: float, seed: int) -> list[int]:
        """Compiled _ref.gnp_rows."""
        if not (0 <= n <= MAX_N and 0.0 <= p <= 1.0):
            raise ValueError(f"compiled kernels need n <= {MAX_N} and p in "
                             f"[0, 1], got n={n} and p={p}")
        threshold = int(p * (1 << 64))  # 2^64 at p = 1
        rows = (_U64 * n)()
        lib.st_gnp(n, seed & _U64_MASK, threshold & _U64_MASK,
                   threshold >> 64, rows)
        return rows[:]

    return SimpleNamespace(BACKEND_NAME="compiled",
                           toughness_search=toughness_search,
                           hamilton_cycle=hamilton_cycle,
                           gnp_rows=gnp_rows)


def _rows(n: int, adj: tuple[int, ...]):
    if not 0 <= n <= MAX_N or len(adj) != n:
        raise ValueError(f"compiled kernels need n <= {MAX_N} and n "
                         f"adjacency rows, got n={n} and {len(adj)} rows")
    return (_U64 * n)(*adj)


_path = library_path()
_impl = _ref if _path is None else load(_path)

BACKEND = _impl.BACKEND_NAME
toughness_search = _impl.toughness_search
hamilton_cycle = _impl.hamilton_cycle
gnp_rows = _impl.gnp_rows
