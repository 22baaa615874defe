"""Hot search kernels: the C library in bitset.c, or the pure-Python _ref.

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

from ..graphs import GRAPH6_MAX_N
from . import _ref

_LIBRARY_NAME = "_bitset"  # the Extension name in setup.py

_U64 = ctypes.c_uint64
_U64_P = ctypes.POINTER(_U64)


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

    The result has the BACKEND_NAME, toughness_search and hamilton_cycle
    of _ref, with the same signatures and results.
    """
    lib = ctypes.CDLL(path)
    lib.st_toughness_search.argtypes = (ctypes.c_int, _U64_P, _U64_P)
    lib.st_toughness_search.restype = None
    lib.st_hamilton_cycle.argtypes = (ctypes.c_int, _U64_P)
    lib.st_hamilton_cycle.restype = ctypes.c_int

    def toughness_search(n: int, adj: tuple[int, ...]) -> tuple[int, int, int]:
        """Compiled _ref.toughness_search."""
        out = (_U64 * 3)()
        lib.st_toughness_search(n, _rows(n, adj), out)
        return out[0], out[1], out[2]

    def hamilton_cycle(n: int, adj: tuple[int, ...]) -> bool:
        """Compiled _ref.hamilton_cycle."""
        return bool(lib.st_hamilton_cycle(n, _rows(n, adj)))

    return SimpleNamespace(BACKEND_NAME="compiled",
                           toughness_search=toughness_search,
                           hamilton_cycle=hamilton_cycle)


def _rows(n: int, adj: tuple[int, ...]):
    if not 0 <= n <= GRAPH6_MAX_N or len(adj) != n:
        raise ValueError(f"compiled kernels need n <= {GRAPH6_MAX_N} and n "
                         f"adjacency rows, got n={n} and {len(adj)} rows")
    return (_U64 * n)(*adj)


_path = library_path()
_impl = _ref if _path is None else load(_path)

BACKEND = _impl.BACKEND_NAME
toughness_search = _impl.toughness_search
hamilton_cycle = _impl.hamilton_cycle
