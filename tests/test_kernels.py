"""Backend agreement: the compiled kernels must match the pure reference.

The compiled side is the library built in place by setup.py or, when
there is none, one that setup.py builds here into a temporary directory,
with the flags users get; both are bound by the loader the package uses.
"""

import math
import os
import subprocess
import sys
import sysconfig

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectough import _kernels
from spectough._kernels import _ref
from spectough.graphs import complete_multipartite, gnp
from tests.conftest import SRC


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    path = _kernels.library_path()
    if path is None:
        out = str(tmp_path_factory.mktemp("kernels"))
        subprocess.run([sys.executable, "setup.py", "-q", "build_ext",
                        "--build-lib", out, "--build-temp", out],
                       cwd=os.path.dirname(SRC), check=True,
                       capture_output=True)
        path = os.path.join(out, "spectough", "_kernels",
                            "_bitset" + sysconfig.get_config_var("EXT_SUFFIX"))
        if not os.path.isfile(path):  # OptionalBuildExt fell back to pure
            pytest.skip("no built kernel library and none could be built")
    return _kernels.load(path)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 11), seed=st.integers(0, 2**32),
       p=st.sampled_from([0.2, 0.4, 0.6, 0.8]))
def test_toughness_search_agreement(compiled, n, seed, p):
    g = gnp(n, p, seed)
    if g.is_complete() or not g.is_connected():
        return
    assert compiled.toughness_search(n, g.adj) == _ref.toughness_search(n, g.adj)


@pytest.mark.parametrize("n,p,seed", [(13, 0.3, 2), (13, 0.5, 1),
                                      (14, 0.5, 2), (14, 0.7, 1)])
def test_toughness_search_agreement_large(compiled, n, p, seed):
    g = gnp(n, p, seed)
    assert g.is_connected() and not g.is_complete()
    assert compiled.toughness_search(n, g.adj) == _ref.toughness_search(n, g.adj)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 11), seed=st.integers(0, 2**32),
       p=st.sampled_from([0.3, 0.5, 0.7]))
def test_hamilton_agreement(compiled, n, seed, p):
    g = gnp(n, p, seed)
    assert compiled.hamilton_cycle(n, g.adj) == _ref.hamilton_cycle(n, g.adj)


@pytest.mark.parametrize("sizes", [[6, 7], [7, 3, 3]])
def test_hamilton_hard_negatives(compiled, sizes):
    # a part larger than n/2 rules out a Hamilton cycle, but the
    # backtracker must exhaust a large search tree to find that out
    g = complete_multipartite(sizes)
    assert compiled.hamilton_cycle(g.n, g.adj) is False
    assert _ref.hamilton_cycle(g.n, g.adj) is False


def test_compiled_rejects_bad_sizes(compiled):
    with pytest.raises(ValueError):
        compiled.toughness_search(63, (0,) * 63)
    with pytest.raises(ValueError):
        compiled.hamilton_cycle(4, (3, 3, 3))
    for n, p in ((63, 0.5), (8, 1.5), (8, -0.5)):
        with pytest.raises(ValueError):
            compiled.gnp_rows(n, p, 1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 62),
       p=st.floats(0.0, 1.0) | st.sampled_from(
           [0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0]),
       seed=st.integers(0, 2**64 - 1) | st.integers(-2**70, 2**70))
def test_gnp_rows_agreement(compiled, n, p, seed):
    assert compiled.gnp_rows(n, p, seed) == _ref.gnp_rows(n, p, seed)
