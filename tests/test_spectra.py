import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectough import spectra
from spectough.errors import EigenConvergenceError
from spectough.graphs import (complete, complete_multipartite, cycle, gnp,
                              path, petersen, write_graph6)
from spectough.scan import ScanConfig, scan_line
from spectough.spectra import jacobi_eigenvalues, laplacian_matrix, spectrum
from tests import _oracles


def test_laplacian_k2():
    assert np.array_equal(laplacian_matrix(complete(2)), [[1, -1], [-1, 1]])


def test_laplacian_p3():
    expect = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.array_equal(laplacian_matrix(path(3)), expect)


def test_laplacian_rows_sum_zero():
    m = laplacian_matrix(petersen())
    assert [sum(row) for row in m] == [0.0] * 10


def test_spectrum_star():
    s = spectrum(complete_multipartite([3, 1]))
    assert s.values == pytest.approx((0, 1, 1, 4), abs=1e-9)


def test_spectrum_c4():
    s = spectrum(cycle(4))
    assert s.values == pytest.approx((0, 2, 2, 4), abs=1e-9)


def test_spectrum_petersen():
    s = spectrum(petersen())
    assert s.mu2 == pytest.approx(2, abs=1e-9)
    assert s.mun == pytest.approx(5, abs=1e-9)


def test_cycle_circulant_closed_form():
    for n in range(3, 13):
        s = spectrum(cycle(n))
        expect = sorted(2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n))
        assert s.values == pytest.approx(expect, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 2**32))
def test_jacobi_matches_lapack(n, seed):
    g = gnp(n, 0.5, seed)
    ours = jacobi_eigenvalues(laplacian_matrix(g))
    ref = np.linalg.eigvalsh(laplacian_matrix(g))
    assert ours == pytest.approx(list(ref), abs=1e-9)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_non_convergence(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_SWEEPS", 1)
    with pytest.raises(EigenConvergenceError) as info:
        jacobi_eigenvalues(laplacian_matrix(petersen()))
    # the scan keeps going: the graph becomes an ERROR record
    rec = scan_line(write_graph6(petersen()), ScanConfig())
    assert rec["status"] == "ERROR(EigenConvergenceError)"
    assert rec["error"] == str(info.value)


def _outcome(solver, matrix):
    """The spectrum as exact bit patterns, or the error raised instead."""
    try:
        return [x.hex() for x in solver(matrix)]
    except (ValueError, EigenConvergenceError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("matrix", [
    [], [1.0, 2.0], [[1.0, 2.0], [3.0]], [[math.nan]], [[math.inf]],
    [[1.0, math.inf], [math.inf, 1.0]], [[1.0, 0.0], [0.0, math.inf]],
    [[1e200, 1e200], [1e200, 1e200]],  # finite, but the norm overflows
    [[1.0, math.inf], [-math.inf, 1.0]], [[1.0, 1.0 + 1e-4], [1.0, 1.0]],
    # math.nan is one object, equal to itself by identity in list ``==``,
    # so an exact-transpose test alone would accept these two
    [[1.0, math.nan], [math.nan, 1.0]], [[math.nan, 0.0], [0.0, 1.0]],
])
def test_jacobi_rejects_malformed(matrix):
    ours = _outcome(jacobi_eigenvalues, matrix)
    assert ours[0] == "ValueError"
    assert ours == _outcome(_oracles.jacobi_eigenvalues, matrix)


def test_jacobi_bit_identical_on_corpus(corpus):
    for g6, g in corpus:
        m = laplacian_matrix(g)
        assert _outcome(jacobi_eigenvalues, m) == _outcome(
            _oracles.jacobi_eigenvalues, m), g6


def _signed(lo, hi):
    return st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                     st.floats(lo, hi))


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0),
                    _signed(1e-301, 1e-299), _signed(1e149, 1e150))


@st.composite
def near_symmetric_matrices(draw):
    """n x n rows, n <= 20: symmetric, or with each entry below the
    diagonal its mirror times (1 + e), |e| <= 9e-6, which _symmetric's
    tolerance accepts."""
    n = draw(st.integers(1, 20))
    rtol = draw(st.sampled_from([0.0, 9e-6]))
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(ENTRIES)
            if j > i and rtol:
                a[j][i] *= 1.0 + draw(st.floats(-rtol, rtol))
    return a


@settings(max_examples=200, deadline=None)
@given(near_symmetric_matrices())
def test_jacobi_bit_identical_near_symmetric(matrix):
    before = [row[:] for row in matrix]
    ours = _outcome(jacobi_eigenvalues, matrix)
    assert matrix == before  # rows are rotated in a private copy
    assert ours[0] != "ValueError"
    assert ours == _outcome(_oracles.jacobi_eigenvalues, matrix)


def test_norms_are_plain_sums():
    # 1 + 10 * 1e-16: each 1e-16 rounds away in a left-to-right sum, while
    # a compensated sum (math.fsum, or sum() on Python 3.12+) keeps them
    rows = [[1.0] + [1e-8] * 5, [1e-8] * 5]
    loop = 0.0
    for row in rows:
        for x in row:
            loop += x * x
    assert spectra._sum_squares(rows) == loop == 1.0
    assert math.fsum(x * x for row in rows for x in row) != loop


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32))
def test_spectrum_invariants(n, seed):
    g = gnp(n, 0.5, seed)
    s = spectrum(g)
    assert abs(s.values[0]) <= s.tol
    assert sum(s.values) == pytest.approx(2 * g.edge_count, abs=n * s.tol)
    assert all(-s.tol <= v <= n + s.tol for v in s.values)
    # complement relation mu_i(comp) = n - mu_{n+2-i}(g)
    comp = _oracles.complement(g)
    sc = spectrum(comp)
    for i in range(2, n + 1):
        assert sc.values[i - 1] == pytest.approx(
            n - s.values[n + 1 - i], abs=1e-8)
    # connectivity characterizations
    assert (s.mu2 <= s.tol) == (not g.is_connected())
    assert (abs(s.mun - n) <= s.tol) == (not comp.is_connected())
    if g.edge_count:
        assert s.mun >= max(g.degrees()) + 1 - s.tol


def test_regular_shift():
    # mu_i = d - lambda_{n+1-i} checked via cycle closed form already;
    # spot-check Petersen: adjacency eigenvalues {3, 1^5, (-2)^4}
    s = spectrum(petersen())
    expect = sorted(3 - lam for lam in [3] + [1] * 5 + [-2] * 4)
    assert list(s.values) == pytest.approx(expect, abs=1e-9)


def test_eigen_summary_petersen():
    g = petersen()
    s = spectrum(g)
    assert (s.mu2, s.mun) == (pytest.approx(2, abs=1e-9),
                              pytest.approx(5, abs=1e-9))
    assert g.min_degree() == 3 and max(g.degrees()) == 3
    assert s.ratio == pytest.approx(0.4, abs=1e-9)


def test_eigen_summary_petersen_complement():
    g = _oracles.complement(petersen())
    s = spectrum(g)
    assert s.mu2 == pytest.approx(5, abs=1e-9)
    assert s.mun == pytest.approx(8, abs=1e-9)
    assert g.min_degree() == 6 and s.ratio == pytest.approx(0.625, abs=1e-9)


def test_eigen_summary_star():
    g = complete_multipartite([3, 1])
    s = spectrum(g)
    assert s.mu2 == pytest.approx(1, abs=1e-9)
    assert s.mun == pytest.approx(4, abs=1e-9)
    assert g.min_degree() == 1 and max(g.degrees()) == 3
    assert s.ratio == pytest.approx(0.25, abs=1e-9)
