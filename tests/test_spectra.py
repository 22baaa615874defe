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


@pytest.mark.parametrize("matrix", [
    [], [1.0, 2.0], [[1.0, 2.0], [3.0]], [[math.nan]], [[math.inf]],
    [[1.0, math.inf], [math.inf, 1.0]], [[1.0, 0.0], [0.0, math.inf]],
    [[1e200, 1e200], [1e200, 1e200]],  # finite, but the norm overflows
])
def test_jacobi_rejects_malformed(matrix):
    with pytest.raises(ValueError):
        jacobi_eigenvalues(matrix)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32))
def test_spectrum_invariants(n, seed):
    g = gnp(n, 0.5, seed)
    s = spectrum(g)
    assert abs(s.values[0]) <= s.tol
    assert sum(s.values) == pytest.approx(2 * g.edge_count, abs=n * s.tol)
    assert all(-s.tol <= v <= n + s.tol for v in s.values)
    # complement relation mu_i(comp) = n - mu_{n+2-i}(g)
    sc = spectrum(g.complement())
    for i in range(2, n + 1):
        assert sc.values[i - 1] == pytest.approx(
            n - s.values[n + 1 - i], abs=1e-8)
    # connectivity characterizations
    assert (s.mu2 <= s.tol) == (not g.is_connected())
    assert (abs(s.mun - n) <= s.tol) == (not g.complement().is_connected())
    if g.edge_count:
        assert s.mun >= g.max_degree() + 1 - s.tol


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
    assert g.min_degree() == 3 and g.max_degree() == 3
    assert s.ratio == pytest.approx(0.4, abs=1e-9)


def test_eigen_summary_petersen_complement():
    g = petersen().complement()
    s = spectrum(g)
    assert s.mu2 == pytest.approx(5, abs=1e-9)
    assert s.mun == pytest.approx(8, abs=1e-9)
    assert g.min_degree() == 6 and s.ratio == pytest.approx(0.625, abs=1e-9)


def test_eigen_summary_star():
    g = complete_multipartite([3, 1])
    s = spectrum(g)
    assert s.mu2 == pytest.approx(1, abs=1e-9)
    assert s.mun == pytest.approx(4, abs=1e-9)
    assert g.min_degree() == 1 and g.max_degree() == 3
    assert s.ratio == pytest.approx(0.25, abs=1e-9)
