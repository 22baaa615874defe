import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectough.bounds import _subset_sum_hits, bound_report, detect_prop2_cases
from spectough.graphs import (complete, complete_multipartite, cycle, gnp,
                              mask_of, path, petersen)
from spectough.scan import analyze_graph
from spectough.spectra import spectrum
from spectough.toughness import exact_toughness
from tests import _oracles
from tests._lemmas import (independence_upper_bound, prop32_bounds,
                           separation_verify, toughness_from_ratio)


class TestBoundReport:
    def test_petersen(self):
        g = petersen()
        r = bound_report(g, spectrum(g))
        assert r["bd0"] == pytest.approx(1.0, abs=1e-9)
        assert r["bd1"] == pytest.approx(0.5, abs=1e-9)
        assert r["bd2"] == pytest.approx(2 / 3, abs=1e-9)
        rec = analyze_graph(g)
        assert rec["slack1"] > 0 and rec["slack2"] > 0

    def test_petersen_complement(self):
        g = _oracles.complement(petersen())
        r = bound_report(g, spectrum(g))
        assert r["bd0"] == pytest.approx(2.5, abs=1e-9)
        assert r["bd1"] == pytest.approx(2.0, abs=1e-9)
        assert r["bd2"] == pytest.approx(5 / 3, abs=1e-9)
        assert analyze_graph(g)["toughness"] == "3"

    def test_star_all_tight(self):
        g = complete_multipartite([3, 1])
        r = bound_report(g, spectrum(g))
        third = 1 / 3
        for name in ("bd0", "bd1", "bd2"):
            assert r[name] == pytest.approx(third, abs=1e-9)
        rec = analyze_graph(g)
        for name in ("slack0", "slack1", "slack2"):
            assert abs(rec[name]) <= 1e-6

    def test_complete_graph_total(self):
        g = complete(4)
        assert math.isinf(bound_report(g, spectrum(g))["bd2"])

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            bound_report(path(1), spectrum(path(1)))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32))
    def test_dominance(self, n, seed):
        g = gnp(n, 0.5, seed)
        if g.edge_count == 0 or g.is_complete() or not g.is_connected():
            return
        s = spectrum(g)
        r = bound_report(g, s)
        assert r["bd0"] >= max(r["bd1"], r["bd2"]) - 1e-9
        if not _oracles.complement(g).is_connected():
            assert r["bd0"] == pytest.approx(r["bd1"], abs=1e-8)


class TestIndependenceBound:
    def test_petersen(self):
        g = petersen()
        assert independence_upper_bound(spectrum(g), 3, 10) == pytest.approx(4.0, abs=1e-9)

    def test_star(self):
        g = complete_multipartite([3, 1])
        assert independence_upper_bound(spectrum(g), 1, 4) == pytest.approx(3.0, abs=1e-9)

    def test_c4(self):
        g = cycle(4)
        assert independence_upper_bound(spectrum(g), 2, 4) == pytest.approx(2.0, abs=1e-9)


class TestSeparation:
    def test_p3_equality(self):
        g = path(3)
        chk = separation_verify(g, mask_of([0]), mask_of([2]), spectrum(g))
        assert chk.lhs == pytest.approx(0.25, abs=1e-9)
        assert chk.rhs == pytest.approx(0.25, abs=1e-9)
        assert chk.passed

    def test_petersen_nonneighbors(self):
        g = petersen()
        x = mask_of([0])
        y = g.full_mask & ~x & ~g.adj[0]
        assert y.bit_count() == 6
        chk = separation_verify(g, x, y, spectrum(g))
        assert chk.lhs == pytest.approx(1 / 6, abs=1e-9)
        assert chk.rhs == pytest.approx(9 / 49, abs=1e-9)
        assert chk.passed

    def test_star_leaves(self):
        g = complete_multipartite([3, 1])
        chk = separation_verify(g, mask_of([0]), mask_of([1, 2]), spectrum(g))
        assert chk.lhs == pytest.approx(1 / 3, abs=1e-9)
        assert chk.rhs == pytest.approx(9 / 25, abs=1e-9)
        assert chk.passed

    def test_edge_between_rejected(self):
        g = path(3)
        with pytest.raises(ValueError, match="edge"):
            separation_verify(g, mask_of([0]), mask_of([1]), spectrum(g))
        with pytest.raises(ValueError):
            separation_verify(g, mask_of([0]), mask_of([0, 2]), spectrum(g))
        with pytest.raises(ValueError):
            separation_verify(g, 0, mask_of([2]), spectrum(g))


class TestProp32:
    def test_p3(self):
        x_upper, s_coeff = prop32_bounds(spectrum(path(3)), 3)
        assert x_upper == pytest.approx(1.0, abs=1e-9)
        assert s_coeff == pytest.approx(1.0, abs=1e-9)

    def test_c4(self):
        x_upper, s_coeff = prop32_bounds(spectrum(cycle(4)), 4)
        assert x_upper == pytest.approx(1.0, abs=1e-9)
        assert s_coeff == pytest.approx(2.0, abs=1e-9)

    def test_petersen(self):
        x_upper, s_coeff = prop32_bounds(spectrum(petersen()), 10)
        assert x_upper == pytest.approx(3.0, abs=1e-9)
        assert s_coeff == pytest.approx(4 / 3, abs=1e-9)

    def test_complete_rejected(self):
        with pytest.raises(ValueError):
            prop32_bounds(spectrum(complete(4)), 4)


class TestCaseDetection:
    def test_c4(self):
        g = cycle(4)
        flags = detect_prop2_cases(g, exact_toughness(g))
        assert flags == {"i": True, "ii": True, "iii": True, "iv": True}

    def test_star(self):
        g = complete_multipartite([3, 1])
        flags = detect_prop2_cases(g, exact_toughness(g))
        assert flags == {"i": True, "ii": True, "iii": False, "iv": False}

    def test_p3(self):
        # complement of P3 is one edge plus an isolated vertex: disconnected,
        # so case (i) holds (consistent with mun(P3) = 3 = n)
        g = path(3)
        flags = detect_prop2_cases(g, exact_toughness(g))
        assert flags == {"i": True, "ii": True, "iii": True, "iv": True}

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 10), p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
           seed=st.integers(0, 2**32))
    def test_matches_brute_force(self, n, p, seed):
        g = gnp(n, p, seed)
        assume(g.is_connected() and not g.is_complete())
        cert = exact_toughness(g)
        assert detect_prop2_cases(g, cert) == _oracles.prop2_cases(g, cert)

    def test_needs_finite_certificate(self):
        with pytest.raises(ValueError):
            exact_toughness(complete(4))


class TestToughnessFromRatio:
    @pytest.mark.parametrize("ratio,r", [(2 / 3, 2.0), (0.5, 1.0), (0.8, 4.0)])
    def test_known(self, ratio, r):
        assert toughness_from_ratio(ratio) == pytest.approx(r, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            toughness_from_ratio(1.0)
        with pytest.raises(ValueError):
            toughness_from_ratio(-0.1)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 14), max_size=8),
       target=st.integers(1, 30))
def test_subset_sum_matches_combinations(sizes, target):
    expected = any(sum(c) == target for r in range(1, len(sizes) + 1)
                   for c in combinations(sizes, r))
    assert _subset_sum_hits(sizes, target) == expected
