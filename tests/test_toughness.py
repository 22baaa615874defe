import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectough.graphs import (Graph, complete, complete_multipartite, cycle,
                              gnp, path, petersen)
from spectough.toughness import exact_toughness
from tests._lemmas import NotApplicableError, proof_partition
from tests._oracles import component_count, exhaustive_toughness, is_r_tough
from tests.conftest import partitions


class TestExactToughness:
    def test_petersen(self):
        cert = exact_toughness(petersen())
        assert cert.value == Fraction(4, 3)
        assert cert.s_mask.bit_count() == 4 and cert.c == 3

    def test_star(self):
        cert = exact_toughness(complete_multipartite([3, 1]))
        assert cert.value == Fraction(1, 3)
        assert cert.s_mask == 1 << 3 and cert.c == 3  # the center is label 3

    def test_c4(self):
        cert = exact_toughness(cycle(4))
        assert cert.value == Fraction(1) and cert.c == 2

    def test_complete(self):
        with pytest.raises(ValueError):
            exact_toughness(complete(5))

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            exact_toughness(g)

    def test_capacity(self):
        assert exact_toughness(cycle(15)).value == Fraction(1)

    def test_certificate_is_valid_cut(self):
        for g in (petersen(), cycle(6), complete_multipartite([2, 2, 1])):
            cert = exact_toughness(g)
            assert component_count(g, cert.s_mask) == cert.c

    def test_multipartite_formula(self):
        for n in range(3, 11):
            for sizes in partitions(n):
                if not 2 <= len(sizes) < n:
                    continue
                g = complete_multipartite(sizes)
                n1 = max(sizes)
                assert exact_toughness(g).value == Fraction(n - n1, n1)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 9), seed=st.integers(0, 2**32))
    def test_pruned_equals_exhaustive(self, n, seed):
        g = gnp(n, 0.5, seed)
        if g.is_complete() or not g.is_connected():
            for search in (exact_toughness, exhaustive_toughness):
                with pytest.raises(ValueError):
                    search(g)
            return
        assert exact_toughness(g).value == exhaustive_toughness(g).value

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 9), seed=st.integers(0, 2**32),
           pick=st.integers(0, 10**6))
    def test_edge_addition_monotone(self, n, seed, pick):
        g = gnp(n, 0.4, seed)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            return
        u, v = non_edges[pick % len(non_edges)]
        bigger = Graph.from_edges(n, g.edges() + [(u, v)])

        def t(h):
            if h.is_complete():
                return math.inf
            if not h.is_connected():
                return 0
            return exact_toughness(h).value

        assert t(bigger) >= t(g)


class TestIsRTough:
    def test_petersen(self):
        assert is_r_tough(petersen(), Fraction(4, 3))
        assert not is_r_tough(petersen(), Fraction(3, 2))

    def test_complete_any_r(self):
        assert is_r_tough(complete(5), 10**6)

    def test_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert is_r_tough(g, 0)
        assert not is_r_tough(g, Fraction(1, 10))

    def test_negative_r(self):
        with pytest.raises(ValueError):
            is_r_tough(petersen(), -1)


class TestProofPartition:
    def test_singleton_heavy_odd(self):
        x, y = proof_partition([1, 1, 2])
        assert x == (1, 2) and y == (3,)

    def test_middle_big_odd(self):
        x, y = proof_partition([2, 2, 3])
        assert x == (1,) and y == (2, 3)

    def test_even(self):
        x, y = proof_partition([1, 2])
        assert x == (1,) and y == (2,)

    def test_all_singleton_odd_rejected(self):
        with pytest.raises(NotApplicableError):
            proof_partition([1, 1, 1])

    def test_all_singleton_even_ok(self):
        x, y = proof_partition([1, 1, 1, 1])
        assert len(x) == 2 and len(y) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            proof_partition([2])
        with pytest.raises(ValueError):
            proof_partition([2, 1])
        with pytest.raises(ValueError):
            proof_partition([0, 1])

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=11))
    def test_balance_property(self, sizes):
        sizes.sort()
        c = len(sizes)
        if c % 2 == 1 and all(s == 1 for s in sizes):
            with pytest.raises(NotApplicableError):
                proof_partition(sizes)
            return
        x, y = proof_partition(sizes)
        assert sorted(x + y) == list(range(1, c + 1))
        wx = sum(sizes[i - 1] for i in x)
        wy = sum(sizes[i - 1] for i in y)
        assert wy >= wx
        assert 2 * wx >= c
