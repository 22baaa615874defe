import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectough.errors import CapacityError
from spectough.graphs import (Graph, complete, complete_multipartite, cycle,
                              gnp, path, petersen)
from spectough.spectra import spectrum
from spectough.structures import (guarantees, has_factor, has_hamilton_cycle,
                                  has_perfect_matching,
                                  has_spanning_tree_max_degree,
                                  is_1s_factor_critical, is_m_extendable,
                                  verify_guarantee)
from tests._oracles import has_hamilton_path


class TestPerfectMatching:
    def test_c4(self):
        assert has_perfect_matching(cycle(4))

    def test_star(self):
        assert not has_perfect_matching(complete_multipartite([3, 1]))

    def test_petersen(self):
        assert has_perfect_matching(petersen())

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            has_perfect_matching(cycle(5))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            has_perfect_matching(cycle(18))


class TestSpanningTree:
    def test_star(self):
        star = complete_multipartite([3, 1])
        assert has_spanning_tree_max_degree(star, 3)
        assert not has_spanning_tree_max_degree(star, 2)

    def test_c5_path(self):
        assert has_spanning_tree_max_degree(cycle(5), 2)

    def test_petersen(self):
        assert has_spanning_tree_max_degree(petersen(), 3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            has_spanning_tree_max_degree(Graph.from_edges(4, [(0, 1), (2, 3)]), 2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 2**32))
    @example(n=7, seed=563354)  # undoing a union after path compression
    def test_degree2_equals_hamilton_path(self, n, seed):
        g = gnp(n, 0.5, seed)
        if not g.is_connected():
            return
        assert has_spanning_tree_max_degree(g, 2) == has_hamilton_path(g)


class TestHamiltonCycle:
    def test_c5(self):
        assert has_hamilton_cycle(cycle(5))

    def test_k23(self):
        assert not has_hamilton_cycle(complete_multipartite([2, 3]))

    def test_petersen(self):
        assert not has_hamilton_cycle(petersen())

    def test_kss1_family(self):
        for s in range(2, 7):
            assert not has_hamilton_cycle(complete_multipartite([s, s + 1]))

    def test_small_and_cap(self):
        with pytest.raises(ValueError):
            has_hamilton_cycle(complete(2))
        with pytest.raises(CapacityError):
            has_hamilton_cycle(cycle(17))


class TestExtendable:
    def test_c6(self):
        assert is_m_extendable(cycle(6), 1)

    def test_c4_m1_out_of_range(self):
        with pytest.raises(ValueError):
            is_m_extendable(cycle(4), 1)  # needs m < n/2 - 1 = 1

    def test_k6(self):
        assert is_m_extendable(complete(6), 1)

    def test_not_extendable(self):
        # C8 has the matching {0-1, 3-4} that leaves no perfect matching
        assert not is_m_extendable(cycle(8), 2)


class TestFactors:
    def test_c4_two_factor(self):
        assert has_factor(cycle(4), 2, 2)

    def test_star_one_factor(self):
        assert not has_factor(complete_multipartite([3, 1]), 1, 1)

    def test_c6_12_factor(self):
        assert has_factor(cycle(6), 1, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            has_factor(cycle(4), 2, 1)
        with pytest.raises(CapacityError):
            has_factor(cycle(12), 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**32))
    def test_11_factor_is_perfect_matching(self, n, seed):
        g = gnp(n, 0.5, seed)
        if g.min_degree() == 0:
            return
        assert has_factor(g, 1, 1) == has_perfect_matching(g)


class TestFactorCritical:
    def test_c5(self):
        assert is_1s_factor_critical(cycle(5), 1)

    def test_c6_s2(self):
        # removing {0, 2} isolates vertex 1, so C6 is not (1,2)-critical
        assert not is_1s_factor_critical(cycle(6), 2)

    def test_k4_s2(self):
        assert is_1s_factor_critical(complete(4), 2)

    def test_p4_s2(self):
        assert not is_1s_factor_critical(path(4), 2)

    def test_parity(self):
        with pytest.raises(ValueError):
            is_1s_factor_critical(cycle(5), 2)


class TestGuarantees:
    def test_c4(self):
        g = cycle(4)
        tags = {(it.name, tuple(sorted(it.params.items())))
                for it in guarantees(g, spectrum(g))}
        assert ("elementary", ()) in tags
        assert ("k-factor", (("k", 1),)) in tags
        assert ("spanning-tree-max-degree", (("k", 3),)) in tags
        assert ("k-walk", (("k", 3),)) in tags

    def test_petersen(self):
        g = petersen()
        items = {it.name: it.params for it in guarantees(g, spectrum(g))}
        assert items.get("spanning-tree-max-degree") == {"k": 4}
        assert "elementary" not in items
        assert "k-factor" not in items

    def test_petersen_complement(self):
        g = petersen().complement()
        items = guarantees(g, spectrum(g))
        names = {(it.name, tuple(sorted(it.params.items()))) for it in items}
        assert ("elementary", ()) in names
        assert ("k-factor", (("k", 1),)) in names
        # ratio 5/8 < 2/3: no 2-factor guarantee
        assert ("k-factor", (("k", 2),)) not in names

    def test_odd_factor_critical(self):
        g = complete_multipartite([2, 2, 1])  # n=5 odd, mu2=3, mun=5
        items = guarantees(g, spectrum(g))
        assert any(it.name == "factor-critical" for it in items)
        assert is_1s_factor_critical(g, 1)

    def test_two_walk(self):
        g = complete_multipartite([2, 2, 2, 2, 2])  # ratio 8/10
        items = guarantees(g, spectrum(g))
        walk = [it for it in items if it.name == "2-walk"]
        assert walk and walk[0].oracle is None

    def test_ab_pairs(self):
        g = petersen()  # ratio 0.4 >= 1 - 2/3
        items = guarantees(g, spectrum(g), ab_pairs=((1, 2),))
        assert any(it.name == "ab-factor" and it.params == {"a": 1, "b": 2}
                   for it in items)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            guarantees(g, spectrum(g))

    def test_verify_emitted_guarantees_small(self):
        for g in (cycle(4), cycle(6), petersen(), petersen().complement(),
                  complete_multipartite([2, 2, 2])):
            for item in guarantees(g, spectrum(g), ab_pairs=((1, 2), (2, 3))):
                outcome = verify_guarantee(g, item)
                assert outcome is not False, (g, item)
