import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectough import structures
from spectough._kernels import _ref
from spectough.graphs import (Graph, complete, complete_multipartite, cycle,
                              gnp, path, petersen)
from spectough.scan import ScanConfig
from spectough.spectra import spectrum
from spectough.structures import (Guarantee, guarantees, has_factor,
                                  has_hamilton_cycle,
                                  has_perfect_matching,
                                  has_spanning_tree_max_degree,
                                  is_1s_factor_critical, is_m_extendable,
                                  verify_guarantee)
from tests import _oracles
from tests._oracles import has_hamilton_path

ORACLE_CAP = ScanConfig().cap_oracle


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
        item = Guarantee("elementary", {}, "perfect-matching")
        assert verify_guarantee(cycle(18), item, oracle_cap=ORACLE_CAP) is None
        assert verify_guarantee(cycle(18), item, oracle_cap=18) is True


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

    def test_unbalanced_bipartite_needs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("Hamilton kernel ran")

        monkeypatch.setattr(structures._kernels, "hamilton_cycle", no_search)
        for g in (complete_multipartite([6, 7]), complete_multipartite([7, 8]),
                  path(5)):
            assert not has_hamilton_cycle(g)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 2**32),
           split=st.integers(0, 10), p=st.sampled_from([0.3, 0.5, 0.8]))
    def test_matches_reference_kernel(self, n, seed, split, p):
        g = _across_cut(gnp(n, p, seed), split)
        assert has_hamilton_cycle(g) == _ref.hamilton_cycle(g.n, g.adj)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 2**32),
           split=st.integers(0, 10), p=st.sampled_from([0.3, 0.5, 0.8]))
    def test_unbalanced_bipartite_matches_brute_force(self, n, seed, split, p):
        g = _across_cut(gnp(n, p, seed), split)
        assert (structures._unbalanced_bipartite(g)
                == _oracles.unbalanced_bipartite(g))

    def test_unbalanced_bipartite_complete_bipartite(self):
        for a in range(1, 6):
            for b in range(max(a, 3 - a), 11 - a):
                g = complete_multipartite([a, b])
                assert structures._unbalanced_bipartite(g) == (a != b)
                assert _oracles.unbalanced_bipartite(g) == (a != b)


def _across_cut(g: Graph, split: int) -> Graph:
    """g itself for split 0, else only its edges across the cut between
    the first min(split, n - 1) vertices and the rest: a bipartite graph."""
    if not split:
        return g
    side = (1 << min(split, g.n - 1)) - 1
    return Graph.from_edges(g.n, [(u, v) for u, v in g.edges()
                                  if (side >> u & 1) != (side >> v & 1)])


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([6, 8, 10]), seed=st.integers(0, 2**32),
           p=st.sampled_from([0.4, 0.6, 0.8]))
    def test_m1_matches_brute_force(self, n, seed, p):
        g = gnp(n, p, seed)
        assert is_m_extendable(g, 1) == _oracles.is_1_extendable(g)


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 10), s=st.integers(1, 9),
           seed=st.integers(0, 2**32), p=st.sampled_from([0.4, 0.6, 0.8]))
    def test_matches_brute_force(self, n, s, seed, p):
        assume(s < n and (n + s) % 2 == 0)
        g = gnp(n, p, seed)
        assert (is_1s_factor_critical(g, s)
                == _oracles.is_1s_factor_critical(g, s))


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
        g = _oracles.complement(petersen())
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
        items = guarantees(g, spectrum(g))
        assert any(it.name == "ab-factor" and it.params == {"a": 1, "b": 2}
                   for it in items)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            guarantees(g, spectrum(g))

    def test_verify_emitted_guarantees_small(self):
        for g in (cycle(4), cycle(6), petersen(),
                  _oracles.complement(petersen()),
                  complete_multipartite([2, 2, 2])):
            for item in guarantees(g, spectrum(g)):
                outcome = verify_guarantee(g, item, oracle_cap=ORACLE_CAP)
                assert outcome is not False, (g, item)


@pytest.mark.parametrize("oracle", sorted(structures.ORACLES))
def test_oracle_stops_above_its_limit(monkeypatch, oracle):
    """One vertex above the oracle's own limit, or above the oracle cap
    when it has none, the check never runs; at the limit it does."""
    limit, _ = structures.ORACLES[oracle]
    top = ORACLE_CAP if limit is None else limit

    def check(g, params):
        raise AssertionError(f"{oracle} ran at n={g.n}")

    monkeypatch.setitem(structures.ORACLES, oracle, (limit, check))
    item = Guarantee("any", {}, oracle)
    assert verify_guarantee(cycle(top + 1), item, oracle_cap=ORACLE_CAP) is None
    with pytest.raises(AssertionError, match=f"n={top}"):
        verify_guarantee(cycle(top), item, oracle_cap=ORACLE_CAP)
