import hashlib
import math
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectough._kernels import _ref
from spectough.errors import Graph6Error
from spectough.families import generate_family
from spectough.graphs import (Graph, complete, complete_multipartite, cycle,
                              gnp, mask_of, parse_graph6, path, petersen,
                              reach, write_graph6)
from tests._oracles import (complement, component_count, components,
                            graph_from_edges)

GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


class TestGraph6Parse:
    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_triangle(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.edge_count == 3

    def test_p3(self):
        g = parse_graph6("Bg")
        assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]

    def test_bad_length(self):
        with pytest.raises(Graph6Error, match="bytes"):
            parse_graph6("B")

    def test_out_of_range_byte(self):
        with pytest.raises(Graph6Error, match="range"):
            parse_graph6("B!")

    def test_nonzero_padding(self):
        # P3 is "Bg" = bits 101000; set a padding bit: 101001 -> 'i'
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("Bi")

    def test_long_form_rejected(self):
        with pytest.raises(Graph6Error, match="long-form"):
            parse_graph6("~??~?????")

    def test_empty(self):
        for text in ("   ", ">>graph6<<", ">>graph6<< "):
            with pytest.raises(Graph6Error):
                parse_graph6(text)

    @settings(max_examples=200, deadline=None)
    @given(head=st.text(GRAPH6_CHARS), tail=st.text(GRAPH6_CHARS),
           bad=st.characters().filter(lambda ch: not 63 <= ord(ch) <= 126))
    @example(head="C", bad="\u00e9", tail="")
    def test_rejects_characters_outside_range(self, head, bad, tail):
        # surrounding whitespace is stripped before decoding
        assume(not bad.isspace() or (head and tail))
        with pytest.raises(Graph6Error):
            parse_graph6(head + bad + tail)


class TestGraph6Write:
    @pytest.mark.parametrize("g,expect", [
        (complete(2), "A_"),
        (complete(3), "Bw"),
        (path(3), "Bg"),
    ])
    def test_known_encodings(self, g, expect):
        assert write_graph6(g) == expect

    def test_write_cap(self):
        big = graph_from_edges(63, [(0, 1)])
        with pytest.raises(Graph6Error):
            write_graph6(big)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 62), seed=st.integers(0, 2**64 - 1),
           p=st.floats(0.0, 1.0))
    def test_round_trip(self, n, seed, p):
        g = gnp(n, p, seed)
        assert parse_graph6(write_graph6(g)) == g


class TestGraphInvariants:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_adj_masks([0b01, 0b00])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph.from_adj_masks([0b10, 0b00])

    @pytest.mark.parametrize("masks,first", [
        # row 0 breaks every rule: the range check runs first
        ([0b1011, 0b000, 0b000], "adjacency row 0 references vertex >= 3"),
        # a loop at 0 comes before the missing 1 -> 0 entry
        ([0b011, 0b000, 0b000], "loop at vertex 0"),
        # row 0 is asymmetric towards 1; row 1 is out of range and a loop
        ([0b010, 0b1010, 0b000], "asymmetric adjacency between 1 and 0"),
        # rows are checked in order: row 1's loop before row 2's range
        ([0b000, 0b110, 0b1000], "loop at vertex 1"),
        # the smallest neighbour without the reverse entry is named
        ([0b1100, 0b0000, 0b0000, 0b0001], "asymmetric adjacency between 2 and 0"),
        # a negative row has bits at and above n
        ([-1, 0b0], "adjacency row 0 references vertex >= 2"),
    ])
    def test_first_error_of_malformed_masks(self, masks, first):
        with pytest.raises(ValueError) as info:
            Graph.from_adj_masks(masks)
        assert str(info.value) == first

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32))
    def test_complement_involution(self, n, seed):
        g = gnp(n, 0.4, seed)
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == n * (n - 1) // 2

    def test_complement_examples(self):
        assert complement(complete(3)).edge_count == 0
        star = complete_multipartite([3, 1])
        comp = complement(star)
        # triangle on the leaves plus the isolated old center
        assert comp.edge_count == 3 and comp.adj[3] == 0
        assert not comp.is_connected()


class TestComponents:
    def test_path_split(self):
        comps = components(path(3), mask_of([1]))
        assert comps == [0b001, 0b100]

    def test_c4_opposite(self):
        comps = components(cycle(4), mask_of([0, 2]))
        assert [c.bit_count() for c in comps] == [1, 1]

    def test_petersen_connected(self):
        comps = components(petersen(), 0)
        assert len(comps) == 1 and comps[0].bit_count() == 10

    def test_remove_everything(self):
        assert components(path(3), 0b111) == []
        assert _ref._component_count(3, path(3).adj, 0b111) == 0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 20), seed=st.integers(0, 2**32),
           p=st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]), data=st.data())
    def test_partition_of_rest(self, n, seed, p, data):
        # the one bitset walk (reach) against the union-find oracle
        g = gnp(n, p, seed)
        assert g.is_connected() == (component_count(g, 0) == 1)
        removed = data.draw(st.integers(0, g.full_mask - 1), label="S")
        rest = g.full_mask & ~removed
        comps = components(g, removed)
        for comp in comps:
            assert reach(g.adj, comp & -comp, rest) == comp
        assert len(comps) == _ref._component_count(n, g.adj, removed)


class TestGenerators:
    def test_star(self):
        g = complete_multipartite([3, 1])
        assert g.n == 4 and g.edge_count == 3 and g.adj[3] == 0b111

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.edge_count == 15
        assert all(d == 3 for d in g.degrees())

    def test_cycle4(self):
        g = cycle(4)
        assert g.edge_count == 4 and all(d == 2 for d in g.degrees())

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            complete_multipartite([2, 0])
        with pytest.raises(ValueError):
            cycle(2)
        # every order above the graph6 limit fails before a row is built
        for maker, n in product((complete, cycle, path), (63, 3000)):
            with pytest.raises(ValueError, match="<= 62"):
                maker(n)
        with pytest.raises(ValueError, match="<= 62"):
            complete_multipartite([31, 32])
        for n, p in ((5, 1.5), (0, 0.5), (63, 0.5)):
            with pytest.raises(ValueError):
                gnp(n, p, 0)

    def test_complete_path_cycle_match_edge_lists(self):
        for n in range(1, 63):
            assert complete(n) == graph_from_edges(n, combinations(range(n), 2))
            assert path(n) == graph_from_edges(
                n, [(i, i + 1) for i in range(n - 1)])
            if n >= 3:
                assert cycle(n) == graph_from_edges(
                    n, [(i, (i + 1) % n) for i in range(n)])

    def test_complete_multipartite_matches_edge_list(self):
        def by_edges(sizes):
            part = [i for i, s in enumerate(sizes) for _ in range(s)]
            return graph_from_edges(len(part), [
                (u, v) for u, v in combinations(range(len(part)), 2)
                if part[u] != part[v]])

        # every ordered part list with n <= 12, then every kss1 graph
        lists = [[b - a for a, b in zip((0, *cuts), (*cuts, n))]
                 for n in range(1, 13) for k in range(n)
                 for cuts in combinations(range(1, n), k)]
        lists += [[s, s + 1] for s in range(1, 31)]
        for sizes in lists:
            assert complete_multipartite(sizes) == by_edges(sizes), sizes

    def test_petersen_matches_edge_list(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        assert petersen() == graph_from_edges(10, edges)

    def test_gnp_deterministic(self):
        assert gnp(12, 0.5, 99) == gnp(12, 0.5, 99)
        assert gnp(12, 0.5, 99) != gnp(12, 0.5, 100)

    @pytest.mark.parametrize("spec,first_bad", [
        ("cycle:3..1000000", "cycle(n) needs 3 <= n <= 62"),
        ("kss1:1..1000000",
         "complete_multipartite(sizes) needs sizes >= 1 and sum(sizes) <= 62"),
    ], ids=["cycle", "kss1"])
    def test_family_range_past_62_fails_at_once(self, spec, first_bad):
        # a range of a million orders fails at its first order above 62,
        # without building the rest of the range
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                generate_family(spec)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        assert str(info.value) == f"family spec {spec!r}: {first_bad}"


# gnp(n, p, seed) as graph6, recorded before G(n, p) moved into the kernel
# library.  Seeds are taken modulo 2^64: -1 is 2^64 - 1 and 2^64 + 3 is 3.
GNP_PS = (0.0, 0.3, 0.7, 1.0, math.nextafter(1.0, 0.0))
GNP_SEEDS = (-1, 0, 2**64 + 3)
GNP_PINS = {
    13: {0.3: ("LLWGIfWLDAOi?q", "LCEGT`SbWACGNa", "L`a@f@???OAPJH"),
         0.7: ("LLxyjvW^vmWz\\v", "L^Fnt`sfWr~wNq", "LniVn|~tp~r~^N")},
    14: {0.3: ("MECQjAcAkcOXQ@t@_", "MCEwEGIkhcfAAd@?_", "M_iaUGW?P@??PEGP?"),
         0.7: ("MFtyjjeUnlwz^P~Z_", "M\\^|}wYkjevRRlhn_", "Mknv}|~fx^xm^V}p?")},
}
GNP_EMPTY = {13: "L?????????????", 14: "M????????????????"}
GNP_FULL = {13: "L~~~~~~~~~~~~~", 14: "M~~~~~~~~~~~~~~~_"}
# SHA-256 of the 15 graph6 lines gnp(62, p, seed), p in GNP_PS outermost
GNP_62_SHA256 = "902b03bdbada2237ab54b87a7f6853aeda4464db69a35d01777f2dd5bc439489"


class TestGnpPinned:
    @pytest.mark.parametrize("n", [13, 14])
    @pytest.mark.parametrize("p", GNP_PS)
    def test_known_answers(self, n, p):
        if p == 0.0:
            expect = (GNP_EMPTY[n],) * 3
        elif p >= 0.9:  # 1.0 and the largest double below it
            expect = (GNP_FULL[n],) * 3
        else:
            expect = GNP_PINS[n][p]
        assert tuple(write_graph6(gnp(n, p, seed)) for seed in GNP_SEEDS) == expect

    def test_order_62(self):
        lines = "".join(write_graph6(gnp(62, p, seed)) + "\n"
                        for p in GNP_PS for seed in GNP_SEEDS)
        assert hashlib.sha256(lines.encode()).hexdigest() == GNP_62_SHA256
