"""Test of the output checker: correct records pass, corrupted ones fail.

    python3 perfbench/selftest.py            # or
    python3 -m pytest perfbench/selftest.py

Records come from the program itself (``analyze_graph``), so the test
also shows the checker accepts today's output for these graphs.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import networkx as nx  # noqa: E402

import check  # noqa: E402
from spectough.graphs import complete_multipartite, cycle, gnp, petersen, write_graph6  # noqa: E402
from spectough.scan import analyze_graph, record_to_jsonl  # noqa: E402


def scan_output(graphs) -> tuple[list[str], list[dict]]:
    lines = [write_graph6(g) for g in graphs]
    return lines, [analyze_graph(g, g6=s) for g, s in zip(graphs, lines)]


def encode(records: list[dict]) -> bytes:
    return "".join(record_to_jsonl(r) + "\n" for r in records).encode()


def failed(lines: list[str], records: list[dict]) -> list[int]:
    return [i for i, r in enumerate(check.check_scan(lines, encode(records))) if r]


GRAPHS = [petersen(), cycle(6), complete_multipartite([4, 2, 1]),
          gnp(9, 0.5, 7), gnp(12, 0.4, 3)]


def test_correct_records_pass():
    lines, records = scan_output(GRAPHS)
    assert failed(lines, records) == []
    assert all(check.check_record(s, r, brute=True) == []
               for s, r in zip(lines, records))


def test_wrong_mu2_fails():
    lines, records = scan_output(GRAPHS)
    records[3]["mu2"] += 1e-6
    assert failed(lines, records) == [3]


def test_s_that_is_not_a_cut_fails():
    lines, records = scan_output(GRAPHS)
    # one vertex of the 2-connected C6 leaves a single path
    records[1]["certificate"] = {"S": [0], "c": 2, "value": "1/2"}
    records[1]["toughness"] = "1/2"
    assert failed(lines, records) == [1]


def test_non_optimal_ratio_fails():
    lines, records = scan_output(GRAPHS)
    # the neighbours of vertex 0 in the Petersen graph cut off {0}:
    # ratio 3/2, a real cut within kappa/2, but t = 4/3
    records[0]["certificate"] = {"S": [1, 4, 5], "c": 2, "value": "3/2"}
    records[0]["toughness"] = "3/2"
    assert check.check_record(lines[0], records[0], brute=False) == []
    assert check.check_record(lines[0], records[0], brute=True) != []


def test_reordered_records_fail():
    lines, records = scan_output(GRAPHS)
    records[2], records[4] = records[4], records[2]
    assert failed(lines, records) == [2, 4]


def test_missing_record_fails_every_graph():
    lines, records = scan_output(GRAPHS)
    assert failed(lines, records[:-1]) == list(range(len(GRAPHS)))


def frontier_doc(graphs: list[nx.Graph]) -> bytes:
    history = []
    for g in graphs:
        w = check.laplacian_eigenvalues(g)
        history.append({"graph6": nx.to_graph6_bytes(g, header=False).decode().strip(),
                        "ratio": float(w[1] / w[-1]), "n": g.number_of_nodes()})
    return json.dumps({"scanned": 10, "bd0_counterexamples": [],
                       "non_hamiltonian_frontier": {
                           "ratio": history[-1]["ratio"],
                           "graph6": history[-1]["graph6"],
                           "history": history}}).encode()


def test_non_hamiltonian_frontier_passes():
    doc = frontier_doc([nx.complete_bipartite_graph(4, 5),
                        nx.complete_bipartite_graph(6, 7)])
    assert check.check_hunt(doc, 10) == ([], [])


def test_hamiltonian_frontier_graph_fails():
    # K_{6,6} has ratio 1/2 but a Hamilton cycle
    doc = frontier_doc([nx.complete_bipartite_graph(6, 7),
                        nx.complete_bipartite_graph(6, 6)])
    whole, each = check.check_hunt(doc, 10)
    assert whole == [] and len(each) == 1 and "Hamiltonian" in each[0]


def test_hunt_count_mismatch_fails_the_run():
    doc = frontier_doc([nx.complete_bipartite_graph(6, 7)])
    whole, _ = check.check_hunt(doc, 11)
    assert whole


def test_held_karp_agrees_with_brute_force():
    for seed in range(40):
        g = nx.gnp_random_graph(7, 0.5, seed=seed)
        tours = ((0, *p) for p in itertools.permutations(range(1, 7)))
        brute = any(all(g.has_edge(t[i - 1], t[i]) for i in range(7)) for t in tours)
        assert check.held_karp_hamiltonian(check.adjacency_masks(g)) == brute


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} checker tests passed")
