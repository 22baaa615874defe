"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The shared corpus (conftest) holds >= 5,000 connected non-complete
graphs: all cycles/paths/stars n <= 12, all complete multipartite
graphs n <= 10, and seeded random graphs n in 5..12.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spectough.bounds import bound_report
from spectough.cli import main
from spectough.graphs import (complete_multipartite, cycle, parse_graph6,
                              petersen)
from spectough.scan import record_to_jsonl
from spectough.spectra import spectrum
from spectough.structures import has_hamilton_cycle
from spectough.toughness import exact_toughness
from tests._lemmas import (NotApplicableError, independence_upper_bound,
                           proof_partition, separation_verify)
from tests._oracles import (complement, components, exhaustive_toughness,
                             max_independent_set_size)
from tests.conftest import CLI_ENV, SRC, partitions


def report(k: int, name: str, ok: bool = True):
    print(f"ACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_petersen_fixture():
    start = time.monotonic()
    g = petersen()
    s = spectrum(g)
    assert s.mu2 == pytest.approx(2, abs=1e-9)
    assert s.mun == pytest.approx(5, abs=1e-9)
    cert = exact_toughness(g)
    assert cert.value == Fraction(4, 3)
    r = bound_report(g, s)
    assert r["bd0"] == pytest.approx(1.0, abs=1e-9)
    assert r["bd1"] == pytest.approx(0.5, abs=1e-9)
    assert r["bd2"] == pytest.approx(2 / 3, abs=1e-9)
    assert time.monotonic() - start < 1.0
    report(1, "petersen fixture")


def test_02_petersen_complement_fixture():
    start = time.monotonic()
    g = complement(petersen())
    cert = exact_toughness(g)
    assert cert.value == Fraction(3)
    r = bound_report(g, spectrum(g))
    assert r["bd0"] == pytest.approx(2.5, abs=1e-9)
    assert r["bd1"] == pytest.approx(2.0, abs=1e-9)
    assert r["bd2"] == pytest.approx(5 / 3, abs=1e-9)
    assert time.monotonic() - start < 1.0
    report(2, "petersen complement fixture")


def test_03_multipartite_tightness():
    start = time.monotonic()
    for n in range(3, 13):
        for sizes in partitions(n):
            if not 2 <= len(sizes) < n:
                continue
            g = complete_multipartite(sizes)
            n1 = max(sizes)
            cert = exact_toughness(g)
            assert cert.value == Fraction(n - n1, n1), sizes
            s = spectrum(g)
            assert s.mun == pytest.approx(n, abs=1e-9), sizes
            assert s.mu2 == pytest.approx(n - n1, abs=1e-9), sizes
            assert g.min_degree() == n - n1
            t = (n - n1) / n1
            r = bound_report(g, s)
            for name in ("bd0", "bd1", "bd2"):
                assert r[name] == pytest.approx(t, abs=1e-6), sizes
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"multipartite tightness ({elapsed:.1f}s)")


def test_04_theorem_soundness_sweep(analyzed_corpus):
    assert len(analyzed_corpus) >= 5000
    bad = [rec["graph6"] for _, rec in analyzed_corpus
           if rec["status"].startswith("VIOLATION")]
    report(4, f"bd1/bd2 soundness over {len(analyzed_corpus)} graphs",
           not bad)


def test_05_conjecture_scan(analyzed_corpus):
    hits = [rec for _, rec in analyzed_corpus
            if rec["status"] == "COUNTEREXAMPLE(bd0)"]
    for rec in hits:
        # a genuine finding would be emitted as an artifact, not a failure
        print("COUNTEREXAMPLE artifact:", rec["graph6"], rec["certificate"])
    report(5, f"conjectured bound scan ({len(hits)} counterexamples)")


def test_06_proposition_cases(analyzed_corpus):
    checked = 0
    for g, rec in analyzed_corpus:
        flags = rec["case_flags"]
        if not flags or not any(flags.values()):
            continue
        checked += 1
        cert = exact_toughness(g)
        assert float(cert.value) >= rec["bd0"] - 1e-6, rec["graph6"]
    assert checked > 1000
    report(6, f"proposition cases hold on {checked} flagged graphs")


def test_07_separation_inequality(analyzed_corpus):
    # P3 equality case first
    p3 = parse_graph6("Bg")
    chk = separation_verify(p3, 0b001, 0b100, spectrum(p3))
    assert chk.lhs == pytest.approx(0.25, abs=1e-9)
    assert chk.rhs == pytest.approx(0.25, abs=1e-9)
    checked = 0
    for g, rec in analyzed_corpus:
        if not rec["certificate"]:
            continue
        cert = exact_toughness(g)
        comps = components(g, cert.s_mask)
        sizes = [c.bit_count() for c in comps]
        try:
            x_idx, y_idx = proof_partition(sizes)
        except NotApplicableError:
            continue
        x = y = 0
        for i in x_idx:
            x |= comps[i - 1]
        for i in y_idx:
            y |= comps[i - 1]
        assert separation_verify(g, x, y, spectrum(g)).passed, rec["graph6"]
        checked += 1
    assert checked > 1000
    report(7, f"separation inequality on {checked} certificate partitions")


def test_08_independence_bound(analyzed_corpus):
    g = petersen()
    bound = independence_upper_bound(spectrum(g), 3, 10)
    assert bound == pytest.approx(4.0, abs=1e-9)
    assert max_independent_set_size(g) == 4
    for g, rec in analyzed_corpus:
        bound = independence_upper_bound(spectrum(g), g.min_degree(), g.n)
        assert max_independent_set_size(g) <= bound + 1e-6, rec["graph6"]
    report(8, f"independence bound on {len(analyzed_corpus)} graphs")


def test_09_guarantee_oracle_agreement(analyzed_corpus):
    disagreements = []
    verified = 0
    for _, rec in analyzed_corpus:
        for tag, outcome in rec["oracle_results"].items():
            verified += 1
            if outcome is not True:
                disagreements.append((rec["graph6"], tag))
    assert verified > 5000
    report(9, f"guarantee/oracle agreement ({verified} checks)",
           not disagreements)


def test_10_conjecture2_frontier():
    ratios = []
    for s in range(2, 7):
        g = complete_multipartite([s, s + 1])
        spec = spectrum(g)
        assert spec.ratio == pytest.approx(s / (2 * s + 1), abs=1e-9)
        assert not has_hamilton_cycle(g)
        ratios.append(spec.ratio)
    assert ratios == sorted(ratios) and ratios[-1] < 0.5
    assert not has_hamilton_cycle(petersen())
    report(10, "non-Hamiltonian eigenratio frontier toward 1/2")


def test_11_toughness_self_check(analyzed_corpus):
    checked = 0
    for g, rec in analyzed_corpus:
        if g.n > 9:
            continue
        assert (exact_toughness(g).value
                == exhaustive_toughness(g).value), rec["graph6"]
        checked += 1
    for n in range(4, 13):
        # documented discrepancy: the cycle toughness is 1, not 2
        assert exact_toughness(cycle(n)).value == Fraction(1)
    assert checked > 1000
    report(11, f"pruned == exhaustive on {checked} graphs; t(C_n) = 1")


def test_12_scan_determinism(tmp_path, corpus):
    corpus_file = tmp_path / "corpus.g6"
    corpus_file.write_text("".join(g6 + "\n" for g6, _ in corpus[:300]))
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"scan{jobs}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "spectough", "scan", str(corpus_file),
             "--jobs", jobs, "--output", str(out)],
            capture_output=True, text=True, env=CLI_ENV)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    report(12, "scan determinism across worker counts", outs[0] == outs[1])


# SHA-256 of the corpus records as scan writes them.  A change that means
# to alter records updates this pin and says why; any other change must
# leave every byte of the stream as it was, on both kernel backends.
RECORD_STREAM_SHA256 = (
    "d5114db36e307ad379464b4bde0a48cf887136c4622ccf89e83b2f526c560acf")


def test_13_record_stream_pinned(corpus_records):
    stream = "".join(record_to_jsonl(r) + "\n" for r in corpus_records)
    digest = hashlib.sha256(stream.encode()).hexdigest()
    report(13, f"record stream of {len(corpus_records)} graphs is pinned",
           digest == RECORD_STREAM_SHA256)


# SHA-256 of the findings document of a hunt whose frontier Petersen opens,
# so the Hamilton search runs once.  Held to the same rule as the record
# stream pin above, on both kernel backends.
HUNT_OUTPUT_SHA256 = (
    "b2000f32675cc7d6944018bb9617dc9bf147416a0aab1fd71496c5402b733ea9")
HUNT_ARGV = ["hunt", "petersen", "kss1:2..6", "gnp:10,0.5", "--seed", "1",
             "--count", "50"]


def test_14_hunt_output_pinned(tmp_path):
    digests = []
    for jobs in ("1", "2"):
        out = tmp_path / f"findings{jobs}.json"
        assert main([*HUNT_ARGV, "--jobs", jobs, "--output", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    report(14, "hunt findings document is pinned at --jobs 1 and 2",
           digests == [HUNT_OUTPUT_SHA256] * 2)


def test_15_pure_backend_end_to_end(tmp_path, corpus, corpus_records):
    # A copy of the package without the built kernel library runs the pure
    # kernels; its scan and hunt output must be the in-tree output, byte
    # for byte, whichever backend the tree runs.
    shutil.copytree(os.path.join(SRC, "spectough"), tmp_path / "spectough",
                    ignore=shutil.ignore_patterns("_bitset.*", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}

    def run(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              env=env, cwd=tmp_path)

    probe = run("-c", "import spectough; print(spectough.KERNEL_BACKEND, "
                      "spectough.__file__)")
    assert probe.stdout.decode().split() == [
        "pure", str(tmp_path / "spectough" / "__init__.py")]
    corpus_file = tmp_path / "corpus.g6"
    corpus_file.write_text("".join(g6 + "\n" for g6, _ in corpus[::8]))
    scan = run("-m", "spectough", "scan", str(corpus_file), "--jobs", "2")
    assert scan.returncode == 0, scan.stderr
    findings = tmp_path / "findings.json"
    hunt = run("-m", "spectough", *HUNT_ARGV, "--jobs", "2",
               "--output", str(findings))
    assert hunt.returncode == 0, hunt.stderr
    expected = [record_to_jsonl(r) for r in corpus_records[::8]]
    report(15, f"pure backend: {len(expected)} scan records and the hunt "
               "findings equal the in-tree output",
           scan.stdout.decode().splitlines() == expected
           and hashlib.sha256(findings.read_bytes()).hexdigest()
           == HUNT_OUTPUT_SHA256)
