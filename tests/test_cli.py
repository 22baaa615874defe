import json
import subprocess
import sys

import pytest

from spectough.cli import main
from spectough.graphs import parse_graph6
from spectough.scan import ScanConfig, scan_lines


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "spectough", *argv],
                          capture_output=True, text=True)
    return proc


class TestAnalyze:
    def test_petersen_family(self, capsys):
        assert main(["analyze", "--family", "petersen", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["toughness"] == "4/3"
        assert rec["bd0"] == pytest.approx(1.0, abs=1e-9)
        assert rec["bd1"] == pytest.approx(0.5, abs=1e-9)
        assert rec["bd2"] == pytest.approx(2 / 3, abs=1e-9)

    def test_complete_skipped(self, capsys):
        assert main(["analyze", "Bw", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["toughness"] == "inf"
        assert rec["status"] == "SKIPPED(complete)"

    def test_star_near_tight(self, capsys):
        assert main(["analyze", "--family", "complete_multipartite:3,1",
                     "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "NEAR-TIGHT"
        for key in ("slack0", "slack1", "slack2"):
            assert abs(rec[key]) <= 1e-6

    def test_bad_input_exits_2(self):
        proc = run_cli("analyze", "~~~")
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_both_inputs_is_usage_error(self):
        proc = run_cli("analyze", "Bw", "--family", "petersen")
        assert proc.returncode == 2


class TestScan:
    def test_small_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        # P3, C4, K_{1,3}: all bounds hold, at least two tight cases
        corpus.write_text("# comment line\nBg\nCl\nCF\n")
        out = tmp_path / "out.jsonl"
        assert main(["scan", str(corpus), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert all(not r["status"].startswith(("VIOLATION", "COUNTEREXAMPLE"))
                   for r in records)
        assert sum(r["status"] == "NEAR-TIGHT" for r in records) >= 2

    def test_complete_and_malformed_lines(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bw\n!!!bad\n")
        out = tmp_path / "out.jsonl"
        assert main(["scan", str(corpus), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["status"] == "SKIPPED(complete)"
        assert records[1]["status"] == "SKIPPED(parse)"

    def test_missing_file(self):
        proc = run_cli("scan", "/nonexistent/corpus.g6")
        assert proc.returncode == 2

    def test_csv_format(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n")
        out = tmp_path / "out.csv"
        assert main(["scan", str(corpus), "--format", "csv",
                     "--output", str(out)]) == 0
        row = out.read_text().splitlines()[0].split(",")
        assert row[0] == "Bg" and row[1] == "3"

    def test_jobs_determinism(self, tmp_path):
        gen = run_cli("gen", "gnp", "9", "0.5", "--seed", "11",
                      "--count", "40", "--output", str(tmp_path / "c.g6"))
        assert gen.returncode == 0
        r1 = run_cli("scan", str(tmp_path / "c.g6"), "--jobs", "1",
                     "--output", str(tmp_path / "a.jsonl"))
        r4 = run_cli("scan", str(tmp_path / "c.g6"), "--jobs", "4",
                     "--output", str(tmp_path / "b.jsonl"))
        assert r1.returncode == 0 and r4.returncode == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestHunt:
    def test_kss1(self, tmp_path):
        out = tmp_path / "findings.json"
        assert main(["hunt", "kss1:2..6", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scanned"] == 5
        assert doc["bd0_counterexamples"] == []
        ratios = [h["ratio"] for h in doc["non_hamiltonian_frontier"]["history"]]
        assert ratios == sorted(ratios)
        assert doc["non_hamiltonian_frontier"]["ratio"] == pytest.approx(6 / 13, abs=1e-9)

    def test_gnp_hunt(self, tmp_path):
        out = tmp_path / "findings.json"
        assert main(["hunt", "gnp:8,0.5", "--seed", "3", "--count", "25",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scanned"] == 25
        assert doc["bd0_counterexamples"] == []


class TestGen:
    def test_cycle_range(self, capsys):
        assert main(["gen", "cycle", "3..6"]) == 0
        lines = capsys.readouterr().out.split()
        assert len(lines) == 4
        assert parse_graph6(lines[0]).n == 3

    def test_petersen_round_trip(self, capsys):
        assert main(["gen", "petersen"]) == 0
        g = parse_graph6(capsys.readouterr().out.strip())
        assert g.n == 10 and all(d == 3 for d in g.degrees())

    def test_gnp_reproducible(self, capsys):
        assert main(["gen", "gnp", "8", "0.5", "--seed", "7", "--count", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "gnp", "8", "0.5", "--seed", "7", "--count", "10"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.split()) == 10

    def test_unknown_family(self):
        proc = run_cli("gen", "dodecahedron")
        assert proc.returncode == 2


def test_scan_lines_cap_skips_toughness():
    records = scan_lines(["IheA@GUAo"], config=ScanConfig(cap_toughness=8))
    assert records[0]["toughness"] is None
    assert records[0]["bd0"] == pytest.approx(1.0, abs=1e-9)
    assert records[0]["status"] == "UNCHECKED(cap)"
    records = scan_lines(["IheA@GUAo"], config=ScanConfig(no_toughness=True))
    assert records[0]["status"] == "UNCHECKED(no-toughness)"
