import contextlib
import csv
import errno
import json
import multiprocessing
import os
import selectors
import subprocess
import sys
import textwrap
import time

import pytest

from spectough import cli, scan, structures
from spectough.cli import main
from spectough.graphs import parse_graph6
from spectough.scan import CSV_COLUMNS, ScanConfig, scan_lines
from tests.conftest import CLI_ENV

# Runs argv[1:] and prints its exit code and peak RSS in KiB.  A process
# inherits the high-water RSS of the one that forked it, so the CLI is
# started from this small launcher rather than from pytest.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "spectough", *argv],
                          capture_output=True, text=True, env=CLI_ENV)
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

    def test_oracle_cap_alone_bounds_spanning_tree(self, capsys):
        # n = 18 is above the default oracle cap but has no own limit for
        # the spanning-tree oracle, so --cap-oracle 20 lets it run.
        assert main(["analyze", "--family", "cycle:18", "--cap-oracle", "20",
                     "--cap-toughness", "0", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["oracle_results"] == {"spanning-tree-max-degree[k=35]": True}
        assert rec["status"] == "UNCHECKED(cap)"

    def test_bad_input_exits_2(self, capsys):
        for argv in (["~~~"], [">>graph6<<"], ["--family", "cycle:5..3"],
                     ["--family", "cycle:70"], ["--family", "petersen:7"],
                     ["--family", "complete_multipartite:3,,4"],
                     ["--family", "complete_multipartite:3,4,"]):
            proc = run_cli("analyze", *argv)
            assert proc.returncode == 2, argv
            assert proc.stderr.strip(), argv
            assert "internal error" not in proc.stderr, argv
        # a family graph too large to encode is bad input, not a crash
        assert main(["analyze", "--family", "cycle:70"]) == 2
        assert capsys.readouterr().err == (
            "analyze: order 70 exceeds the short-form limit 62\n")

    def test_both_inputs_is_usage_error(self):
        proc = run_cli("analyze", "Bw", "--family", "petersen")
        assert proc.returncode == 2

    def test_violation_exits_1(self, monkeypatch, capsys):
        real = scan.analyze_graph

        def violated(*args, **kwargs):
            rec = real(*args, **kwargs)
            rec["status"] = "VIOLATION(bd1)"
            return rec

        monkeypatch.setattr(scan, "analyze_graph", violated)
        assert main(["analyze", "Cl", "--format", "json"]) == 1
        assert "PROVEN BOUND VIOLATED" in capsys.readouterr().err

    def test_internal_value_error_exits_3(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(scan, "analyze_graph", broken)
        assert main(["analyze", "Cl"]) == 3
        assert "internal error: injected" in capsys.readouterr().err


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
        corpus.write_text("Bw\n!!!bad\n>>graph6<<\nCl\n")
        out = tmp_path / "out.jsonl"
        assert main(["scan", str(corpus), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in records] == [
            "SKIPPED(complete)", "SKIPPED(parse)", "SKIPPED(parse)", "NEAR-TIGHT"]

    def test_missing_file(self):
        proc = run_cli("scan", "/nonexistent/corpus.g6")
        assert proc.returncode == 2

    def test_csv_format(self, tmp_path):
        lines = ["Bg", "a,b", 'a"b', "Cl"]
        corpus = tmp_path / "c.g6"
        corpus.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out.csv"
        assert main(["scan", str(corpus), "--format", "csv",
                     "--output", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * len(lines)
        assert [row[0] for row in rows] == lines
        assert rows[0][1] == "3"
        assert [row[-1] for row in rows[1:3]] == ["SKIPPED(parse)"] * 2
        assert out.read_text().splitlines()[3].startswith("Cl,4,4,")

    def test_jobs_determinism(self, tmp_path):
        gen = run_cli("gen", "gnp", "9", "0.5", "--seed", "11",
                      "--count", "40", "--output", str(tmp_path / "c.g6"))
        assert gen.returncode == 0
        r1 = run_cli("scan", str(tmp_path / "c.g6"), "--jobs", "1",
                     "--output", str(tmp_path / "a.jsonl"))
        assert r1.returncode == 0
        for jobs in ("2", "4"):
            out = tmp_path / f"j{jobs}.jsonl"
            rj = run_cli("scan", str(tmp_path / "c.g6"), "--jobs", jobs,
                         "--output", str(out))
            assert rj.returncode == 0
            assert out.read_bytes() == (tmp_path / "a.jsonl").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["scan", "c.g6", "--jobs", "1"],
        ["scan", "c.g6", "--jobs", "2"],
        ["gen", "gnp", "10", "0.5", "--count", "20000"],
    ], ids=["1", "2", "gen"])
    def test_closed_stdout_exits_141(self, tmp_path, argv):
        (tmp_path / "c.g6").write_text("Bg\nCl\nCF\nBw\n" * 750)
        proc = subprocess.Popen(
            [sys.executable, "-m", "spectough", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV)
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()  # like `| head -c 300`
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, err
        assert "internal error" not in err and "Exception ignored" not in err

    def test_jobs_below_one_is_usage_error(self, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n")
        assert main(["scan", str(corpus), "--jobs", "0"]) == 2
        assert main(["hunt", str(corpus), "--jobs", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["hunt", "kss1:2", "--budget", "-1"],
        ["hunt", "gnp:8,0.5", "--count", "-1"],
        ["gen", "gnp", "8", "0.5", "--count", "-2"],
        ["analyze", "Cl", "--cap-oracle", "-3", "--cap-toughness", "-1"],
        ["scan", "missing.g6", "--cap-oracle", "-3"],
        ["hunt", "kss1:2", "--cap-toughness", "-1"],
    ], ids=["hunt-budget", "hunt-count", "gen-count", "analyze-caps",
            "scan-cap-oracle", "hunt-cap-toughness"])
    def test_negative_count_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        flag = argv[-2]
        assert out == ""
        assert err == f"{argv[0]}: {flag} must be at least 0\n"

    @pytest.mark.parametrize("argv", [
        ["scan", "--jobs", "1"], ["scan", "--jobs", "2"], ["hunt"],
    ], ids=["1", "2", "hunt"])
    def test_undecodable_bytes_skip_one_line(self, tmp_path, capsys, argv):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"Bg\n\xff\xfe\nCl\n")
        out = tmp_path / "out.json"
        assert main([argv[0], str(corpus), *argv[1:],
                     "--output", str(out)]) == 0
        assert "internal error" not in capsys.readouterr().err
        if argv[0] == "hunt":
            assert json.loads(out.read_text())["scanned"] == 3
            return
        records = [json.loads(row) for row in out.read_text().splitlines()]
        assert [r["status"] for r in records] == [
            "NEAR-TIGHT", "SKIPPED(parse)", "NEAR-TIGHT"]
        assert records[1]["graph6"] == "\ufffd\ufffd"

    def test_unwritable_output_fails_before_analysis(self, tmp_path,
                                                     monkeypatch):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n")
        calls = []

        def draw(*args, **kwargs):  # records a draw, not the spec check
            calls.append(args)
            yield from ()

        monkeypatch.setattr(scan, "analyze_graph",
                            lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "generate_family", draw)
        out = tmp_path / "missing-dir" / "out.jsonl"
        assert main(["scan", str(corpus), "--output", str(out)]) == 2
        assert main(["hunt", str(corpus), "--jobs", "1",
                     "--output", str(out)]) == 2
        assert main(["gen", "cycle", "3..6", "--output", str(out)]) == 2
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["scan", "--jobs", "1"],
        pytest.param(["scan", "--jobs", "2"], marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="workers see the patched analyzer only when forked")),
        ["hunt", "--jobs", "1"],
    ], ids=["1", "2", "hunt"])
    def test_one_bad_graph_keeps_the_rest(self, tmp_path, monkeypatch, capsys,
                                          argv):
        lines = ["Bg", "Cl", "CF", "Bw"] * 10
        bad = 17
        lines.insert(bad, "Dhc")  # C5, the only line the analyzer fails on
        real = scan.analyze_graph

        def faulty(g, g6=None, config=ScanConfig()):
            if g6 == "Dhc":
                raise ZeroDivisionError("injected")
            return real(g, g6=g6, config=config)

        corpus = tmp_path / "c.g6"
        corpus.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out.jsonl"
        monkeypatch.setattr(scan, "analyze_graph", faulty)
        assert main([argv[0], str(corpus), *argv[1:],
                     "--output", str(out)]) == 3
        assert "ERROR(ZeroDivisionError) on Dhc: injected" in capsys.readouterr().err
        if argv[0] == "hunt":
            assert json.loads(out.read_text())["scanned"] == len(lines)
            return
        records = [json.loads(row) for row in out.read_text().splitlines()]
        assert [r["graph6"] for r in records] == lines
        assert [r["status"].startswith("ERROR") for r in records].count(True) == 1
        assert records[bad]["status"] == "ERROR(ZeroDivisionError)"
        assert records[bad]["error"] == "injected"
        assert (records[bad]["n"], records[bad]["edges"]) == (5, 5)

    def test_findings_ok_never_waives_a_violation(self, tmp_path, monkeypatch,
                                                  capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n")
        real = scan.analyze_graph

        def with_status(status):
            def analyze(*args, **kwargs):
                rec = real(*args, **kwargs)
                rec["status"] = status
                return rec
            return analyze

        # --jobs 1: the patched analyzer runs in this process
        for command in ("scan", "hunt"):
            argv = [command, str(corpus), "--jobs", "1", "--findings-ok"]
            monkeypatch.setattr(scan, "analyze_graph",
                                with_status("COUNTEREXAMPLE(bd0)"))
            assert main(argv[:-1]) == 1
            assert main(argv) == 0
            monkeypatch.setattr(scan, "analyze_graph",
                                with_status("VIOLATION(bd1)"))
            assert main(argv) == 1
            assert "PROVEN BOUND VIOLATED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "hunt"])
    def test_refuted_oracle_is_a_violation(self, tmp_path, monkeypatch, capsys,
                                           command):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Cl\n")  # C4: its guarantees start with "elementary"
        monkeypatch.setattr(structures, "verify_guarantee",
                            lambda *a, **k: False)
        assert main([command, str(corpus), "--jobs", "1",
                     "--findings-ok"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert "PROVEN BOUND VIOLATED" in err[0]
        assert json.loads(err[1])["status"] == "VIOLATION(elementary)"

    def test_peak_rss_flat_in_corpus_length(self, tmp_path):
        for count in (1000, 100_000):
            (tmp_path / f"bw{count}.g6").write_text("Bw\n" * count)
        for command in ("scan", "hunt"):
            peaks = []
            for count in (1000, 100_000):
                proc = subprocess.run(
                    [sys.executable, "-c", LAUNCHER, sys.executable, "-m",
                     "spectough", command, str(tmp_path / f"bw{count}.g6")],
                    capture_output=True, text=True, env=CLI_ENV, check=True)
                code, peak_kib = map(int, proc.stdout.split())
                assert code == 0
                peaks.append(peak_kib / 1024)
            assert abs(peaks[1] - peaks[0]) < 10, (command, peaks)

    # At --jobs 2 every record too must come while the corpus is open,
    # not once the pool has a whole chunk of lines.
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_stdout_records_stream_to_a_pipe(self, tmp_path, jobs):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        fifo = tmp_path / "corpus.g6"
        os.mkfifo(fifo)
        env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "spectough", "scan", str(fifo),
             "--jobs", jobs],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        deadline = time.monotonic() + 60
        try:
            while True:  # a FIFO opens for writing once the scan reads it
                try:
                    feed = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
            # the corpus is still open, so only a streamed record arrives;
            # at --jobs 2 the second comes from the pool
            got = b""
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                for count, line in enumerate((b"Bg\n", b"Cl\n"), 1):
                    os.write(feed, line)
                    while (got.count(b"\n") < count
                           and sel.select(deadline - time.monotonic())):
                        chunk = os.read(proc.stdout.fileno(), 1 << 16)
                        if not chunk:
                            break
                        got += chunk
                    assert got.count(b"\n") == count, (
                        f"record {count} missing while the corpus is open")
            assert [json.loads(row)["graph6"]
                    for row in got.splitlines()] == ["Bg", "Cl"]
            os.close(feed)
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_stdout_flushes_are_batched_for_a_regular_corpus(
            self, tmp_path, monkeypatch):
        class Out:
            flushes = 0

            def flush(self):
                self.flushes += 1

        clock = [100.0]
        monkeypatch.setattr(cli.time, "monotonic", lambda: clock[0])
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n")
        out = Out()
        with open(corpus) as fh:
            flush = cli._record_flusher(out, cli._can_block(fh))
            counts = []
            for t in (100.0, 100.01, 100.049, 100.05, 100.2):
                clock[0] = t
                flush()
                counts.append(out.flushes)
        # the first record at once, then at most one flush per interval
        assert cli.STREAM_FLUSH_S == 0.05
        assert counts == [1, 1, 1, 2, 3]
        read, write = os.pipe()
        os.close(write)
        out = Out()
        with os.fdopen(read) as fh:  # a corpus that can block
            flush = cli._record_flusher(out, cli._can_block(fh))
            for _ in range(3):
                flush()
        assert out.flushes == 3

    @pytest.mark.parametrize("argv", [
        ["scan", "c.g6", "--output", "{dir}/c.g6"],
        ["hunt", "kss1:2", "{dir}/c.g6", "--jobs", "1", "--output", "./c.g6"],
        ["hunt", "file:c.g6", "--jobs", "1", "--output", "c.g6"],
    ], ids=["scan", "hunt", "hunt-file"])
    def test_output_naming_an_input_exits_2(self, tmp_path, monkeypatch,
                                            capsys, argv):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"Bg\nCl\n")
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert corpus.read_bytes() == b"Bg\nCl\n"
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"{argv[0]}: --output ") and "input file" in err


# One OS-error policy: main reports any OSError as "<command>: <error>"
# and exits 2, whichever command and whichever file it came from.
@pytest.mark.parametrize("argv", [
    ["scan", "--jobs", "1"], ["scan", "--jobs", "2"], ["hunt", "--jobs", "1"],
], ids=["scan-1", "scan-2", "hunt"])
def test_corpus_read_error_exits_2(tmp_path, monkeypatch, capsys, argv):
    def lines():
        yield from ("Bg\n", "Cl\n")
        raise OSError(errno.EIO, os.strerror(errno.EIO))  # the third read

    monkeypatch.setattr(cli, "_open_corpus",
                        lambda path: contextlib.nullcontext(lines()))
    out = tmp_path / "out.jsonl"
    assert main([argv[0], str(tmp_path / "c.g6"), *argv[1:],
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]}: [Errno {errno.EIO}]" in err
    assert "internal error" not in err
    if argv[0] == "scan":
        assert [json.loads(row)["graph6"]
                for row in out.read_text().splitlines()] == ["Bg", "Cl"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["scan", "c.g6", "--output", "/dev/full"],
    ["hunt", "c.g6", "--jobs", "1", "--output", "/dev/full"],
    ["gen", "cycle", "3..6", "--output", "/dev/full"],
    ["analyze", "Cl"],
], ids=["scan", "hunt", "gen", "analyze-stdout"])
def test_full_device_exits_2(tmp_path, argv):
    (tmp_path / "c.g6").write_text("Bg\nCl\nCF\n")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "spectough", *argv],
                              cwd=tmp_path, stdout=full, stderr=subprocess.PIPE,
                              text=True, env=CLI_ENV)
    assert proc.returncode == 2, proc.stderr
    assert f"{argv[0]}: [Errno {errno.ENOSPC}]" in proc.stderr
    assert "internal error" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# Imports the CLI, then scans at --jobs 1 in the same process, and prints
# which of the named modules each step loaded: slow stdlib modules, and
# numpy and networkx, which only the tests use (the runtime is stdlib-only).
STARTUP_PROBE = textwrap.dedent("""
    import sys
    heavy = {"csv", "dataclasses", "multiprocessing", "numpy", "networkx"}
    before = set(sys.modules)
    from spectough.cli import main
    print(sorted(heavy & (set(sys.modules) - before)))
    assert main(["scan", sys.argv[1], "--jobs", "1", "--output", sys.argv[2]]) == 0
    print(sorted(heavy & (set(sys.modules) - before)))
""")


def test_cli_start_loads_no_csv_dataclasses_or_multiprocessing(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("Bg\nCl\nCF\n")
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(corpus),
         str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 3


# Runs a --jobs 2 scan of one graph and a --jobs 2 hunt of none, takes
# the first record of a pooled scan_lines and then the rest, and prints
# after each step whether multiprocessing has been loaded.
POOLED_STARTUP_PROBE = textwrap.dedent("""
    import sys
    from spectough.cli import main
    from spectough.scan import scan_lines
    corpus, out = sys.argv[1:]
    assert main(["scan", corpus, "--jobs", "2", "--output", out]) == 0
    assert main(["hunt", corpus, "--jobs", "2", "--budget", "0",
                 "--output", out + ".hunt"]) == 0
    print("multiprocessing" in sys.modules)
    lines = ["Bg", "Cl", "CF", "Bw", "Dhc"] * 8
    records = scan_lines(lines, jobs=2)
    first = next(records)
    print("multiprocessing" in sys.modules)
    assert [first, *records] == list(scan_lines(lines, jobs=1))
    print("multiprocessing" in sys.modules)
""")


def test_pooled_scan_yields_its_first_record_before_the_pool_starts(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("Bg\n")
    out = tmp_path / "out.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", POOLED_STARTUP_PROBE, str(corpus), str(out)],
        capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    # the last line shows that the rest of the stream went through a pool
    assert proc.stdout.splitlines() == ["False", "False", "True"]
    assert len(out.read_text().splitlines()) == 1


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

    def test_budget_cuts_expansion(self, tmp_path, monkeypatch):
        drawn = []
        real = cli.generate_family

        def counted(*args, **kwargs):
            for g in real(*args, **kwargs):
                drawn.append(g)
                yield g

        monkeypatch.setattr(cli, "generate_family", counted)
        out = tmp_path / "findings.json"
        assert main(["hunt", "kss1:2..4", "gnp:10,0.5", "--count", "50000",
                     "--budget", "5", "--output", str(out)]) == 0
        assert len(drawn) == 5
        assert json.loads(out.read_text())["scanned"] == 5

    def test_corpus_file_skips_bad_lines(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bg\n!!!bad\n>>graph6<<\nCl\n")
        assert main(["hunt", str(corpus)]) == 0
        assert json.loads(capsys.readouterr().out)["scanned"] == 4

    def test_file_prefix_names_a_corpus(self, tmp_path, monkeypatch, capsys):
        # no '/' and no .g6 suffix: only the prefix makes this a path
        (tmp_path / "corpus.txt").write_text("Bg\nCl\n")
        monkeypatch.chdir(tmp_path)
        assert main(["hunt", "file:corpus.txt", "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["scanned"] == 2

    def test_frontier_needs_no_search_below_toughness_one(self, capsys,
                                                          monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("Hamilton search ran")

        # Every K_{s,s+1} has toughness s/(s+1) < 1, so its cut proves it
        # non-Hamiltonian.
        monkeypatch.setattr(structures, "has_hamilton_cycle", no_search)
        assert main(["hunt", "kss1:2..6"]) == 0
        frontier = json.loads(capsys.readouterr().out)["non_hamiltonian_frontier"]
        assert frontier["ratio"] == pytest.approx(6 / 13, abs=1e-9)
        assert len(frontier["history"]) == 5

    def test_bad_spec_fails_before_analysis(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(scan, "analyze_graph",
                            lambda *a, **k: calls.append(a))
        for argv in (["kss1:2..4", "dodecahedron"],
                     ["kss1:2", str(tmp_path / "missing.g6")],
                     ["gnp:10,1.5", "kss1:2"]):
            assert main(["hunt", *argv, "--jobs", "1"]) == 2
        assert calls == []

    def test_draw_failure_exits_2_in_parallel(self, capsys):
        # gnp:10,1.5 fails only when its first graph is drawn.  The scan
        # reads the first two lines in this process (it analyzes one and
        # checks that a pool is needed), so here the failing draw comes
        # third, in the thread that feeds the worker pool.
        assert main(["hunt", "kss1:2..3", "gnp:10,1.5", "--jobs", "2"]) == 2
        assert capsys.readouterr().err.startswith("hunt: ")


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


# hunt and gen read every spec before they open --output, so a typo in
# a spec leaves an existing file as it was.
@pytest.mark.parametrize("argv", [
    ["hunt", "kss1:2", "dodecahedron", "--jobs", "1"],
    ["hunt", "kss1:2", "missing.g6", "--jobs", "1"],
    ["gen", "dodecahedron"],
    ["gen", "petersen", "9"],
    ["hunt", "petersen:oops", "--jobs", "1"],
    ["gen", "complete_multipartite", "3,,4"],
    ["hunt", "complete_multipartite:3,4,", "--jobs", "1"],
], ids=["hunt", "hunt-missing-corpus", "gen", "gen-petersen-param",
        "hunt-petersen-param", "gen-empty-part", "hunt-empty-part"])
def test_bad_spec_keeps_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    kept = tmp_path / "keep"
    kept.write_bytes(b"earlier output\n")
    assert main([*argv, "--output", str(kept)]) == 2
    assert kept.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_lines_reading_failure_comes_after_earlier_records(jobs):
    def lines(good):
        yield from good
        raise ValueError("unreadable")

    # a failure on the first read, on the second (both are made before a
    # pool starts) and on a later one
    for good in ([], ["Bg"], ["Bg", "Cl", "CF", "Bw", "Dhc", "Bg"]):
        seen = []
        with pytest.raises(ValueError, match="unreadable"):
            for rec in scan_lines(lines(good), jobs=jobs):
                seen.append(rec["graph6"])
        assert seen == good


def test_scan_lines_cap_skips_toughness():
    records = list(scan_lines(["IheA@GUAo"], config=ScanConfig(cap_toughness=8)))
    assert records[0]["toughness"] is None
    assert records[0]["bd0"] == pytest.approx(1.0, abs=1e-9)
    assert records[0]["status"] == "UNCHECKED(cap)"
    records = list(scan_lines(["IheA@GUAo"], config=ScanConfig(cap_toughness=0)))
    assert records[0]["certificate"] is None
    assert records[0]["status"] == "UNCHECKED(cap)"
