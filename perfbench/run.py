#!/usr/bin/env python3
"""End-to-end benchmark of the spectough CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Each run builds the optional
kernel extension once per checkout (``setup.py build_ext --inplace``,
failure tolerated), builds the workload's input from the seed in a fresh
interpreter five times (``setup_s`` is the median), then:

* ``--trace 0``: launches the CLI on the whole input, one process per
  round, for as many whole rounds as fit in ``--seconds`` (at least
  one), and reports the end-to-end metrics as medians over the rounds;
* ``--trace 1``: runs the same command in this process at ``--jobs 1``
  with spans around each layer and reports the per-layer metrics.

Every output is checked (see check.py).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# No CLI process may outlive this many seconds, so a run ends in time.
CLI_DEADLINE_S = 150.0
# corpus-j2 output is compared byte for byte with a --jobs 1 run over
# every J1_SAMPLE_EVERY-th input line.
J1_SAMPLE_EVERY = 8

END_TO_END = {"graphs_per_s": "graphs/s", "cpu_ms_per_graph": "ms",
              "first_output_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


@dataclass
class CliRun:
    returncode: int
    wall_s: float
    first_output_s: float
    cpu_s: float
    maxrss_mib: float
    stdout: bytes


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv: list[str], stderr_path: str) -> CliRun:
    """One closed-loop CLI run, timed from launch to exit.

    CPU time and peak RSS come from wait4, which covers the process and
    every worker it waited for.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "spectough", *argv],
                                stdout=subprocess.PIPE, stderr=err,
                                env=cli_env(), cwd=ROOT)
    first = None
    chunks = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = CLI_DEADLINE_S - (time.perf_counter() - start)
                if left <= 0 or not sel.select(left):
                    proc.kill()
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter() - start
                chunks.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return CliRun(returncode=proc.returncode, wall_s=wall,
                  first_output_s=wall if first is None else first,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  maxrss_mib=usage.ru_maxrss / 1024, stdout=b"".join(chunks))


def build_extension() -> None:
    """Build the optional extension the way setup.py does, once per checkout."""
    marker = os.path.join(OUT, "build_ext.log")
    if os.path.exists(marker):
        return
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840)
        log = f"exit {proc.returncode}\n".encode() + proc.stdout
    except subprocess.TimeoutExpired as exc:
        log = b"timed out\n" + (exc.output or b"")
    with open(marker, "wb") as fh:
        fh.write(log)


def setup(workload: str, seed: int, work: str) -> tuple[dict, float]:
    """Build the input in a fresh interpreter; returns (plan, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", work], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    with open(os.path.join(work, "plan.json")) as fh:
        return json.load(fh), statistics.median(times)


def read_lines(plan: dict) -> list[str]:
    with open(plan["input"]) as fh:
        return [line.strip() for line in fh]


class Verdicts:
    """Counts graphs attempted and failed.  An output byte-identical to
    one already checked shares its verdict."""

    def __init__(self, plan: dict, work: str):
        self.plan = plan
        self.work = work
        self.lines = read_lines(plan) if plan["kind"] == "scan" else None
        self.seen: dict[bytes, list[str]] = {}
        self.j1_reference: list[bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, returncode: int, out: bytes) -> None:
        graphs = self.plan["graphs"]
        self.attempted += graphs
        if returncode != 0:
            self.fail([f"CLI exited with {returncode}"] * graphs)
        elif self.plan["kind"] == "scan":
            if out not in self.seen:
                self.seen[out] = self.check_scan(out)
            self.fail(self.seen[out])
        else:
            whole, each = check.check_hunt(out, graphs)
            self.fail(whole[:1] * graphs if whole else each)

    def fail(self, reasons: list[str]) -> None:
        self.failed += len(reasons)
        self.reasons += reasons

    def check_scan(self, out: bytes) -> list[str]:
        per_line = check.check_scan(self.lines, out)
        if self.plan["workload"] == "corpus-j2":
            rows = out.split(b"\n")
            for i, row in self.j1_sample():
                if not per_line[i] and (i >= len(rows) or rows[i] != row):
                    per_line[i] = [f"record {i} differs from --jobs 1"]
        return [r[0] for r in per_line if r]

    def j1_sample(self) -> list[tuple[int, bytes]]:
        """(line index, record) from a --jobs 1 run over every
        J1_SAMPLE_EVERY-th line; records depend only on their line."""
        sample = range(0, len(self.lines), J1_SAMPLE_EVERY)
        if self.j1_reference is None:
            path = os.path.join(self.work, "j1-sample.g6")
            with open(path, "w") as fh:
                fh.write("".join(self.lines[i] + "\n" for i in sample))
            ref = run_cli(["scan", path, "--jobs", "1"],
                          os.path.join(self.work, "j1-sample.err"))
            self.j1_reference = (ref.stdout.split(b"\n") if ref.returncode == 0
                                 else [])
        return [(i, self.j1_reference[k] if k < len(self.j1_reference) else None)
                for k, i in enumerate(sample)]


def timed_rounds(plan: dict, seconds: int, work: str, verdicts: Verdicts,
                 deadline: float) -> dict[str, float]:
    runs: list[CliRun] = []
    start = time.perf_counter()
    # Another round starts only if it should end within --seconds.
    while not runs or (time.perf_counter() - start + runs[-1].wall_s <= seconds
                       and time.perf_counter() + runs[-1].wall_s < deadline):
        runs.append(run_cli(plan["argv"], os.path.join(work, "cli.err")))
    for run in runs:
        verdicts.add(run.returncode, run.stdout)
    graphs = plan["graphs"]
    return {
        "graphs_per_s": statistics.median(graphs / r.wall_s for r in runs),
        "cpu_ms_per_graph": statistics.median(r.cpu_s * 1e3 / graphs for r in runs),
        "first_output_s": statistics.median(r.first_output_s for r in runs),
        "peak_rss_mib": statistics.median(r.maxrss_mib for r in runs),
    }


def traced_round(plan: dict, work: str, verdicts: Verdicts) -> dict[str, float]:
    from spectough import (KERNEL_BACKEND, bounds, cli, scan, spectra,
                           structures, toughness)

    modules = {"scan": scan, "spectra": spectra, "toughness": toughness,
               "bounds": bounds, "structures": structures, "cli": cli}
    argv = list(plan["argv"])
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    out_path = os.path.join(work, "traced.out")
    if os.path.exists(out_path):
        os.remove(out_path)
    tracer = spans.Tracer()
    missing = tracer.install(modules)
    for name in missing:
        print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)
    start = time.perf_counter()
    try:
        returncode = cli.main(argv + ["--output", out_path])
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - start
    output = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            output = fh.read()
    verdicts.add(returncode, output)

    graphs = plan["graphs"]
    metrics = tracer.metrics(graphs)
    metrics.update(spans.kernel_metrics())
    metrics["cli.import_s"] = statistics.median(
        import_seconds() for _ in range(IMPORT_REPEATS))
    metrics["scan.pool.cpu_overhead_ms_per_graph"] = 0.0
    if plan["workload"] == "corpus-j2":
        cpu = {}
        for jobs in ("1", "2"):
            run = run_cli(["scan", plan["input"], "--jobs", jobs],
                          os.path.join(work, "pool.err"))
            verdicts.add(run.returncode, run.stdout)
            cpu[jobs] = run.cpu_s * 1e3 / graphs
        metrics["scan.pool.cpu_overhead_ms_per_graph"] = cpu["2"] - cpu["1"]

    with open(os.path.join(work, "trace.json"), "w") as fh:
        json.dump({"workload": plan["workload"], "seed": plan["seed"],
                   "graphs": graphs, "traced_wall_s": traced_wall,
                   "metrics": [{"name": k, "value": v, "unit": spans.PER_LAYER[k],
                                "backend": KERNEL_BACKEND}
                               for k, v in metrics.items()],
                   "spans": tracer.spans}, fh)
    return metrics


def import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spectough.cli"], check=True,
                   env=cli_env(), cwd=ROOT)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description="spectough end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spectough", "__init__.py")):
        print(f"run.py: no spectough sources under {SRC}", file=sys.stderr)
        return 2
    # Rounds stop early enough that checks finish within three minutes.
    deadline = time.perf_counter() + 140.0
    work = os.path.join(OUT, args.workload)
    os.makedirs(work, exist_ok=True)
    build_extension()
    sys.path.insert(0, SRC)
    import spectough

    print(f"kernel backend: {spectough.KERNEL_BACKEND}")
    plan, setup_s = setup(args.workload, args.seed, work)
    verdicts = Verdicts(plan, work)
    if args.trace:
        values = traced_round(plan, work, verdicts)
        units = spans.PER_LAYER
    else:
        values = timed_rounds(plan, args.seconds, work, verdicts, deadline)
        values["setup_s"] = setup_s
        units = END_TO_END
    for reason in sorted(set(verdicts.reasons))[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    result = {"correct": verdicts.failed == 0, "attempted": verdicts.attempted,
              "failed": verdicts.failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
