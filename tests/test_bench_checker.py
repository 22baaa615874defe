"""The benchmark's output checker (perfbench/check.py) has its own test,
perfbench/selftest.py, which feeds it records from ``analyze_graph``;
running it here shows that the checker still accepts today's records and
still fails corrupted ones."""

import subprocess
import sys

import pytest

from tests.conftest import ROOT

pytest.importorskip("networkx")  # the self-test builds its graphs with it


def test_checker_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("checker tests passed\n")
