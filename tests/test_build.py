"""The in-place build byte-compiles the package into ``__pycache__``.

Each test builds a copy of setup.py and the package, without bytecode
or a kernel library, in a temporary directory.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

from tests.conftest import ROOT


@pytest.fixture
def checkout(tmp_path):
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(os.path.join(ROOT, name), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src", "spectough"),
                    tmp_path / "src" / "spectough",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path


def build(checkout, *args):
    subprocess.run([sys.executable, "setup.py", "-q", "build_ext", *args],
                   cwd=checkout, check=True, capture_output=True)


def run_python(checkout, *args):
    """A fresh interpreter that imports the copy and never writes bytecode."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)


def test_inplace_build_writes_hash_checked_bytecode(checkout):
    build(checkout, "--inplace")
    proc = run_python(checkout, "-v", "-c", "import spectough.cli")
    package = str(checkout / "src" / "spectough")
    loaded = [path for path in re.findall(r"^# code object from '?(.*?)'?$",
                                          proc.stderr, re.MULTILINE)
              if path.startswith(package)]
    assert os.path.join(package, "__pycache__",
                        f"cli.{sys.implementation.cache_tag}.pyc") in loaded
    assert all(os.path.basename(os.path.dirname(path)) == "__pycache__"
               for path in loaded), loaded
    # Same size, same mtime: only a hash check sees that the source changed.
    init = checkout / "src" / "spectough" / "__init__.py"
    before, text = init.stat(), init.read_text()
    assert text.count('__version__ = "0.1.0"') == 1
    init.write_text(text.replace('"0.1.0"', '"9.9.9"'))
    os.utime(init, ns=(before.st_atime_ns, before.st_mtime_ns))
    proc = run_python(checkout, "-c",
                      "import spectough; print(spectough.__version__)")
    assert proc.stdout == "9.9.9\n"


def test_build_elsewhere_writes_no_bytecode_under_src(checkout):
    out = str(checkout / "out")
    build(checkout, "--build-lib", out, "--build-temp", out)
    assert not any("__pycache__" in dirs
                   for _, dirs, _ in os.walk(checkout / "src"))


def test_failed_byte_compile_never_fails_the_build(checkout):
    (checkout / "src" / "spectough" / "broken.py").write_text("def (\n")
    proc = subprocess.run([sys.executable, "setup.py", "build_ext",
                           "--inplace"], cwd=checkout, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert "warning: could not byte-compile" in proc.stdout
    assert (checkout / "src" / "spectough" / "__pycache__"
            / f"cli.{sys.implementation.cache_tag}.pyc").is_file()
