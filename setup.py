"""Build script: compiles the optional bitset kernel library.

bitset.c builds into a shared library that spectough._kernels loads
with ctypes.  If no C compiler is available the build falls back to a
pure-Python install; spectough._kernels then selects the reference
implementation at import time.

An in-place build (``build_ext --inplace``) also byte-compiles the
package into ``__pycache__``, so a source checkout starts from bytecode
even where the interpreter never writes it (PYTHONDONTWRITEBYTECODE).
The bytecode is hash-checked (PEP 552): an edited module is recompiled
from source at import, never run stale.
"""

import compileall
import os
import py_compile

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "src", "spectough")


class OptionalBuildExt(build_ext):
    """Build the extension if possible, otherwise install pure-Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing / broken toolchain
            print(f"warning: skipping compiled kernels ({exc}); "
                  "using pure-Python fallback")
        if self.inplace:
            compile_bytecode()

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not compile {ext.name} ({exc}); "
                  "using pure-Python fallback")


def compile_bytecode() -> None:
    """Write hash-checked bytecode for every module of the package; a
    failure only costs start-up time, so it never fails the build."""
    try:
        # force: replace any timestamp-checked bytecode an import wrote
        if compileall.compile_dir(
                PACKAGE, quiet=1, force=True,
                invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH):
            return
        reason = "a module did not compile"
    except Exception as exc:
        reason = exc
    print(f"warning: could not byte-compile {PACKAGE} ({reason}); "
          "modules compile from source at each start")


KERNELS = Extension("spectough._kernels._bitset",
                    ["src/spectough/_kernels/bitset.c"],
                    extra_compile_args=["-O3"])

setup(ext_modules=[KERNELS], cmdclass={"build_ext": OptionalBuildExt})
