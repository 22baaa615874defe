"""Build script: compiles the optional bitset kernel library.

bitset.c builds into a shared library that spectough._kernels loads
with ctypes.  If no C compiler is available the build falls back to a
pure-Python install; spectough._kernels then selects the reference
implementation at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible, otherwise install pure-Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing / broken toolchain
            print(f"warning: skipping compiled kernels ({exc}); "
                  "using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not compile {ext.name} ({exc}); "
                  "using pure-Python fallback")


KERNELS = Extension("spectough._kernels._bitset",
                    ["src/spectough/_kernels/bitset.c"],
                    extra_compile_args=["-O3"])

setup(ext_modules=[KERNELS], cmdclass={"build_ext": OptionalBuildExt})
