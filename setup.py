"""Build script: compiles the optional alignment kernel.

_dpkernel.c is plain C that phonoscope._dpcore loads through ctypes, not
a CPython extension module; it is declared as an Extension only so that
setuptools compiles it and installs the library next to the package.
When this build is skipped or fails, the first import compiles the
source into __pycache__ instead, and without a C compiler
phonoscope.alignment falls back to the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "phonoscope._dpkernel",
            ["src/phonoscope/_dpkernel.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
