"""The kernels a bit-exact guard ran on, named in its failure message.

A recorded digest pins the floats of one set of kernels: numpy's SIMD
dispatch level and the OpenBLAS core chosen at run time for the CPU. On a
host that runs other kernels a digest can fail on correct code, so each
guard names both, and such a failure can be told apart from a regression.
The recorded digests pass under numpy SIMD AVX512_SPR with OpenBLAS core
SkylakeX (numpy 2.4 on x86-64).
"""

import ctypes
import glob
import os

import numpy as np


def _simd_level() -> str:
    """The highest dispatch target numpy enabled on this CPU, or its
    baseline when it enabled none."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "unknown"
    features = getattr(umath, "__cpu_features__", {})
    enabled = [name for name in getattr(umath, "__cpu_dispatch__", ())
               if features.get(name)]
    levels = enabled or list(getattr(umath, "__cpu_baseline__", ()))
    return levels[-1] if levels else "unknown"


def _openblas_core() -> str:
    """The core the OpenBLAS bundled with numpy picked for this CPU."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_report() -> str:
    """For example ``numpy SIMD AVX512_SPR, OpenBLAS core SkylakeX``."""
    return f"numpy SIMD {_simd_level()}, OpenBLAS core {_openblas_core()}"
