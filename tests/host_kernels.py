"""The kernels a bit-exact guard ran on, named in its failure message.

A recorded digest pins the floats of one set of kernels: numpy's SIMD
dispatch level and the OpenBLAS core chosen at run time for the CPU. On a
host that runs other kernels a digest can fail on correct code, so each
guard names both, and such a failure can be told apart from a regression.
The recorded digests pass under numpy SIMD AVX512_SPR with OpenBLAS core
SkylakeX (numpy 2.4 on x86-64). The closed-form golden body calls no BLAS
and also holds under the settings of :func:`forced_kernel_settings`.
"""

import ctypes
import glob
import os

import numpy as np


def _simd_targets() -> tuple[list, list, dict]:
    """numpy's baseline targets, the dispatch targets it enabled on this
    CPU, and the CPU features it detected."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return [], [], {}
    features = getattr(umath, "__cpu_features__", {})
    enabled = [name for name in getattr(umath, "__cpu_dispatch__", ())
               if features.get(name)]
    return list(getattr(umath, "__cpu_baseline__", ())), enabled, features


def _simd_level() -> str:
    """The highest dispatch target numpy enabled on this CPU, or its
    baseline when it enabled none."""
    baseline, enabled, _ = _simd_targets()
    levels = enabled or baseline
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


# x86-64 OpenBLAS cores that a child process is forced onto, and the CPU
# features each needs.
_OTHER_CORES = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}


def forced_kernel_settings() -> dict:
    """Kernels that a child process runs on when given the environment
    variables alone, by name: ``(variables, shown, skip)``.

    ``shown`` is the part of :func:`kernel_report` that the child must then
    print, and ``skip`` is why this host cannot take the setting, or None.
    The numpy setting disables every dispatch target this process enabled,
    together with those its own ``NPY_DISABLE_CPU_FEATURES`` already
    disabled, which leaves numpy on its X86_V2 baseline. (A process that is
    itself capped enabled none, so without its own list the child would
    disable nothing.)
    """
    baseline, enabled, features = _simd_targets()
    core = _openblas_core()
    settings = {}
    for name, needs in _OTHER_CORES.items():
        missing = [feature for feature in needs if not features.get(feature)]
        skip = (f"the CPU lacks {', '.join(missing)}" if missing
                else "the bundled OpenBLAS does not report its core" if core == "unknown"
                else None)
        settings[f"openblas-{name.lower()}"] = (
            {"OPENBLAS_CORETYPE": name}, f"OpenBLAS core {name}", skip)
    skip = None if baseline[-1:] == ["X86_V2"] else f"numpy's SIMD baseline is {baseline}"
    capped = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    disabled = " ".join(dict.fromkeys(capped + enabled))
    settings["numpy-x86-v2"] = (
        {"NPY_DISABLE_CPU_FEATURES": disabled}, "numpy SIMD X86_V2", skip)
    return settings
