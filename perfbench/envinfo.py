"""The environment header printed with every result.

BLAS threads are reported, never pinned: how many threads the numeric
payload runs on is part of what the benchmark measures.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np

__all__ = ["environment"]

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas():
    """Handles of BLAS libraries numpy bundles that are already loaded."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    handles = []
    for path in sorted(libs_dir.glob("*blas*")):
        try:
            handles.append(ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY))
        except OSError:
            continue
    return handles


def _call(handles, symbols, restype):
    for handle in handles:
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def _blas_build_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(seed: int, workload: str, sizes: dict) -> dict:
    """Machine, libraries and run parameters, as one JSON-able dict."""
    handles = _loaded_blas()
    config = _call(handles, _CONFIG_SYMBOLS, ctypes.c_char_p)
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas": {
            **_blas_build_info(),
            "runtime_config": config.decode() if config else None,
            "live_threads": _call(handles, _THREAD_SYMBOLS, ctypes.c_int),
            "env": {
                key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
