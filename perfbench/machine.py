"""Machine record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_bytes(level: int) -> int | None:
    try:
        value = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        value = 0
    if value > 0:
        return value
    # glibc reports 0 under some hypervisors; sysfs still has the size
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _blas() -> dict:
    """BLAS vendor and the thread count OpenBLAS actually runs with.

    The count is read from the loaded library when it exports a getter
    (no threadpoolctl); otherwise the environment and nproc are recorded.
    """
    import numpy as np

    info = {"vendor": None, "version": None, "threads": None,
            "threads_source": None,
            "env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                info["threads_source"] = symbol
                return info
    env = info["env"]
    threads = env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")
    info["threads"] = int(threads) if threads else os.cpu_count()
    info["threads_source"] = "environment" if threads else "nproc"
    return info


def _git(root: str) -> dict:
    """Commit and dirty flag; nulls when the checkout is not a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    out = {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode != 0:
            return out
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return out
    out["commit"] = commit.stdout.strip()
    out["dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    return out


def record(root: str) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_git(root),
    }
