"""The record stamped on every result: machine, Python, numpy, BLAS and git.

Importing this module does not import numpy, so `cap_blas_threads` can run
before anything else loads a BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap every BLAS thread variable at nproc, keeping lower settings."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = n
        os.environ[var] = str(min(max(wanted, 1), n))
    return n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = _openblas_threads()
    return {
        "vendor": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def git_state(root: Path) -> dict:
    """HEAD sha and dirty flag; both unknown outside a git checkout."""
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def stamp(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git": git_state(root),
    }
