"""Environment of every process the benchmark starts."""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: every matrix is at most 70x70 and the library is
# single-threaded Python, so this is the plain single-threaded baseline.
# A fixed hash seed keeps any str-keyed set order identical across processes.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}


def worker_env(root: str) -> dict:
    """The caller's environment, the library from the checkout's source tree,
    and the thread pin."""
    env = dict(os.environ)
    env.update(PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
