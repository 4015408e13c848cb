"""What a result was measured on: code, interpreter, numeric libraries,
BLAS threads and CPUs."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np

import arm7ik


def source_hash(src_dir):
    """sha256 over the package's .py files, path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root):
    """HEAD's commit when the tree is a git checkout, else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "arm7ik_version": arm7ik.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_hash(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }
