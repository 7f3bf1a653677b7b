"""Machine facts and provenance reported with every benchmark result."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
from importlib import metadata

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str | None:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        size = _read(os.path.join(index, "size")).strip()
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = size
    return caches


def _mem_total_mb() -> float | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an exported checkout; source_sha256 still identifies it
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, to tell commits apart without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "polyanet", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def collect(root: str, env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_mb": _mem_total_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
