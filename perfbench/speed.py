"""Speed loops: fixed work that measures how fast the machine runs at the moment.

On a shared machine the speed can change by 1.6x from one second to the
next, and the same for minutes on end (NOTES.md).  run.py times a loop
of the same kind of work as the workload just before starting each
pass's worker and just after it ends, and reports set-up and pass times
in reference seconds: wall seconds times the loop's nominal over its
measured time.  The loops run in the parent, so their memory never
shows in the worker's peak resident memory, and nothing in them calls
the package, so no change to it can speed them up.
"""

from __future__ import annotations

import io
import time

import numpy as np


def interpreter_loop() -> float:
    """Seconds taken by fixed interpreter-bound work, like the package's step loops.

    Interpreter arithmetic, small NumPy matrix-vector steps with a clip,
    and float formatting into text, in roughly equal parts.
    """
    matrix = np.random.default_rng(0).random((16, 16))
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    x = np.ones(16)
    for _ in range(8000):
        x = matrix @ x / 8.0
        np.clip(x, 0.0, 1.0, out=x)
    text = io.StringIO()
    for i in range(40_000):
        text.write(f"{i},{i * 0.37:.17g}\n")
    return time.perf_counter() - start


def array_loop() -> float:
    """Seconds taken by fixed array-bound work, like the exact chain's apply.

    Broadcast products, weighted bincounts and concatenations over 4 MB
    arrays, larger than the L2 cache.
    """
    rng = np.random.default_rng(0)
    successors = rng.integers(0, 1 << 16, size=(1 << 12, 128))
    weights, mass = rng.random((1 << 12, 128)), rng.random((1 << 12, 1))
    start = time.perf_counter()
    for _ in range(11):
        contrib = mass * weights
        np.bincount(successors.ravel(), weights=contrib.ravel(), minlength=1 << 16)
        np.concatenate([contrib * 0.5, contrib], axis=1)
    return time.perf_counter() - start


# Nominal seconds of each loop.  A reference second is a second on a
# machine where the loop takes this long, as it usually does on the
# 2-vCPU Xeon of NOTES.md.  Changing a loop's work or its nominal time
# changes the unit of run_s and setup_s.
LOOPS = {"interpreter": (interpreter_loop, 0.18), "array": (array_loop, 0.10)}


def measure(kinds) -> dict:
    """Seconds each named loop takes now."""
    return {kind: LOOPS[kind][0]() for kind in kinds}


def scale(kind: str, measured: float) -> float:
    """Factor from wall seconds to reference seconds."""
    return LOOPS[kind][1] / measured
