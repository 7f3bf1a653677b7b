"""Correctness checks on the artifacts a workload leaves behind.

With the default seed each artifact is compared with the reference
stored in ``reference.json``:

* Monte Carlo CSVs must match by SHA-256.
* Exact and mean-field curve CSVs match on an identical digest, or when
  they pass the invariants below, every network-average value is within
  ``TOLERANCE`` of the reference and so is every per-urn value at the
  sampled times.  That leaves room for summation-order changes of
  about 1e-15.  The tolerance is absolute for values in [-1, 1] and
  relative beyond, where unstable linear mean-field curves grow and
  one unit in the last place already exceeds 1e-12.
* Equilibrium CSVs match on digest, or when they pass the invariants
  and every value is within ``TOLERANCE``.

With any other seed there is no reference, and only invariants are
checked: the row layout, values in [0, 1] for every route except linear
mean field, the network average equal to the mean of the urns, and a
spectral radius in [0, 1) for equilibria.
"""

from __future__ import annotations

import csv
import hashlib
import math

TOLERANCE = 1e-12
N_SAMPLED_TIMES = 8
HEADERS = {
    "montecarlo": ["time", "urn", "empirical_sum", "replicate_count"],
    "curve": ["time", "urn", "p", "system"],
    "equilibrium": ["urn", "value"],
}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read(path: str, kind: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != HEADERS[kind]:
        raise ValueError(f"header {rows[0] if rows else None} is not {HEADERS[kind]}")
    return rows[1:]


def _curve_table(rows, n_urns: int, t_max: int):
    """Per-time lists of the N urn values plus the network average."""
    if len(rows) != t_max * (n_urns + 1):
        raise ValueError(f"{len(rows)} rows, expected {t_max * (n_urns + 1)}")
    expected_urns = [str(j) for j in range(n_urns)] + ["avg"]
    table = []
    for k in range(t_max):
        block = rows[k * (n_urns + 1):(k + 1) * (n_urns + 1)]
        if any(r[0] != str(k + 1) for r in block) or [r[1] for r in block] != expected_urns:
            raise ValueError(f"rows of time {k + 1} are out of order")
        table.append([float(r[2]) for r in block])
    return table


def sampled_times(t_max: int) -> list[int]:
    step = max(1, t_max // N_SAMPLED_TIMES)
    return sorted({*range(1, t_max + 1, step), t_max})


def summarize(path: str, artifact: dict) -> dict:
    """Reference entry for one artifact."""
    entry = {"kind": artifact["kind"], "sha256": sha256(path)}
    rows = _read(path, artifact["kind"])
    if artifact["kind"] == "curve":
        table = _curve_table(rows, artifact["n_urns"], artifact["t_max"])
        entry["avg"] = [values[-1] for values in table]
        entry["sampled"] = {str(t): table[t - 1][:-1] for t in sampled_times(artifact["t_max"])}
    elif artifact["kind"] == "equilibrium":
        entry["values"] = [[r[0], float(r[1])] for r in rows]
    return entry


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def compare(path: str, artifact: dict, ref: dict) -> list[str]:
    """Differences between an artifact and its reference entry."""
    if sha256(path) == ref["sha256"]:
        return []
    kind = artifact["kind"]
    if kind == "montecarlo":
        return ["SHA-256 differs from the reference"]
    errors = invariants(path, artifact)
    if errors:
        return errors
    try:
        rows = _read(path, kind)
        if kind == "equilibrium":
            got = [[r[0], float(r[1])] for r in rows]
            if [g[0] for g in got] != [r[0] for r in ref["values"]]:
                return ["equilibrium rows differ from the reference"]
            bad = [g[0] for g, r in zip(got, ref["values"]) if not _close(g[1], r[1])]
            return [f"equilibrium value of {bad[0]} off by more than {TOLERANCE}"] if bad else []
        table = _curve_table(rows, artifact["n_urns"], artifact["t_max"])
    except ValueError as exc:
        return [str(exc)]
    errors = [
        f"network average at time {k + 1} off by more than {TOLERANCE}"
        for k, (values, want) in enumerate(zip(table, ref["avg"]))
        if not _close(values[-1], want)
    ][:1]
    for t, want in ref["sampled"].items():
        if not all(_close(g, w) for g, w in zip(table[int(t) - 1], want)):
            errors.append(f"per-urn values at time {t} off by more than {TOLERANCE}")
            break
    return errors


def invariants(path: str, artifact: dict) -> list[str]:
    """Seed-independent checks on one artifact."""
    kind = artifact["kind"]
    try:
        rows = _read(path, kind)
        if kind == "equilibrium":
            n = artifact["n_urns"]
            if len(rows) != n + 1 or [r[0] for r in rows] != [*map(str, range(n)), "spectral_radius"]:
                return [f"equilibrium rows are not urns 0..{n - 1} plus spectral_radius"]
            values = [float(r[1]) for r in rows]
            if not all(math.isfinite(v) for v in values):
                return ["equilibrium value is not finite"]
            return [] if 0.0 <= values[-1] < 1.0 else [f"spectral radius {values[-1]} not in [0, 1)"]
        table = _curve_table(rows, artifact["n_urns"], artifact["t_max"])
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if kind == "montecarlo" and any(r[3] != str(artifact["replicates"]) for r in rows):
        errors.append(f"replicate_count is not {artifact['replicates']}")
    if kind == "curve" and any(r[3] != artifact["mode"] for r in rows):
        errors.append(f"system label is not {artifact['mode']}")
    flat = [v for values in table for v in values]
    if not all(math.isfinite(v) for v in flat):
        errors.append("value is not finite")
    elif artifact["bounded"] and not all(0.0 <= v <= 1.0 for v in flat):
        errors.append("value outside [0, 1]")
    n = artifact["n_urns"]
    for values in table:
        if not _close(math.fsum(values[:-1]) / n, values[-1]):
            errors.append("network average is not the mean of the urns")
            break
    return errors
