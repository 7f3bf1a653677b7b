"""Artifact writers shared by every exporter: :func:`open_artifact` is the
one opener (it creates the directory), and JSON goes through :func:`write_json`.

All floating-point values are written with 17 significant digits and a
'.' decimal separator, independent of locale, so repeated runs with the
same inputs produce byte-identical files.

Small tables go through :func:`write_csv`, one ``csv.writer`` row at a
time.  Curve files (one line per urn and one ``avg`` line per time step)
go through :func:`write_curve_csv`, which formats a chunk of time steps
with one ``%``-template and writes each chunk as soon as it is
formatted.  Both give the same bytes for the same rows: ``'%.17g' % x``
is ``f"{x:.17g}"`` for every float, and the constant cells of a curve
line are rendered once by ``csv.writer``, so its quoting is kept.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Iterable

import numpy as np

# Values (urn and average cells) formatted per chunk of a curve file.
CHUNK_VALUES = 8192


def format_value(x) -> str:
    """Render one cell; floats keep 17 significant digits."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def open_artifact(path: str):
    """Open ``path`` for writing text, creating its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline="")


def write_json(path: str, obj) -> None:
    """JSON artifact: indent 2, sorted keys, final newline."""
    with open_artifact(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open_artifact(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_value(x) for x in row])


def write_curve_csv(path: str, header: Iterable[str], times, per_urn,
                    network_avg, tail) -> None:
    """Curve CSV: per time step, one line per urn and one ``avg`` line.

    Line ``j`` of step ``k`` is ``time, j, per_urn[k, j], tail`` and the
    last is ``time, avg, network_avg[k], tail``; the bytes equal those of
    :func:`write_csv` on the same rows.
    """
    times = np.asarray(times).astype(np.int64)
    per_urn = np.asarray(per_urn, dtype=float)
    n = per_urn.shape[1]
    # The constant cells of a step's N+1 lines go through csv.writer once;
    # '%' in the tail is escaped, so each line is a template with two
    # slots, the time and the value.
    cell = format_value(tail).replace("%", "%%")
    lines = io.StringIO()
    csv.writer(lines, lineterminator="\n").writerows(
        ("%d", urn, "%.17g", cell) for urn in [*range(n), "avg"]
    )
    step = lines.getvalue()
    steps_per_chunk = max(1, CHUNK_VALUES // (n + 1))
    block = np.empty((steps_per_chunk, n + 1))
    with open_artifact(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(header))
        for lo in range(0, len(times), steps_per_chunk):
            hi = min(lo + steps_per_chunk, len(times))
            chunk = block[: hi - lo]
            chunk[:, :n] = per_urn[lo:hi]
            chunk[:, n] = network_avg[lo:hi]
            args = [None] * (2 * chunk.size)
            args[0::2] = np.repeat(times[lo:hi], n + 1).tolist()
            args[1::2] = chunk.ravel().tolist()
            fh.write((step * (hi - lo)) % tuple(args))
