"""Artifact writers shared by every exporter: :func:`open_artifact` is the
one opener (it creates the directory), JSON goes through
:func:`write_json` and every CSV through the one writer :func:`write_csv`.

A CSV is a ``csv.writer`` header row (the matrix file has none) and then
a ``%``-template record of one or more lines, filled and written one
chunk of records at a time.  Floats take ``%.17g``: 17 significant
digits and a '.' separator whatever the locale, so the same inputs give
byte-identical files.  Constant cells, such as a curve line's urn index
and tail, are part of the template.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Iterable

import numpy as np

# Values formatted per chunk of a table.
CHUNK_VALUES = 8192


def open_artifact(path: str):
    """Open ``path`` for writing text, creating its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline="")


def write_json(path: str, obj) -> None:
    """JSON artifact: indent 2, sorted keys, final newline."""
    with open_artifact(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: Iterable[str] | None, record: str, chunks) -> None:
    """``header`` (no header line if None), then ``record`` once per record.

    ``chunks`` yields tuples of columns that broadcast against each other,
    records on the first axis (a 2-D column fills one slot per entry); the
    slots take the columns in turn, so ``"%d,%.17g\\n"`` with ``(i, x)``
    writes ``i[k],x[k]`` per record ``k``.
    """
    with open_artifact(path) as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(list(header))
        for chunk in chunks:
            columns = np.broadcast_arrays(*chunk)
            args = [None] * sum(c.size for c in columns)
            for i, column in enumerate(columns):
                args[i :: len(columns)] = column.ravel().tolist()
            fh.write((record * len(columns[0])) % tuple(args))


def chunked(*columns):
    """Whole columns cut into chunks of about ``CHUNK_VALUES`` values."""
    width = sum(math.prod(np.shape(c)[1:]) for c in columns)
    step = max(1, CHUNK_VALUES // max(1, width))
    for lo in range(0, len(columns[0]), step):
        yield tuple(c[lo : lo + step] for c in columns)


def write_curve_csv(path: str, header: Iterable[str], times, per_urn,
                    network_avg, tail) -> None:
    """Curve CSV: per time step, one line per urn and one ``avg`` line.

    Line ``j`` of step ``k`` is ``time, j, per_urn[k, j], tail`` and the
    last is ``time, avg, network_avg[k], tail``.
    """
    times = np.asarray(times).astype(np.int64)
    per_urn = np.asarray(per_urn, dtype=float)
    # A step's N+1 lines are one record with two slots per line (time, value);
    # the constant cells go through csv.writer once, '%' in the tail escaped.
    lines = io.StringIO()
    csv.writer(lines, lineterminator="\n").writerows(
        ("%d", urn, "%.17g", str(tail).replace("%", "%%"))
        for urn in [*range(per_urn.shape[1]), "avg"]
    )
    chunks = ((t[:, None], np.column_stack((p, a)))
              for t, p, a in chunked(times, per_urn, network_avg))
    write_csv(path, header, lines.getvalue(), chunks)
