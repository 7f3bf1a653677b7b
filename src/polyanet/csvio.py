"""Artifact writers shared by every exporter: :func:`open_artifact` is the
one opener (it creates the directory), JSON goes through
:func:`write_json` and every CSV through the one byte grid of
:func:`write_csv` (a curve through :func:`write_curve_csv`, which adds
the settled tail below).

A CSV is a ``csv.writer`` header row (the matrix file has none) and then
a record template of one or more lines, written once per record, one
chunk of about ``CHUNK_VALUES`` values at a time.  Constant cells, such
as a curve line's urn index and tail, are part of the template; its
``%d`` and ``%.17g`` slots take the values.  Files are UTF-8 and floats
have 17 significant digits and a '.' separator, so the same inputs give
byte-identical files whatever the locale.

The slots of a chunk are rendered in NumPy, all slots of one kind in one
call, as fixed-width byte cells padded with NUL.  The template's literal
bytes and the cells fill one byte grid per chunk, and the file gets the
grid with its NULs deleted.  A cell holds exactly the bytes of
``'%d' % i`` or ``'%.17g' % x``:

* an integer is its decimal digits, read four at a time from a table;
* a float with ``1e-4 <= |x| < 1e17`` (``%g``'s fixed notation) and
  decimal exponent ``d`` has the 17 digits of ``|x| * 10**(16 - d)``
  rounded to an integer.  The product is formed in ``np.longdouble``,
  where ``10**k`` is exact for ``k <= 27``.  Below ``2**57`` it carries
  one rounding error of at most half an ulp, ``2**55 * eps``, which is
  ``2**-8`` with a 64-bit mantissa: the rounded integer is the
  correctly rounded one unless the fraction lies within that margin of
  one half;
* zero and -0 are written directly;
* every other float goes through ``'%.17g' % x``, one value at a time:
  near-ties, exponent notation, nan and infinities, and, as the margin
  then exceeds one half, every float on a platform whose long double is
  a plain double.

A chunk of fewer than ``SMALL_VALUES`` values skips the grid: the record
template itself is applied to each record with ``%``, which formats every
value by that same ``'%d' % i`` or ``'%.17g' % x``.

A curve (:func:`write_curve_csv`) is scanned back from its end, one
chunk of records at a time, for the first record from which every record
has the last record's bits (a settled tail).  The records before it go
through the chunks; the tail is written from the last record, its float
cells formatted once, so only the time slots remain.  Times of one digit
count and sign form a run with one byte layout: a grid of a chunk's
records holds that record, without NULs, and each block of the run
places its times' digits in it and goes to the file as it is.  A tail of
fewer than ``SMALL_VALUES`` values goes through the chunks too.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
from typing import Iterable

import numpy as np

# Values formatted per chunk of a table.
CHUNK_VALUES = 8192
# A chunk of fewer values is formatted by Python's '%' one value at a
# time: the byte grid costs about 1 ms of NumPy calls whatever the chunk's
# size, which per-value formatting matches at about a thousand values (on
# a 2-vCPU machine, a 36-row curve file took 0.37 ms instead of 1.0 and a
# 160-row one 0.69 ms instead of 1.07, file opening included).
SMALL_VALUES = 1024

# Bytes of a float cell: the longest '%.17g' is -2.2250738585072014e-308.
_FLOAT_CELL = 24
# Floats per pass of the float kernel, so that its temporaries stay in
# the core's cache: a figure-1 curve file is written 10-15% faster than
# in passes of a whole chunk.
_BLOCK = 2048
# 10**k for k = 0..20, each exact as a double and so in the wider type,
# whose precision sets the tie margin.
_POW10 = np.array([float(10**k) for k in range(21)], dtype=np.longdouble)
# Per group of four digits 0000..9999: its ASCII bytes as one
# little-endian word, and its trailing zeros (4 for 0000).
_GROUPS = sum((48 + np.arange(10000, dtype=np.uint64) // 10**k % 10) << 8 * (3 - k)
              for k in range(4))
_TRAILING = sum((np.arange(10000) % 10**k == 0).astype(np.uint8) for k in range(1, 5))
# 10**k for k = 1..19: an integer's digit count is one more than the
# number of them at or below its magnitude.
_POWERS = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)

# A fixed-notation float cell is built from its 17 digits, bytes 0..16
# of three little-endian words.  The sign goes to byte 0; the digits up
# to the units digit move right by five bytes, those after it by six,
# leaving room for the point; with exponent -z all digits move by six,
# past "0." and z - 1 zeros.  Per exponent e (-4..16) and last nonzero
# digit l (0..16), as masks and bytes of a cell:
#   _LOW    digits 0..e (e >= 0), which move five bytes;
#   _HIGH   digits max(e, -1) + 1 .. l, which move six;
#   _CONST  the point at byte e + 6 if l > e >= 0, or "0." and z - 1
#           zeros in bytes e + 5 .. 5 if e = -z < 0.
# Word-major: one row per word.
_exp = np.arange(-4, 17)[:, None, None]
_last = np.arange(17)[:, None]
_byte = np.arange(_FLOAT_CELL)
_LOW = np.where((_exp >= 0) & (_byte <= _exp), 255, 0)
_HIGH = np.where((_byte <= _last) & (_byte > np.maximum(_exp, -1)), 255, 0)
_CONST = np.where(_exp >= 0, np.where((_byte == _exp + 6) & (_last > _exp), 46, 0),
                  np.where(_byte == _exp + 6, 46, np.where((_byte >= _exp + 5) & (_byte <= 5), 48, 0)))
_LOW, _HIGH, _CONST = (np.broadcast_to(t, (21, 17, _FLOAT_CELL)).astype(np.uint8)
                       .reshape(-1, _FLOAT_CELL).view("<u8").T.astype(np.uint64)
                       for t in (_LOW, _HIGH, _CONST))


def open_artifact(path: str, binary: bool = False):
    """Open ``path`` for writing text (or bytes), creating its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb") if binary else open(path, "w", newline="")


def write_json(path: str, obj) -> None:
    """JSON artifact: indent 2, sorted keys, final newline."""
    with open_artifact(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base10000(u, count: int):
    """The ``count`` base-10000 digits of ``u``, most significant first."""
    out = []
    for _ in range(count):
        q = u // 10000
        out.append(u - q * 10000)
        u = q
    return out[::-1]


def _shift(words, bits: int):
    """Word-major rows of bytes moved right by ``bits`` (8 to 56)."""
    out = words << bits
    out[1:] |= words[:-1] >> (64 - bits)
    return out


def _int_cells(values):
    """``'%d' % i`` of each int64, one NUL-padded row of bytes per value."""
    values = np.asarray(values, dtype=np.int64).ravel()
    mag = np.abs(values).view(np.uint64)  # -2**63 stays 2**63 as unsigned
    width = len(str(int(mag.max()))) if len(mag) else 1
    groups = _base10000(mag, -(-width // 4))
    digits = np.empty((len(mag), len(groups)), "<u4")
    for j, g in enumerate(groups):
        digits[:, j] = _GROUPS[g]
    cells = np.empty((len(values), width + 1), np.uint8)
    cells[:, 0] = np.where(values < 0, 45, 0)
    cells[:, 1:] = digits.view(np.uint8)[:, -width:]
    # leading zeros: every digit before the highest power of ten <= |i|
    # (zero keeps its units digit)
    powers = np.uint64(10) ** np.arange(width - 1, 0, -1, dtype=np.uint64)
    cells[:, 1:-1][mag[:, None] < powers] = 0
    return cells


def _float_cells(values):
    """``'%.17g' % x`` of each float64, one row of ``_FLOAT_CELL``
    NUL-padded bytes per value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    nonzero = np.flatnonzero(values)
    if len(nonzero) < len(values):
        # zero and -0, as in a sparse matrix's rows
        cells = np.zeros((len(values), _FLOAT_CELL), np.uint8)
        cells[:, 0] = np.where(np.signbit(values), 45, 0)
        cells[:, 1] = 48
        cells[nonzero] = _float_cells(values[nonzero])
        return cells
    cells = np.empty((len(values), _FLOAT_CELL), np.uint8)
    for lo in range(0, len(values), _BLOCK):
        cells[lo : lo + _BLOCK] = _nonzero_cells(values[lo : lo + _BLOCK])
    return cells


def _nonzero_cells(values):
    """:func:`_float_cells` of nonzero floats."""
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 1e17)
    mag = np.where(fast, mag, 1.0)
    exp = np.clip(np.floor(np.log10(mag)), -4, 16).astype(np.intp)
    wide = mag.astype(_POW10.dtype)
    scaled = wide * _POW10[16 - exp]
    # log10 can be one off next to a power of ten; the scaled value is not
    off = (scaled < 1e16) | (scaled >= 1e17)
    if off.any():
        exp[off] += np.where(scaled[off] < 1e16, -1, 1)
        scaled[off] = wide[off] * _POW10[16 - exp[off]]
    n = scaled.astype(np.int64)
    frac = scaled - n.astype(_POW10.dtype)
    margin = 2.0**55 * float(np.finfo(_POW10.dtype).eps)
    up = frac > 0.5 + margin
    fast &= up | (frac < 0.5 - margin)
    n += up
    # no double rounds up to 17 digits of the next power of ten here
    fast &= (n >= 10**16) & (n < 10**17)
    # the 17 digits: the first, then four groups of four
    first = n // 10**16
    g1, g2, g3, g4 = _base10000(n - first * 10**16, 4)
    trailing = _TRAILING[g4] + (g4 == 0) * (_TRAILING[g3] + (g3 == 0) * (
        _TRAILING[g2] + (g2 == 0) * _TRAILING[g1]))
    a2, a4 = _GROUPS[g2], _GROUPS[g4]
    digits = np.empty((3, len(values)), np.uint64)
    digits[0] = (48 + first.view(np.uint64)) | _GROUPS[g1] << 8 | a2 << 40
    digits[1] = a2 >> 24 | _GROUPS[g3] << 8 | a4 << 40
    digits[2] = a4 >> 24
    key = 17 * (exp + 4) + 16 - trailing  # table row: exponent, last nonzero digit
    cells = (_shift(digits & np.take(_LOW, key, axis=1), 40)
             | _shift(digits & np.take(_HIGH, key, axis=1), 48) | np.take(_CONST, key, axis=1))
    cells[0] |= np.signbit(values) * np.uint64(45)
    cells = np.ascontiguousarray(cells.T, dtype="<u8").view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join(("%.17g" % x).encode().ljust(_FLOAT_CELL, b"\0")
                        for x in values[slow].tolist())
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, _FLOAT_CELL)
    return cells


class _Grid:
    """Byte grid of a record template: its literal bytes and, for each
    cell width, the grid columns of the ``%d`` and ``%.17g`` slots."""

    def __init__(self, record: str):
        if "\0" in record:
            raise ValueError(f"record template holds a NUL: {record!r}")
        literals, is_int = [""], []
        for k, part in enumerate(re.split(r"(%\.17g|%d|%%)", record)):
            if k % 2 == 0 and "%" in part:
                raise ValueError(f"record template takes only %d, %.17g and %%: {record!r}")
            if part == "%%":
                literals[-1] += "%"
            elif k % 2:
                is_int.append(part == "%d")
                literals.append("")
            else:
                literals[-1] += part
        self.record = record
        self.literals = [t.encode() for t in literals]
        self.is_int = np.array(is_int, dtype=bool)
        self._layouts = {}

    def layout(self, n_columns: int, int_width: int):
        """The literal bytes of one record, the grid columns of its int
        cells (a row per slot) and where its float cells start, slots in
        :meth:`values` order."""
        key = n_columns, int_width
        if key not in self._layouts:
            widths = np.where(self.is_int, int_width, _FLOAT_CELL)
            lengths = np.array([len(t) for t in self.literals])
            starts = np.cumsum(lengths[:-1]) + np.cumsum(widths) - widths
            row = np.frombuffer(b"".join(
                t + bytes(w) for t, w in zip(self.literals, [*widths.tolist(), 0])), np.uint8)
            slot = np.arange(len(widths)).reshape(-1, n_columns).T.ravel()
            self._layouts[key] = (row, starts[slot[self.is_int[slot]], None] + np.arange(int_width),
                                  starts[slot[~self.is_int[slot]]])
        return self._layouts[key]

    def values(self, columns, is_int: bool):
        """The values of the slots of one kind, records on rows, column by
        column; a single column when all of them repeat one value per
        record (a curve line's time).  None if there are no such slots."""
        mask = self.is_int.reshape(-1, len(columns)) == is_int
        parts = [c if m.all() else c[:, m] for c, m in zip(columns, mask.T) if m.any()]
        if len(parts) != 1:
            return np.concatenate(parts, axis=1) if parts else None
        return parts[0][:, :1] if parts[0].strides[1] == 0 else parts[0]

    def render(self, columns) -> bytes:
        """Records given as broadcast columns, as bytes."""
        n_records = len(columns[0])
        columns = [c.reshape(n_records, -1) for c in columns]
        if len(columns) * columns[0].shape[1] != len(self.is_int):
            raise ValueError(f"{len(self.is_int)} slots, got {len(columns)} columns "
                             f"of {columns[0].shape[1]} values per record")
        ints, floats = self.values(columns, True), self.values(columns, False)
        if ints is not None and ints.dtype.kind not in "biu":
            raise TypeError(f"%d slots take integers, got {ints.dtype}")
        if n_records * len(self.is_int) < SMALL_VALUES:
            # slot j * len(columns) + c takes columns[c][k, j] in record k
            return "".join(self.record % tuple(itertools.chain(*zip(*values)))
                           for values in zip(*(c.tolist() for c in columns))).encode()
        int_cells = None if ints is None else _int_cells(ints).reshape(*ints.shape, -1)
        row, int_at, float_at = self.layout(len(columns), 1 if ints is None else int_cells.shape[2])
        grid = np.empty((n_records, len(row)), np.uint8)
        grid[:] = row
        if ints is not None:
            grid[:, int_at] = int_cells
        if floats is not None:
            # a float cell is copied whole into a window of the row
            window = np.lib.stride_tricks.sliding_window_view(
                grid, _FLOAT_CELL, axis=1, writeable=True)
            window[:, float_at] = _float_cells(floats).reshape(*floats.shape, -1)
        return grid.tobytes().translate(None, b"\0")

    def write_repeated(self, fh, floats, times, step: int) -> None:
        """One record per time to ``fh``: its ``%.17g`` slots take ``floats``
        in template order and every ``%d`` slot takes the time.

        The floats are formatted once.  Times of one digit count and sign
        form a run, whose record has one byte layout; its grid of ``step``
        records is filled with that record once, and each block of the run
        places its times' digits in it and goes to ``fh`` as it is.
        """
        cells = _float_cells(floats)
        if len(cells) != (~self.is_int).sum():
            raise ValueError(f"{(~self.is_int).sum()} float slots, got {len(cells)} values")
        text = iter(c[c != 0].tobytes() for c in cells)
        # the record's bytes between its %d slots, the floats in place
        parts = [self.literals[0]]
        for is_int, literal in zip(self.is_int.tolist(), self.literals[1:]):
            if is_int:
                parts.append(literal)
            else:
                parts[-1] += next(text) + literal
        lengths = np.cumsum([len(p) for p in parts[:-1]])
        negative = times < 0
        digits = 1 + np.searchsorted(_POWERS, np.abs(times).view(np.uint64), side="right")
        ends = np.flatnonzero(np.diff(2 * digits + negative)) + 1
        for lo, hi in zip([0, *ends.tolist()], [*ends.tolist(), len(times)]):
            sign = int(negative[lo])
            width = int(digits[lo]) + sign
            row = np.frombuffer(b"".join(p + bytes(width) for p in parts[:-1]) + parts[-1], np.uint8)
            int_at = lengths[:, None] + width * np.arange(len(lengths))[:, None] + np.arange(width)
            grid = np.empty((min(step, hi - lo), len(row)), np.uint8)
            grid[:] = row
            for start in range(lo, hi, step):
                block = times[start : min(start + step, hi)]
                grid[: len(block), int_at] = _int_cells(block)[:, None, 1 - sign :]
                fh.write(grid[: len(block)])


def _header_line(header: Iterable[str] | None) -> bytes:
    """The ``csv.writer`` line of ``header``; none if it is None."""
    line = io.StringIO()
    if header is not None:
        csv.writer(line, lineterminator="\n").writerow(list(header))
    return line.getvalue().encode()


def write_csv(path: str, header: Iterable[str] | None, record: str, chunks) -> None:
    """``header`` (no header line if None), then ``record`` once per record.

    ``chunks`` yields tuples of columns that broadcast against each other,
    records on the first axis (a 2-D column fills one slot per entry); the
    slots take the columns in turn, so ``"%d,%.17g\\n"`` with ``(i, x)``
    writes ``i[k],x[k]`` per record ``k``.  A ``%d`` slot takes integers
    (``'%d' % i``), a ``%.17g`` slot any number (``'%.17g' % x``).
    """
    grid = _Grid(record)
    with open_artifact(path, binary=True) as fh:
        fh.write(_header_line(header))
        for columns in _joined(chunks):
            fh.write(grid.render(columns))


def _joined(chunks):
    """The chunks' broadcast columns, empty chunks dropped and small ones
    (an edge list's matrix rows) joined up to about ``CHUNK_VALUES`` values."""
    pending, size = [], 0
    for chunk in itertools.chain(chunks, [None]):
        if chunk is not None:
            columns = np.broadcast_arrays(*chunk)
            if len(columns[0]):
                pending.append(columns)
                size += columns[0].size * len(columns)
        if pending and (chunk is None or size >= CHUNK_VALUES):
            yield pending[0] if len(pending) == 1 else [np.concatenate(c) for c in zip(*pending)]
            pending, size = [], 0


def _chunk_records(*columns) -> int:
    """Records per chunk of about ``CHUNK_VALUES`` values of ``columns``."""
    width = sum(math.prod(np.shape(c)[1:]) for c in columns)
    return max(1, CHUNK_VALUES // max(1, width))


def chunked(*columns):
    """Whole columns cut into chunks of about ``CHUNK_VALUES`` values."""
    step = _chunk_records(*columns)
    for lo in range(0, len(columns[0]), step):
        yield tuple(c[lo : lo + step] for c in columns)


def _settled_from(per_urn, network_avg, step: int) -> int:
    """The first record from which every record has the last record's bits,
    found ``step`` records at a time from the end."""
    urns, avg = per_urn.view(np.int64), network_avg.view(np.int64)
    end = len(avg)
    while end > 0:
        lo = max(0, end - step)
        # NaN never equals itself and -0.0 equals 0.0, so the bits compare
        same = (urns[lo:end] == urns[-1]).all(axis=1) & (avg[lo:end] == avg[-1])
        differ = np.flatnonzero(~same)
        if len(differ):
            return lo + int(differ[-1]) + 1
        end = lo
    return 0


def write_curve_csv(path: str, header: Iterable[str], times, per_urn,
                    network_avg, tail) -> None:
    """Curve CSV: per time step, one line per urn and one ``avg`` line.

    Line ``j`` of step ``k`` is ``time, j, per_urn[k, j], tail`` and the
    last is ``time, avg, network_avg[k], tail``.  The records from the
    first one that has the last record's bits on (a settled curve's tail)
    are written from that record, its floats formatted once.
    """
    times = np.asarray(times).astype(np.int64)
    per_urn = np.asarray(per_urn, dtype=float)
    network_avg = np.asarray(network_avg, dtype=float)
    # A step's N+1 lines are one record with two slots per line (time, value);
    # the constant cells go through csv.writer once, '%' in the tail escaped.
    lines = io.StringIO()
    csv.writer(lines, lineterminator="\n").writerows(
        ("%d", urn, "%.17g", str(tail).replace("%", "%%"))
        for urn in [*range(per_urn.shape[1]), "avg"]
    )
    grid = _Grid(lines.getvalue())
    step = _chunk_records(times, per_urn, network_avg)
    settled = _settled_from(per_urn, network_avg, step)
    if (len(times) - settled) * len(grid.is_int) < SMALL_VALUES:
        settled = len(times)  # a short tail costs less through the chunks
    with open_artifact(path, binary=True) as fh:
        fh.write(_header_line(header))
        for columns in _joined((t[:, None], np.column_stack((p, a))) for t, p, a in chunked(
                times[:settled], per_urn[:settled], network_avg[:settled])):
            fh.write(grid.render(columns))
        if settled < len(times):
            grid.write_repeated(fh, np.append(per_urn[-1], network_avg[-1]), times[settled:], step)
