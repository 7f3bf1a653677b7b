"""The CSV writer against Python's own formatting: the byte cells of the
NumPy kernel, whole tables against the ``%``-template, and the curve
writer against the row-by-row reference."""

import hashlib
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet import cli, csvio
from polyanet.csvio import write_curve_csv
from polyanet.meanfield import InfectionTrajectory, iterate, save_trajectory_csv
from polyanet.montecarlo import average_replicates, save_summary_csv
from polyanet.params import NetworkParams

from conftest import homogeneous_raw, random_interaction, write_curve_rows

HEADER = ("time", "urn", "p", "system")
SPECIAL = [0.0, -0.0, 5e-324, 1e300, 1 / 3, np.inf, np.nan, -np.inf, -1e-310]


def curve(rng, t_max, n):
    """Random per-urn values with the special floats spread through them."""
    per_urn = rng.random((t_max, n))
    flat = per_urn.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    flat[-len(SPECIAL):] = SPECIAL[-flat.size:]
    avg = rng.standard_normal(t_max) * 10.0 ** rng.integers(-300, 300, t_max)
    avg[: len(SPECIAL)] = SPECIAL[:t_max]
    return np.arange(1, t_max + 1), per_urn, avg


def assert_same_bytes(tmp_path, times, per_urn, avg, tail, header=HEADER):
    want, got = tmp_path / "rows.csv", tmp_path / "columnar.csv"
    write_curve_rows(str(want), header, times, per_urn, avg, tail)
    write_curve_csv(str(got), header, times, per_urn, avg, tail)
    assert got.read_bytes() == want.read_bytes()


@st.composite
def settled_curves(draw):
    """Times, per-urn values and averages of a curve that has its last
    record's bits from a drawn record on, a chunk size (None: the default)
    and a ``SMALL_VALUES``."""
    n, t_max = draw(st.integers(1, 12)), draw(st.integers(1, 300))
    settled = draw(st.integers(0, t_max - 1))
    kind = draw(st.sampled_from(["consecutive", "gaps", "any"]))
    if kind == "any":
        times = draw(st.lists(INTS, min_size=t_max, max_size=t_max))
    else:
        # consecutive times cross powers of ten and, below zero, negative ones
        start = draw(st.integers(-10**4, 10**4)
                     | st.builds(lambda k, d, s: s * 10**k - d, st.integers(1, 18),
                                 st.integers(0, 300), st.sampled_from([-1, 1])))
        steps = [1] * t_max if kind == "consecutive" else draw(
            st.lists(st.integers(-1000, 1000), min_size=t_max, max_size=t_max))
        times = np.cumsum([start, *steps[1:]]).tolist()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_urn, avg = rng.random((t_max, n)), rng.random(t_max)
    last = rng.choice(np.array([0.0, np.nan, 1 / 3, 1e-310, 2.5e20]), n + 1)
    # the record before the tail is random, or differs from the last record
    # only in the sign of a zero or in the payload of a NaN
    change, j = draw(st.sampled_from(["random", "sign", "payload"])), draw(st.integers(0, n))
    before = last.copy()
    if change == "sign":
        last[j], before[j] = 0.0, -0.0
    elif change == "payload":
        last[j] = np.nan
        before[j] = (np.array(np.nan).view(np.int64) | draw(st.sampled_from([1, -2**63]))).view(float)
    per_urn[settled:], avg[settled:] = last[:n], last[n]
    if settled and change != "random":
        per_urn[settled - 1], avg[settled - 1] = before[:n], before[n]
    chunk = draw(st.none() | st.integers(1, 50))
    small = draw(st.sampled_from([0, csvio.SMALL_VALUES]))
    return np.array(times, dtype=np.int64), per_urn, avg, chunk, small


class TestWriteCurveCsv:
    @pytest.mark.parametrize("t_max, n", [(1, 1), (1, 100), (40, 1), (25, 100), (9, 4)])
    @pytest.mark.parametrize("tail", [7, 100, "exact", "meanfield-linear"])
    def test_matches_rows(self, tmp_path, rng, t_max, n, tail):
        assert_same_bytes(tmp_path, *curve(rng, t_max, n), tail)

    @pytest.mark.parametrize(
        "tail", ["a,b", 'say "hi"', "50% done", "%d %s %%", "two\nlines", ""]
    )
    def test_tail_quoting_and_percent(self, tmp_path, rng, tail):
        assert_same_bytes(tmp_path, *curve(rng, 6, 3), tail)

    def test_header_quoting(self, tmp_path, rng):
        header = ("time", "urn", "p,q", 'say "hi"')
        assert_same_bytes(tmp_path, *curve(rng, 4, 2), "x", header=header)

    def test_no_time_steps(self, tmp_path):
        assert_same_bytes(tmp_path, np.arange(1, 1), np.zeros((0, 3)), np.zeros(0), 5)

    @pytest.mark.parametrize("chunk", [1, 4, 8, 9, 30])
    @pytest.mark.parametrize("t_max", [1, 7, 23])
    def test_chunk_boundaries(self, tmp_path, rng, monkeypatch, chunk, t_max):
        # Three values per step: chunks of 1 step up to 10, with T spanning
        # full chunks plus a partial one.
        monkeypatch.setattr(csvio, "CHUNK_VALUES", chunk)
        assert_same_bytes(tmp_path, *curve(rng, t_max, 2), "exact")

    @pytest.mark.parametrize("case", ["signed-zero", "nan-payload", "constant", "mid-chunk",
                                      "small"])
    def test_repeated_tail(self, tmp_path, rng, case):
        # A chunk whose records all have the last record's bits is formatted
        # once; a record that differs from the last only in the sign of a
        # zero or in a NaN's payload is not part of that tail.  Three urns
        # give chunks of 1638 steps, each of more than SMALL_VALUES values.
        t_max, n, start = {"constant": (4000, 3, 0), "mid-chunk": (4000, 3, 2000),
                           "small": (5, 2, 0)}.get(case, (4000, 3, 1000))
        assert case == "small" or 1638 * 2 * (n + 1) >= csvio.SMALL_VALUES
        times, per_urn, avg = curve(rng, t_max, n)
        # NaN never equals itself, so float == would never see these tails
        per_urn[-1] = [0.0, np.nan if case in ("constant", "nan-payload") else 0.25, -1e-310][:n]
        avg[-1] = -0.0
        per_urn[start:], avg[start:] = per_urn[-1], avg[-1]
        if case == "signed-zero":
            per_urn[3500, 0], avg[3600] = -0.0, 0.0
        elif case == "nan-payload":
            per_urn[3500, 1] = (np.array(np.nan).view(np.int64) | 1).view(float)
            per_urn[3600, 1] = -np.nan
        with mock.patch.object(csvio, "_float_cells", wraps=csvio._float_cells) as cells:
            assert_same_bytes(tmp_path, times, per_urn, avg, "meanfield-linear")
        if case == "constant":  # one record's floats per chunk
            assert cells.call_count and all(c.args[0].size <= n + 1 for c in cells.call_args_list)

    @given(settled_curves())
    @settings(max_examples=200, deadline=None)
    def test_settled_tail_matches_rows(self, case):
        # The records from the settled start on are written from one record
        # whose floats are formatted once, whatever the chunk size, the
        # digit counts and signs of the times, and a last pre-tail record
        # that differs only in a zero's sign or a NaN's payload.  With
        # SMALL_VALUES at 0 every tail takes that path, however short.
        times, per_urn, avg, chunk, small = case
        with mock.patch.object(csvio, "CHUNK_VALUES", chunk or csvio.CHUNK_VALUES), \
                mock.patch.object(csvio, "SMALL_VALUES", small), \
                tempfile.TemporaryDirectory() as root:
            want, got = os.path.join(root, "rows.csv"), os.path.join(root, "tail.csv")
            write_curve_rows(want, HEADER, times, per_urn, avg, "meanfield-linear")
            write_curve_csv(got, HEADER, times, per_urn, avg, "meanfield-linear")
            with open(want, "rb") as a, open(got, "rb") as b:
                assert b.read() == a.read()

    def test_long_settled_tail(self, tmp_path):
        # One urn, times 1..100 000 (one to six digits), settled from t = 3
        t_max = 100_000
        per_urn = np.full((t_max, 1), 0.1)
        per_urn[:2, 0] = [0.5, 0.3]
        avg = per_urn[:, 0].copy()
        with mock.patch.object(csvio, "_float_cells", wraps=csvio._float_cells) as cells:
            assert_same_bytes(tmp_path, np.arange(1, t_max + 1), per_urn, avg, "meanfield-linear")
        assert [c.args[0].size for c in cells.call_args_list] == [2]

    def test_digest(self, tmp_path):
        # Every value comes from one exactly rounded division, so the
        # digest does not depend on the BLAS or the summation order.
        traj = InfectionTrajectory(
            times=np.arange(1, 6),
            per_urn=np.arange(15).reshape(5, 3) / 7,
            network_avg=np.arange(5) / 7,
            system="exact",
        )
        path = tmp_path / "curve.csv"
        save_trajectory_csv(traj, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2d5971ed6b21dd36bd84f7dd106df4324b59c31ee9bbef5c2a3f020597069f12"
        )


class TestSaveFunctions:
    def test_summary_csv(self, tmp_path, rng):
        S = random_interaction(rng, 4)
        summary = average_replicates(homogeneous_raw(2, 4, 3, 10, 2, S), 30, 3, 11)
        path = tmp_path / "mc.csv"
        save_summary_csv(summary, path=str(path))
        want = tmp_path / "want.csv"
        write_curve_rows(
            str(want), ("time", "urn", "empirical_sum", "replicate_count"),
            summary.times, summary.per_urn, summary.network_avg, summary.replicates,
        )
        assert path.read_bytes() == want.read_bytes()

    def test_trajectory_csv(self, tmp_path, rng):
        par = NetworkParams(2, [0.3, 0.6, 0.5], [0.4, 1.1, 0.2], [0.9, 0.2, 0.6])
        traj = iterate("nonlinear", par, random_interaction(rng, 3), 40)
        path = tmp_path / "mf.csv"
        save_trajectory_csv(traj, path=str(path))
        want = tmp_path / "want.csv"
        write_curve_rows(str(want), HEADER, traj.times, traj.per_urn,
                         traj.network_avg, traj.system)
        assert path.read_bytes() == want.read_bytes()


def cell_text(cells):
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


# Floats of every kind, and fixed-notation floats in particular: the fast
# path takes 1e-4 <= |x| < 1e17.  k / 2**j is exact, and when its decimal
# digits end in a 5 just past the 17th, rounding it is a tie.
FLOATS = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
          | st.builds(lambda x, sign: sign * x, st.floats(1e-4, 1e17, exclude_max=True),
                      st.sampled_from([-1.0, 1.0]))
          | st.sampled_from([0.0, -0.0, 1e-300, -1e300, 1e300, 5e-324, 1e-4, 1e16,
                             99999999999999984.0, 9.999999999999999e-05, 0.1, 0.5])
          | st.builds(lambda k, j: k / 2.0**j, st.integers(1, 10**17), st.integers(0, 60)))
INTS = st.integers(-2**63, 2**63 - 1) | st.sampled_from([0, -1, 9, 10, -2**63, 2**63 - 1])


class TestCells:
    @given(st.lists(FLOATS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_cells_are_percent_17g(self, values):
        x = np.array(values, dtype=np.float64)
        assert cell_text(csvio._float_cells(x)) == ["%.17g" % v for v in x.tolist()]

    @given(st.lists(INTS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_int_cells_are_percent_d(self, values):
        i = np.array(values, dtype=np.int64)
        assert cell_text(csvio._int_cells(i)) == ["%d" % v for v in values]

    def test_no_floating_point_warnings(self):
        # a user's -W error must not turn the kernel's casts into failures
        x = np.array(SPECIAL + [-np.nan, 1e-4, 1e17, -5e-324, 2.0**1023])
        i = np.array([0, -2**63, 2**63 - 1])
        with np.errstate(all="raise"):
            assert cell_text(csvio._float_cells(x)) == ["%.17g" % v for v in x.tolist()]
            assert cell_text(csvio._int_cells(i)) == ["%d" % v for v in i.tolist()]

    def test_zero_int_is_one_digit(self, tmp_path):
        assert cell_text(csvio._int_cells(np.zeros(3, np.int64))) == ["0", "0", "0"]
        path = tmp_path / "z.csv"
        csvio.write_csv(str(path), None, "%d,%d\n", [(np.array([0, 0, -5]), np.array([0, 7, 0]))])
        assert path.read_bytes() == b"0,0\n0,7\n-5,0\n"

    def test_ties_and_short_decimals(self, rng):
        # M + 0.25 and M + 0.75 with 16 digits in M are exact doubles whose
        # 18th digit is a 5: rounding to 17 digits is a tie, to even
        ties = rng.integers(10**15, 2 * 10**15, 5000) + rng.choice([0.25, 0.75], 5000)
        short = rng.integers(1, 10**7, 20000) / 10.0 ** rng.integers(0, 12, 20000)
        x = np.concatenate([ties, -ties, short])
        assert cell_text(csvio._float_cells(x)) == ["%.17g" % v for v in x.tolist()]

    def test_next_to_powers_of_ten(self):
        # where log10 can be one off and the 17 digits can round up to the
        # next power of ten
        below = above = np.array([10.0**k for k in range(-5, 18)])
        steps = [below]
        for _ in range(40):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            steps += [below, above]
        x = np.concatenate(steps)
        x = np.concatenate([x, -x])
        assert cell_text(csvio._float_cells(x)) == ["%.17g" % v for v in x.tolist()]

    def test_fallback_only_keeps_figure3_bytes(self, tmp_path, monkeypatch):
        # With a plain double for the scaled value the tie margin exceeds one
        # half, so every float goes through '%.17g' % x, as on a platform
        # whose long double is a double.
        def figure3(name):
            monkeypatch.chdir(tmp_path)
            assert cli.main(["reproduce-fig", "3", "--out", name, "--t-max", "30",
                             "--replicates", "3"]) == 0
            return {p.name[len(name):]: p.read_bytes() for p in tmp_path.glob(f"{name}_*.csv")}

        wide = figure3("wide")
        monkeypatch.setattr(csvio, "_POW10", csvio._POW10.astype(np.float64))
        assert 2.0**55 * np.finfo(csvio._POW10.dtype).eps > 0.5
        assert figure3("double") == wide
        assert len(wide) == 9


@st.composite
def tables(draw):
    """A record template, columns that fill its slots, and the reference
    bytes of the '%'-operator."""
    n_columns = draw(st.integers(1, 3))
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["%d", "%.17g"]), min_size=n_columns,
                          max_size=n_columns))
    text = st.text(alphabet="ab,%\n\"", max_size=3).map(lambda t: t.replace("%", "%%"))
    record = "".join(draw(text) + kinds[s % n_columns] for s in range(width * n_columns))
    record += draw(text)
    n = draw(st.integers(0, 5))
    columns = [np.array(draw(st.lists(INTS if k == "%d" else FLOATS,
                                      min_size=n * width, max_size=n * width)),
                        dtype=np.int64 if k == "%d" else np.float64).reshape(n, width)
               for k in kinds]
    args = [c[k, e].item() for k in range(n) for e in range(width) for c in columns]
    return record, columns, ((record * n) % tuple(args)).encode()


class TestWriteCsv:
    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_matches_percent_template(self, table):
        record, columns, want = table
        chunks = [tuple(c[k : k + 2] for c in columns) for k in range(0, len(columns[0]), 2)]
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "t.csv")
            csvio.write_csv(path, None, record, chunks)
            with open(path, "rb") as fh:
                assert fh.read() == want

    def test_sparse_matrix_across_kernel_blocks(self, tmp_path, rng):
        # zeros take their own path, and a chunk's floats are formatted in
        # several passes of the kernel
        mat = rng.standard_normal((400, 50)) * 10.0 ** rng.integers(-6, 18, (400, 50))
        mat[rng.random(mat.shape) < 0.4] = 0.0
        mat.flat[: len(SPECIAL)] = SPECIAL
        record = ",".join(["%.17g"] * 50) + "\n"
        path = tmp_path / "m.csv"
        csvio.write_csv(str(path), None, record, csvio.chunked(mat))
        assert path.read_bytes() == ((record * 400) % tuple(mat.ravel().tolist())).encode()

    @pytest.mark.parametrize("record", ["%s\n", "%5d\n", "%.3f\n", "50% done %d\n", "a\0%d\n"])
    def test_unsupported_template_refused(self, tmp_path, record):
        with pytest.raises(ValueError, match="record template"):
            csvio.write_csv(str(tmp_path / "x.csv"), None, record, [(np.arange(2),)])

    def test_percent_d_needs_integers(self, tmp_path):
        with pytest.raises(TypeError, match="integers"):
            csvio.write_csv(str(tmp_path / "x.csv"), None, "%d\n", [(np.array([1.5]),)])

    def test_slot_count_checked(self, tmp_path):
        with pytest.raises(ValueError, match="slots"):
            csvio.write_csv(str(tmp_path / "x.csv"), None, "%d,%d\n", [(np.arange(3),)])


def both_ways(record, chunks, header=None):
    """The bytes of one table through the byte grid and through the
    per-value '%' path, which takes every chunk below ``SMALL_VALUES``."""
    chunks, out = list(chunks), []
    for small in (0, 1 << 62):
        with mock.patch.object(csvio, "SMALL_VALUES", small), \
                tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "t.csv")
            csvio.write_csv(path, header, record, chunks)
            with open(path, "rb") as fh:
                out.append(fh.read())
    return out


class TestSmallTables:
    """A table below ``SMALL_VALUES`` values is formatted one value at a
    time by '%'; it keeps the bytes of the byte grid."""

    def test_special_values(self):
        floats = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-310,
                           2.2250738585072014e-308, 1 / 3, 1e17, 9.999999999999999e-05,
                           -123.5, 1e300])
        ints = np.array([0, -1, -2**63, 2**63 - 1, 9, 10, -10, -9999, 10000, 7, -42, 1, -7,
                         123456789])
        record = "%d,%.17g,100%% done\n"
        assert 2 * len(ints) < csvio.SMALL_VALUES
        grid, per_value = both_ways(record, [(ints, floats)], header=("i", "x", "note"))
        want = b"i,x,note\n" + ((record * len(ints)) % tuple(
            v for pair in zip(ints.tolist(), floats.tolist()) for v in pair)).encode()
        assert grid == per_value == want

    def test_curve_of_the_exact_workload_size(self, rng):
        # a 32-step curve of 4 urns (160 lines) and its repeated time cells
        times, per_urn, avg = curve(rng, 32, 4)
        lines = "".join("%d," + str(u) + ",%.17g,exact\n" for u in [0, 1, 2, 3, "avg"])
        chunks = [(times[:, None], np.column_stack((per_urn, avg)))]
        grid, per_value = both_ways(lines, chunks, header=HEADER)
        assert grid == per_value

    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_matches_byte_grid(self, table):
        record, columns, want = table
        assert both_ways(record, [tuple(columns)]) == [want, want]
