"""The columnar curve writer against the row-by-row reference."""

import hashlib

import numpy as np
import pytest

from polyanet import csvio
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
