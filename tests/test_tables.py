"""Byte pins of the small tables against the row-by-row reference writer.

Every table is written with ``CHUNK_VALUES`` from 1 to 30, so its
records are split across chunk boundaries in every way.
"""

import numpy as np
import pytest

from polyanet import csvio
from polyanet.experiment import config_from_dict, run
from polyanet.meanfield import (
    Equilibrium,
    build_linear_system,
    equilibrium,
    save_equilibrium_csv,
)
from polyanet.networks import barabasi_albert, save_edge_list, save_matrix
from polyanet.params import NetworkParams

from conftest import random_interaction, write_rows

SPECIAL = [0.0, -0.0, 5e-324, 1e300, 1 / 3, np.inf, np.nan, -np.inf, -1e-310]


@pytest.fixture(params=[1, 2, 3, 5, 7, 30])
def chunk(request, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_VALUES", request.param)
    return request.param


def assert_rows(path, header, rows):
    want = path.with_name("want.csv")
    write_rows(str(want), header, rows)
    assert path.read_bytes() == want.read_bytes()


def test_distribution(tmp_path, rng, chunk):
    mu = np.concatenate([rng.random(20), SPECIAL])
    path = tmp_path / "pi.csv"
    csvio.write_csv(str(path), ("state", "probability"), "%d,%.17g\n",
                    csvio.chunked(np.arange(len(mu)), mu))
    assert_rows(path, ("state", "probability"), [(i, float(v)) for i, v in enumerate(mu)])


@pytest.mark.parametrize("n", [1, 4, 11])
def test_stable_equilibrium(tmp_path, rng, chunk, n):
    par = NetworkParams(2, rng.uniform(0.2, 0.8, n), rng.uniform(0.1, 1.0, n),
                        rng.uniform(0.1, 1.0, n))
    eq = equilibrium(build_linear_system(par, random_interaction(rng, n)))
    path = tmp_path / "eq.csv"
    save_equilibrium_csv(eq, str(path))
    rows = [(j, float(v)) for j, v in enumerate(eq.per_urn)]
    assert_rows(path, ("urn", "value"), rows + [("spectral_radius", eq.spectral_radius)])


def test_equilibrium_special_values(tmp_path, chunk):
    eq = Equilibrium(per_urn=np.array(SPECIAL), full=None, spectral_radius=1 / 3, residual=0.0)
    path = tmp_path / "eq.csv"
    save_equilibrium_csv(eq, str(path))
    rows = [(j, float(v)) for j, v in enumerate(SPECIAL)]
    assert_rows(path, ("urn", "value"), rows + [("spectral_radius", 1 / 3)])


def test_declined_equilibrium(tmp_path, chunk):
    summary = run(config_from_dict({
        "schema_version": 1,
        "network": {"kind": "identity", "nodes": 1},
        "memory": 2, "initial_red": [1], "initial_total": [100],
        "reinforce_red": [9900], "reinforce_black": [0],
        "modes": ["equilibrium"], "out_prefix": str(tmp_path / "run"),
    }))
    assert summary["equilibrium_declined"]
    assert_rows(tmp_path / "run_equilibrium.csv", ("urn", "value"),
                [("spectral_radius", summary["spectral_radius"])])


@pytest.mark.parametrize("n_nodes", [2, 7, 40])
def test_edge_list(tmp_path, chunk, n_nodes):
    adj = barabasi_albert(n_nodes, 1, seed=n_nodes)
    weights = [5e-324, 1e300, 1 / 3, -1e-310, 0.25]
    for k, (u, v) in enumerate(zip(*np.nonzero(np.triu(adj)))):
        adj[u, v] = adj[v, u] = weights[k % len(weights)]
    path = tmp_path / "g_edges.csv"
    save_edge_list(adj, str(path))
    assert_rows(path, ("u", "v", "weight"),
                [(u, v, float(adj[u, v])) for u in range(n_nodes)
                 for v in range(u + 1, n_nodes) if adj[u, v] != 0])


@pytest.mark.parametrize("shape", [(1, 1), (4, 5), (9, 9)])
def test_matrix(tmp_path, rng, chunk, shape):
    mat = rng.random(shape)
    flat = mat.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    flat[-1] = 2.5e-310
    path = tmp_path / "S.csv"
    save_matrix(mat, str(path))
    assert_rows(path, None, [[float(x) for x in row] for row in mat])
