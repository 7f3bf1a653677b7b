"""Interaction-matrix builders, the edge-list writer and matrix round-trips."""

import tracemalloc
import warnings

import numpy as np
import pytest

from polyanet.networks import (
    barabasi_albert,
    complete,
    identity,
    load_matrix,
    ring,
    row_normalize,
    save_edge_list,
    save_matrix,
)

from conftest import barabasi_albert_by_draws


class TestBarabasiAlbert:
    def test_edge_count_formula(self):
        # complete core on attach+1 nodes, then attach edges per new node
        for n, m in ((10, 1), (10, 2), (100, 2), (50, 3)):
            adj = barabasi_albert(n, m, seed=1)
            expected = m * (m + 1) // 2 + m * (n - m - 1)
            assert int(adj.sum()) // 2 == expected

    def test_deterministic_given_seed(self):
        a = barabasi_albert(40, 2, seed=9)
        b = barabasi_albert(40, 2, seed=9)
        c = barabasi_albert(40, 2, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n_nodes", [4, 10, 100, 500])
    @pytest.mark.parametrize("attach", [1, 2, 3])
    def test_matches_per_draw_sums(self, n_nodes, attach):
        # one cumulative sum per node, less each picked weight, draws the
        # same targets as a fresh sum and cumsum per draw
        for seed in range(40 if n_nodes < 500 else 8):
            assert np.array_equal(barabasi_albert(n_nodes, attach, seed),
                                  barabasi_albert_by_draws(n_nodes, attach, seed))

    def test_symmetric_no_self_loops(self):
        adj = barabasi_albert(60, 2, seed=3)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_new_nodes_link_to_distinct_targets(self):
        adj = barabasi_albert(30, 3, seed=7)
        # every node outside the core has degree >= attach
        assert np.all(adj.sum(axis=1)[3:] >= 3)

    def test_hub_emerges(self):
        adj = barabasi_albert(200, 2, seed=5)
        degrees = adj.sum(axis=1)
        assert degrees.max() >= 5 * np.median(degrees)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 0, seed=1)
        with pytest.raises(ValueError):
            barabasi_albert(2, 2, seed=1)


class TestFixedTopologies:
    def test_ring_is_shift_matrix(self):
        S = ring(4)
        assert S.tolist() == [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ]

    def test_complete_off_diagonal(self):
        adj = complete(3)
        assert np.all(np.diag(adj) == 0)
        assert adj.sum() == 6

    def test_identity(self):
        assert np.array_equal(identity(3), np.eye(3))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ring(1)
        with pytest.raises(ValueError):
            complete(0)


class TestRowNormalize:
    def test_rows_sum_to_one(self, rng):
        adj = barabasi_albert(30, 2, seed=2)
        S = row_normalize(adj)
        assert np.allclose(S.sum(axis=1), 1.0, atol=1e-12)

    def test_self_weight_added(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        S = row_normalize(adj, self_weight=1.0)
        assert np.allclose(S, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node_raises(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = adj[1, 0] = 0.0
        with pytest.raises(ValueError, match="zero total"):
            row_normalize(adj)

    def test_isolated_node_ok_with_self_weight(self):
        S = row_normalize(np.zeros((3, 3)), self_weight=2.0)
        assert np.array_equal(S, np.eye(3))

    @pytest.mark.parametrize("self_weight", [0.0, 1.0, 2.5])
    def test_equals_identity_sum_bit_for_bit(self, rng, self_weight):
        # the plain formula (A + w I) / row totals, with -0.0 entries
        # turned into +0.0 as that sum does; the input is left unchanged
        adj = rng.random((7, 7)) * (rng.random((7, 7)) < 0.5) + np.eye(7)
        adj[(rng.random((7, 7)) < 0.3) & ~np.eye(7, dtype=bool)] = -0.0
        before = adj.copy()
        work = adj + self_weight * np.eye(7)
        expected = work / work.sum(axis=1)[:, None]
        S = row_normalize(adj, self_weight)
        assert S.tobytes() == expected.tobytes()
        assert not np.any(np.signbit(S))
        assert adj.tobytes() == before.tobytes()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            row_normalize(-np.eye(2))
        with pytest.raises(ValueError):
            row_normalize(np.eye(2), self_weight=-0.5)


class TestRoundTrips:
    @pytest.mark.parametrize("n_nodes", [7, 50, 300])
    def test_edge_list_bytes_match_loop_writer(self, tmp_path, n_nodes):
        adj = barabasi_albert(n_nodes, 2, seed=n_nodes)
        adj[0, n_nodes - 1] = adj[n_nodes - 1, 0] = 0.25  # a non-unit weight
        lines = ["u,v,weight"]
        for u in range(n_nodes):
            for v in range(u + 1, n_nodes):
                if adj[u, v] != 0:
                    lines.append(f"{u},{v},{float(adj[u, v]):.17g}")
        path = tmp_path / "g_edges.csv"
        save_edge_list(adj, str(path))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_edge_list_memory_is_linear(self, tmp_path):
        # as gen-network does, on the boolean S > 0: the edges of a complete
        # graph are written without an N x N float64 (8 N^2 bytes) copy
        n_nodes = 1000
        adj = complete(n_nodes) > 0
        tracemalloc.start()
        try:
            save_edge_list(adj, str(tmp_path / "g_edges.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_nodes**2

    def test_matrix_round_trip_exact(self, tmp_path, rng):
        S = row_normalize(barabasi_albert(12, 2, seed=4), self_weight=1.0)
        path = tmp_path / "S_matrix.csv"
        save_matrix(S, str(path))
        back = load_matrix(str(path))
        assert np.array_equal(S, back)

    def test_matrix_single_row(self, tmp_path):
        save_matrix(np.array([[1.0]]), str(tmp_path / "one.csv"))
        back = load_matrix(str(tmp_path / "one.csv"))
        assert back.shape == (1, 1)

    @pytest.mark.parametrize("content", ["", "\n", "# a comment\n"],
                             ids=["empty", "blank-line", "comment"])
    def test_empty_matrix_file_refused_without_a_warning(self, tmp_path, content):
        path = tmp_path / "S.csv"
        path.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="holds no matrix rows"):
                load_matrix(str(path))
