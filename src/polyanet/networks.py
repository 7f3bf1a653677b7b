"""Interaction-matrix builders, the edge-list writer and the matrix CSV
writer and reader."""

from __future__ import annotations

import warnings

import numpy as np

from .csvio import chunked, write_csv
from .params import check_interaction_matrix


def barabasi_albert(n_nodes: int, attach: int, seed: int) -> np.ndarray:
    """Preferential-attachment graph as a symmetric 0/1 adjacency matrix.

    Starts from a complete graph on ``attach + 1`` nodes; every later
    node links to ``attach`` distinct existing nodes, chosen without
    replacement with probability proportional to current degree.  The
    same ``(n_nodes, attach, seed)`` always yields the same edge set.

    Parameters
    ----------
    n_nodes : int
        Total number of nodes, at least ``attach + 1``.
    attach : int
        Edges added per new node, at least 1.
    seed : int
        Seed for the attachment draws.
    """
    core = attach + 1
    if attach < 1:
        raise ValueError("attach must be at least 1")
    if n_nodes < core:
        raise ValueError(f"n_nodes must be at least attach + 1 = {core}")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n_nodes, n_nodes))
    adj[:core, :core] = 1.0
    np.fill_diagonal(adj, 0.0)
    degree = adj.sum(axis=1)
    # Every draw's uniform at once: the same stream as one call per draw.
    uniforms = rng.random((n_nodes - core, attach)).tolist()
    for u, draws in zip(range(core, n_nodes), uniforms):
        # Cumulative degrees, taken once per node; a picked node's weight
        # leaves the tail.  Degrees are integers, so every partial sum is
        # exact and cum[-1] is the total of the remaining weights.
        cum = np.cumsum(degree[:u])
        targets = []
        for uniform in draws:
            r = uniform * cum[-1]
            j = min(int(cum.searchsorted(r, "right")), u - 1)
            targets.append(j)
            cum[j:] -= cum[j] - (cum[j - 1] if j else 0.0)
        for j in targets:
            adj[u, j] = adj[j, u] = 1.0
            degree[j] += 1
        degree[u] = attach
    return adj


def ring(n_nodes: int) -> np.ndarray:
    """Directed cycle: urn i listens only to urn i+1 (mod n)."""
    if n_nodes < 2:
        raise ValueError("ring needs at least 2 nodes")
    return np.roll(np.eye(n_nodes), 1, axis=1)


def complete(n_nodes: int) -> np.ndarray:
    """Complete-graph adjacency (all ones off the diagonal)."""
    if n_nodes < 1:
        raise ValueError("complete needs at least 1 node")
    adj = np.ones((n_nodes, n_nodes))
    np.fill_diagonal(adj, 0.0)
    return adj


def identity(n_nodes: int) -> np.ndarray:
    """No interaction: every urn listens only to itself."""
    if n_nodes < 1:
        raise ValueError("identity needs at least 1 node")
    return np.eye(n_nodes)


def row_normalize(adjacency, self_weight: float = 0.0) -> np.ndarray:
    """Turn a weighted adjacency into a row-stochastic interaction matrix.

    Adds ``self_weight`` to every diagonal entry, then divides each row
    by its total.  A row whose total is zero (isolated node without a
    self loop) has no valid draw distribution and raises.  The argument
    is left as it is: the result is one N x N copy.
    """
    return _normalize_in_place(np.array(adjacency, dtype=float), self_weight)


def _normalize_in_place(adj: np.ndarray, self_weight: float) -> np.ndarray:
    """:func:`row_normalize` of a float64 adjacency that it overwrites."""
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if np.any(adj < 0) or self_weight < 0:
        raise ValueError("weights must be nonnegative")
    adj += 0.0  # turns -0.0 into +0.0
    adj.flat[:: adj.shape[0] + 1] += self_weight
    totals = adj.sum(axis=1)
    if np.any(totals == 0):
        bad = int(np.argmin(totals))
        raise ValueError(f"row {bad} has zero total weight; cannot normalize")
    adj /= totals[:, None]
    return check_interaction_matrix(adj)


def save_edge_list(adjacency, path: str) -> None:
    """Write the upper triangle of a symmetric adjacency as u,v,weight rows,
    one matrix row at a time, so the memory beyond the adjacency is O(N)."""
    adj = np.asarray(adjacency)
    upper = (np.flatnonzero(adj[u, u + 1 :]) + (u + 1) for u in range(adj.shape[0]))
    chunks = ((u, vs, adj[u, vs].astype(float)) for u, vs in enumerate(upper))
    write_csv(path, ("u", "v", "weight"), "%d,%d,%.17g\n", chunks)


def save_matrix(matrix, path: str) -> None:
    """Dense CSV dump, one row per line, 17 significant digits."""
    mat = np.asarray(matrix, dtype=float)
    write_csv(path, None, ",".join(["%.17g"] * mat.shape[1]) + "\n", chunked(mat))


def load_matrix(path: str) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file of no rows
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except UserWarning:
            raise ValueError(f"{path} holds no matrix rows") from None
