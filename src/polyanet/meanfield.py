"""Mean-field dynamical systems approximating the draw process.

The one-step map sends the last M per-urn infection probabilities to
the next vector.  Its defining form is an expectation over every joint
outcome of the N*M window bits; per urn that collapses to a polynomial
in the urn's M lags, evaluated here through elementary symmetric
functions with alternating binomial coefficients of the red-ratio
table, at O(N*M^2 + N^2) cost.  The coefficients depend only on the
parameters, so :func:`iterate` computes them once per run and
:func:`step_nonlinear` is the same map for a single, validated step.

Dropping every term of degree >= 2 yields the linear variant, whose
block companion matrix, spectral radius and equilibrium live here too.
For memory 1 the nonlinear map is already affine, so both variants
coincide; with the identity interaction matrix it reproduces the exact
chain marginals step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .csvio import write_csv, write_curve_csv
from .errors import ConvergenceError, UnstableSystemError
from .params import (
    NetworkParams,
    check_interaction_matrix,
    clamp_probability,
    red_ratio_table,
)

DENSE_LIMIT = 4096
RESIDUAL_TOL = 1e-10


def _check_history(history, params: NetworkParams) -> np.ndarray:
    hist = np.asarray(history, dtype=float)
    expected = (params.memory, params.n_urns)
    if hist.shape != expected:
        raise ValueError(
            f"history must have shape (memory, n_urns) = {expected}, got {hist.shape}"
        )
    return clamp_probability(hist, what="history probabilities")


def _symmetric_polys(history: np.ndarray) -> np.ndarray:
    """Elementary symmetric polynomials of each urn's M lags, (N, M+1)."""
    M, N = history.shape
    E = np.zeros((N, M + 1))
    E[:, 0] = 1.0
    for l in range(M):
        x = history[l]
        for n in range(min(l + 1, M), 0, -1):
            E[:, n] += E[:, n - 1] * x
    return E


def _difference_coeffs(table: np.ndarray) -> np.ndarray:
    """Alternating binomial combinations of the red-ratio table.

    Column n holds sum_{k<=n} (-1)**(n-k) C(n,k) table[:, k]; these are
    the coefficients of the degree-n symmetric products in the
    polynomial form of the map (column 0 is the constant term).
    """
    M = table.shape[1] - 1
    coeffs = np.zeros_like(table)
    for n in range(M + 1):
        for k in range(n + 1):
            coeffs[:, n] += ((-1) ** (n - k)) * comb(n, k) * table[:, k]
    return coeffs


def _nonlinear_map(params: NetworkParams, S: np.ndarray):
    """The map as a function of a checked history, for a checked ``S``.

    Per urn j the expectation over window outcomes collapses to
    ``beta_j(0) + sum_n coeff_j(n) * e_n(lags of j)`` with ``e_n`` the
    elementary symmetric polynomial, after which the interaction matrix
    mixes the per-urn values.  The coefficients are computed here, once.
    """
    coeffs = _difference_coeffs(red_ratio_table(params))

    def step(hist: np.ndarray) -> np.ndarray:
        per_urn = (coeffs * _symmetric_polys(hist)).sum(axis=1)
        return clamp_probability(S @ per_urn, what="infection probabilities")

    return step


def step_nonlinear(history, params: NetworkParams, S) -> np.ndarray:
    """One step of the map from ``history[l-1][j]``, urn j's infection
    probability l steps back."""
    S = check_interaction_matrix(S)
    return _nonlinear_map(params, S)(_check_history(history, params))


@dataclass
class LinearSystem:
    """Affine system P~(t) = J @ P~(t-1) + C from dropping history terms
    of degree >= 2.

    For memory 1 the state is the N infection probabilities themselves.
    For memory M > 1 the state stacks per urn the M most recent values
    (newest first); each N x M diagonal block carries the coefficient
    row on top of a shifted identity, off-diagonal blocks only the
    coefficient row.
    """

    J: np.ndarray
    C: np.ndarray
    n_urns: int
    memory: int


def build_linear_system(params: NetworkParams, S) -> LinearSystem:
    S = check_interaction_matrix(S)
    if S.shape[0] != params.n_urns:
        raise ValueError("interaction matrix size does not match params")
    N, M = params.n_urns, params.memory
    table = red_ratio_table(params)
    slope = table[:, 1] - table[:, 0]  # per-urn coefficient of each lag
    # J[i*M + a, j*M + b] is blocks[i, a, j, b]: the top row of block
    # (i, j) weighs every lag of urn j, and the diagonal blocks shift
    # urn i's lags down by one.
    J = np.zeros((N * M, N * M))
    blocks = J.reshape(N, M, N, M)
    blocks[:, 0] = (S * slope[None, :])[:, :, None]
    urns, lags = np.ix_(np.arange(N), np.arange(M - 1))
    blocks[urns, lags + 1, urns, lags] = 1.0
    C = np.zeros(N * M)
    C[::M] = S @ table[:, 0]
    return LinearSystem(J=J, C=C, n_urns=N, memory=M)


class SpectralRadiusEstimate(NamedTuple):
    value: float
    converged: bool


def spectral_radius(
    J,
    rtol: float = 1e-9,
    max_iters: int = 20000,
    allow_dense: bool = True,
) -> SpectralRadiusEstimate:
    """Dominant eigenvalue magnitude of a square matrix.

    Power iteration with a residual stopping rule; when it stalls (for
    example a dominant complex pair) and the matrix is small enough, an
    exact dense eigenvalue computation takes over.  If neither route
    converges the row-sum norm is returned with ``converged=False`` as
    a guaranteed upper bound.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError("matrix must be square")
    n = J.shape[0]
    x = np.random.default_rng(0).standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(max_iters):
        y = J @ x
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return SpectralRadiusEstimate(0.0, True)
        resid = min(
            float(np.linalg.norm(y - r * x)),
            float(np.linalg.norm(y + r * x)),
        )
        if resid <= rtol * max(r, 1e-30):
            return SpectralRadiusEstimate(r, True)
        x = y / r
    if allow_dense and n <= DENSE_LIMIT:
        return SpectralRadiusEstimate(
            float(np.max(np.abs(np.linalg.eigvals(J)))), True
        )
    bound = float(np.max(np.abs(J).sum(axis=1)))
    return SpectralRadiusEstimate(bound, False)


@dataclass
class Equilibrium:
    per_urn: np.ndarray
    full: np.ndarray
    spectral_radius: float
    residual: float


def equilibrium(system: LinearSystem) -> Equilibrium:
    """Fixed point of the affine system when it is a contraction.

    Raises :class:`UnstableSystemError` with the measured spectral
    radius when it is >= 1; callers should report the radius instead of
    an equilibrium in that case.
    """
    est = spectral_radius(system.J)
    if est.value >= 1.0:
        raise UnstableSystemError(est.value)
    n = system.J.shape[0]
    A = np.eye(n) - system.J
    if n <= DENSE_LIMIT:
        x = np.linalg.solve(A, system.C)
    else:
        x = system.C.copy()
        for _ in range(10**6):
            nxt = system.J @ x + system.C
            if float(np.max(np.abs(nxt - x))) <= 1e-14:
                x = nxt
                break
            x = nxt
        else:
            raise ConvergenceError("fixed-point iteration for equilibrium stalled")
    residual = float(np.max(np.abs(A @ x - system.C)))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"equilibrium residual {residual:.3e} above {RESIDUAL_TOL}"
        )
    per_urn = x[:: system.memory] if system.memory > 1 else x.copy()
    return Equilibrium(
        per_urn=per_urn, full=x, spectral_radius=est.value, residual=residual
    )


@dataclass
class InfectionTrajectory:
    """Per-time infection probabilities; rows are times 1..t_max."""

    times: np.ndarray
    per_urn: np.ndarray
    network_avg: np.ndarray
    system: str


def iterate(
    kind: str,
    params: NetworkParams,
    S,
    t_max: int,
    initial_history=None,
) -> InfectionTrajectory:
    """Run the nonlinear or linear system for ``t_max`` steps.

    The first M values P(0), ..., P(M-1) come from ``initial_history``
    (all zeros by default, the convention used throughout: nobody is
    infected before the process starts); the recursion produces
    P(M), P(M+1), ...  Linear trajectories are reported unclamped: once
    the approximation degrades they may legitimately leave [0, 1].
    """
    if kind not in ("nonlinear", "linear"):
        raise ValueError(f"kind must be 'nonlinear' or 'linear', got {kind!r}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    S = check_interaction_matrix(S)
    N, M = params.n_urns, params.memory
    if initial_history is None:
        hist = np.zeros((M, N))
    else:
        hist = _check_history(initial_history, params)
    per = np.zeros((t_max, N))
    # Times 1..M-1 replay the supplied history (row l is the value at
    # time M-1-l).
    for t in range(1, min(M, t_max + 1)):
        per[t - 1] = hist[M - 1 - t]
    if kind == "nonlinear":
        step = _nonlinear_map(params, S)
        work = hist.copy()
        for t in range(M, t_max + 1):
            per[t - 1] = step(work)
            work[1:] = work[:-1]
            work[0] = per[t - 1]
    else:
        system = build_linear_system(params, S)
        state = hist.T.reshape(-1)
        for t in range(M, t_max + 1):
            state = system.J @ state + system.C
            per[t - 1] = state[::M]
    times = np.arange(1, t_max + 1)
    return InfectionTrajectory(
        times=times,
        per_urn=per,
        network_avg=per.mean(axis=1),
        system=f"meanfield-{kind}",
    )


def save_trajectory_csv(traj: InfectionTrajectory, path: str) -> None:
    """Curve CSV: time, urn (or "avg"), probability, system label."""
    write_curve_csv(
        path, ("time", "urn", "p", "system"), traj.times, traj.per_urn,
        traj.network_avg, traj.system,
    )


def save_equilibrium_csv(eq: Equilibrium, path: str) -> None:
    """Per-urn equilibrium rows followed by one spectral-radius line."""
    rows = [(j, float(v)) for j, v in enumerate(eq.per_urn)]
    rows.append(("spectral_radius", float(eq.spectral_radius)))
    write_csv(path, ("urn", "value"), rows)
