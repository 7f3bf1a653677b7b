"""Mean-field dynamical systems approximating the draw process.

The one-step map sends the last M per-urn infection probabilities to
the next vector.  Two equivalent evaluations are provided:

* :func:`step_direct` sums over every joint outcome of the N*M window
  bits (the defining expectation, exponential cost, kept as an oracle);
* :func:`step_nonlinear` evaluates the same polynomial per urn through
  elementary symmetric functions of its M lags with alternating
  binomial coefficients, at O(N*M^2 + N^2) cost.

Dropping every term of degree >= 2 yields the linear variant, whose
block companion matrix, spectral radius and equilibrium live here too.
For memory 1 the nonlinear map is already affine, so both variants
coincide; with the identity interaction matrix it reproduces the exact
chain marginals step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .csvio import write_csv, write_curve_csv
from .errors import CapExceededError, ConvergenceError, UnstableSystemError
from .params import (
    NetworkParams,
    check_interaction_matrix,
    clamp_probability,
    red_ratio_table,
)

DIRECT_CAP_BITS = 20
DENSE_LIMIT = 4096
RESIDUAL_TOL = 1e-10


def enumerate_lag_subsets(n: int, memory: int) -> list[tuple[int, ...]]:
    """All size-``n`` subsets of the lags {1, ..., memory}, sorted.

    These index the degree-``n`` products of lagged probabilities in the
    polynomial form of the map; there are C(memory, n) of them.
    """
    if not 1 <= n <= memory:
        raise ValueError(f"subset size must lie in [1, {memory}], got {n}")
    return list(combinations(range(1, memory + 1), n))


def _check_history(history, params: NetworkParams) -> np.ndarray:
    hist = np.asarray(history, dtype=float)
    expected = (params.memory, params.n_urns)
    if hist.shape != expected:
        raise ValueError(
            f"history must have shape (memory, n_urns) = {expected}, got {hist.shape}"
        )
    return clamp_probability(hist, what="history probabilities")


def _outcome_weights(states: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Joint Bernoulli weights prod_b (b set ? q_b : 1-q_b) per state."""
    positions = np.arange(len(q), dtype=np.int64)
    bitsmat = ((states[:, None] >> positions[None, :]) & 1).astype(float)
    return np.prod(bitsmat * q + (1.0 - bitsmat) * (1.0 - q), axis=1)


def configuration_weights(history, params: NetworkParams) -> np.ndarray:
    """Probability of every joint window outcome, indexed by state word.

    Entry ``a`` is the product over all N*M window bits of the bit's
    Bernoulli probability (``history`` value if set, complement if
    clear).  The entries sum to one: the outcomes partition the sample
    space, whatever the table of probabilities.
    """
    hist = _check_history(history, params)
    bits = params.n_urns * params.memory
    if bits > DIRECT_CAP_BITS:
        raise CapExceededError(
            f"weight enumeration needs {bits} bits; cap is {DIRECT_CAP_BITS}"
        )
    q = hist.T.reshape(-1)  # position j*M + l
    return _outcome_weights(np.arange(1 << bits, dtype=np.int64), q)


def step_direct(history, params: NetworkParams, S) -> np.ndarray:
    """One step of the map by full enumeration of window outcomes.

    ``history[l-1][j]`` is urn j's infection probability l steps back.
    Treating window bits as independent Bernoulli draws with those
    probabilities, the new vector is the expectation of the per-urn red
    probability over all 2**(N*M) joint outcomes.  Exponential cost;
    use :func:`step_nonlinear` for anything but verification.
    """
    S = check_interaction_matrix(S)
    hist = _check_history(history, params)
    N, M = params.n_urns, params.memory
    bits = N * M
    if bits > DIRECT_CAP_BITS:
        raise CapExceededError(
            f"direct enumeration needs {bits} bits; cap is {DIRECT_CAP_BITS}"
        )
    # Bernoulli weight of bit (j, lag l) taken from history row l.
    q = hist.T.reshape(-1)  # position j*M + l
    table = red_ratio_table(params)
    out = np.zeros(N)
    chunk = 1 << min(bits, 16)
    for start in range(0, 1 << bits, chunk):
        states = np.arange(start, min(start + chunk, 1 << bits), dtype=np.int64)
        weights = _outcome_weights(states, q)
        bitsmat = ((states[:, None] >> np.arange(bits, dtype=np.int64)[None, :]) & 1)
        counts = bitsmat.reshape(len(states), N, M).sum(axis=2).astype(np.int64)
        vals = table[np.arange(N)[None, :], counts]
        out += weights @ (vals @ S.T)
    return clamp_probability(out, what="infection probabilities")


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


def step_nonlinear(history, params: NetworkParams, S) -> np.ndarray:
    """One step of the map in polynomial form; equals :func:`step_direct`.

    Per urn j the enumeration collapses to
    ``beta_j(0) + sum_n coeff_j(n) * e_n(lags of j)`` with ``e_n`` the
    elementary symmetric polynomial, after which the interaction matrix
    mixes the per-urn values.
    """
    S = check_interaction_matrix(S)
    hist = _check_history(history, params)
    table = red_ratio_table(params)
    coeffs = _difference_coeffs(table)
    E = _symmetric_polys(hist)
    per_urn = (coeffs * E).sum(axis=1)
    return clamp_probability(S @ per_urn, what="infection probabilities")


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
    const = S @ table[:, 0]
    if M == 1:
        return LinearSystem(J=S * slope[None, :], C=const, n_urns=N, memory=1)
    J = np.zeros((N * M, N * M))
    C = np.zeros(N * M)
    for i in range(N):
        r0 = i * M
        C[r0] = const[i]
        for j in range(N):
            c0 = j * M
            J[r0, c0 : c0 + M] = S[i, j] * slope[j]
        J[r0 + 1 : r0 + M, r0 : r0 + M - 1] += np.eye(M - 1)
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
        work = hist.copy()
        for t in range(M, t_max + 1):
            new = step_nonlinear(work, params, S)
            per[t - 1] = new
            work = np.vstack([new[None, :], work[:-1]])
    else:
        system = build_linear_system(params, S)
        state = hist.T.reshape(-1) if M > 1 else hist[0].copy()
        for t in range(M, t_max + 1):
            state = system.J @ state + system.C
            per[t - 1] = state[::M] if M > 1 else state
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
