"""Mean-field dynamical systems approximating the draw process.

The one-step map sends the last M per-urn infection probabilities to
the next vector.  Its defining form is an expectation over every joint
outcome of the N*M window bits; per urn that collapses to the blossom
of the Bernstein polynomial whose control points are the urn's row of
the red-ratio table, taken at the urn's M lags.  De Casteljau's
algorithm evaluates it with convex combinations only, at
O(N*M^2 + N^2) cost.  :func:`iterate` reads the table once per run and
:func:`step_nonlinear` is the same map for a single, validated step.

Dropping every term of degree >= 2 yields the linear variant, whose
slope per lag is the table's first forward difference.  It is kept as
the N x N matrix A = S @ diag(slope) >= 0 and stepped through a
structured companion product: no (N*M)**2 matrix is formed, the
equilibrium is an N x N solve, and it is stable iff M * rho(A) < 1.
For memory 1 the nonlinear map is already affine, so both variants
coincide and reproduce the exact chain marginals step for step, for
any interaction matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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


def _nonlinear_map(params: NetworkParams, S: np.ndarray):
    """The map as a function of a checked history, for a checked ``S``.

    Per urn the expectation over window outcomes is the blossom of the
    Bernstein polynomial whose control points are the urn's table row,
    evaluated at its M lags by de Casteljau's algorithm: each lag x
    replaces the control points by the convex combinations
    ``(1 - x) * v[k] + x * v[k + 1]``, one fewer per lag, so no
    cancellation builds up at any M.  The interaction matrix then mixes
    the per-urn values.
    """
    table = red_ratio_table(params).T  # (M+1, N): control points per urn

    def step(hist: np.ndarray) -> np.ndarray:
        v = table.copy()
        for n, x in zip(range(len(hist), 0, -1), hist):
            v[:n] += x * (v[1 : n + 1] - v[:n])
        return clamp_probability(S @ v[0], what="infection probabilities")

    return step


def step_nonlinear(history, params: NetworkParams, S) -> np.ndarray:
    """One step of the map from ``history[l-1][j]``, urn j's infection
    probability l steps back."""
    S = check_interaction_matrix(S)
    return _nonlinear_map(params, S)(_check_history(history, params))


@dataclass
class LinearSystem:
    """Affine system P~(t) = J @ P~(t-1) + C from dropping history terms
    of degree >= 2, kept as A = S @ diag(slope) (N x N) and c = S @ table[:, 0].

    The state holds per urn its M most recent values, newest first,
    urn-major (entry ``j * M + l`` is urn j, l steps back).  J is never
    formed: :meth:`apply` puts A @ (each urn's lag sum) in the newest
    lag and shifts the other lags down by one; C is ``c`` on the newest.
    """

    A: np.ndarray
    c: np.ndarray
    n_urns: int
    memory: int

    def newest(self, lags) -> np.ndarray:
        """Newest lag of J @ x from the M rows of x's lags, newest first,
        summed row by row so that :meth:`apply` and :func:`iterate` agree."""
        return self.A @ reduce(np.add, lags)

    def apply(self, x) -> np.ndarray:
        """J @ x for a state of N*M values, returned in the shape of ``x``."""
        X = np.reshape(x, (self.n_urns, self.memory))
        Y = np.empty_like(X)
        Y[:, 0] = self.newest(X.T)
        Y[:, 1:] = X[:, :-1]
        return Y.reshape(np.shape(x))


def build_linear_system(params: NetworkParams, S) -> LinearSystem:
    S = check_interaction_matrix(S)
    if S.shape[0] != params.n_urns:
        raise ValueError("interaction matrix size does not match params")
    table = red_ratio_table(params)
    slope = table[:, 1] - table[:, 0]  # per-urn coefficient of each lag
    return LinearSystem(S * slope[None, :], S @ table[:, 0], params.n_urns, params.memory)


class SpectralRadiusEstimate(NamedTuple):
    value: float
    converged: bool


def spectral_radius(
    system: LinearSystem, rtol: float = 1e-9, max_iters: int = 2000, allow_dense: bool = True
) -> SpectralRadiusEstimate:
    """Dominant eigenvalue magnitude of the system's companion operator J.

    Power iteration on :meth:`LinearSystem.apply` with a residual
    stopping rule.  When it stalls (for example a dominant +- pair) and
    A is small enough, J's eigenvalues are taken exactly: the roots of
    lambda**M = mu * (lambda**(M-1) + ... + 1) over the eigenvalues mu
    of A.  Otherwise J's row-sum norm is returned with
    ``converged=False`` as a guaranteed upper bound.
    """
    A = np.asarray(system.A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N, M = A.shape[0], system.memory
    x = np.random.default_rng(0).standard_normal(N * M)
    x /= np.linalg.norm(x)
    for _ in range(max_iters):
        y = system.apply(x)
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return SpectralRadiusEstimate(0.0, True)
        resid = min(float(np.linalg.norm(y - r * x)), float(np.linalg.norm(y + r * x)))
        if resid <= rtol * max(r, 1e-30):
            return SpectralRadiusEstimate(r, True)
        x = y / r
    if allow_dense and N <= DENSE_LIMIT:
        # One M x M companion matrix per eigenvalue of A.
        companion = np.zeros((N, M, M), dtype=complex)
        companion[:, 0, :] = np.linalg.eigvals(A)[:, None]
        lags = np.arange(M - 1)
        companion[:, lags + 1, lags] = 1.0
        return SpectralRadiusEstimate(float(np.max(np.abs(np.linalg.eigvals(companion)))), True)
    bound = M * float(np.max(np.abs(A).sum(axis=1)))  # the shift rows sum to 1
    return SpectralRadiusEstimate(max(bound, 1.0) if M > 1 else bound, False)


@dataclass
class Equilibrium:
    per_urn: np.ndarray
    full: np.ndarray
    spectral_radius: float
    residual: float


def equilibrium(system: LinearSystem) -> Equilibrium:
    """Fixed point of the affine system when it is a contraction.

    Every lag of an urn holds the same value x at a fixed point, so x
    solves the N x N system (I - M*A) x = c.  Raises
    :class:`UnstableSystemError` with the spectral radius when it is
    >= 1 (M * rho(A) >= 1, as A >= 0), and with radius 1 when the
    estimate falls just short of 1 but I - M*A is singular; callers
    should report the radius instead of an equilibrium in that case.
    Raises :class:`ConvergenceError` naming the bound when the radius is
    only bounded, since a bound decides neither stability nor the radius.
    """
    est = spectral_radius(system)
    if not est.converged:
        raise ConvergenceError(f"power iteration stalled; radius only bounded by {est.value:.6g}")
    if est.value >= 1.0:
        raise UnstableSystemError(est.value)
    N, M = system.n_urns, system.memory
    lhs = -M * system.A
    lhs.flat[:: N + 1] += 1.0  # I - M*A
    try:
        per_urn = np.linalg.solve(lhs, system.c)
    except np.linalg.LinAlgError:  # M * rho(A) = 1 to rounding
        raise UnstableSystemError(max(est.value, 1.0)) from None
    full = np.repeat(per_urn, M)
    residual = float(np.max(np.abs(system.apply(full)[::M] + system.c - per_urn)))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(f"equilibrium residual {residual:.3e} above {RESIDUAL_TOL}")
    return Equilibrium(per_urn, full, est.value, residual)


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
    # Row t holds time t; rows 0..M-1 replay the history (its row l is
    # time M-1-l), and each step reads the last M rows newest first.
    vals = np.zeros((max(t_max + 1, M), N))
    vals[:M] = hist[::-1]
    if kind == "nonlinear":
        step = _nonlinear_map(params, S)
    else:
        system = build_linear_system(params, S)
        step = lambda lags: system.newest(lags) + system.c  # noqa: E731
    for t in range(M, t_max + 1):
        vals[t] = step(vals[t - M : t][::-1])
    per = vals[1 : t_max + 1]
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
    record = "".join(f"{j},%.17g\n" for j in range(len(eq.per_urn))) + "spectral_radius,%.17g\n"
    write_csv(path, ("urn", "value"), record, [(np.append(eq.per_urn, eq.spectral_radius)[None],)])
