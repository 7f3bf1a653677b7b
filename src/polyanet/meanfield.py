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
Every linear step sums its lags row by row in one buffer, in the same
order in :func:`iterate`, :meth:`LinearSystem.apply` and the power
iteration of :func:`spectral_radius`, which reuses its vectors too.
That iteration multiplies by A through A's nonzeros when at most one
entry in ``NONZERO_PRODUCT_RATIO`` (16) is nonzero, as on a contact
network, and through the dense BLAS product otherwise; the nonzero
product sums each row in another order, so a sparse A's radius may
differ from the dense product's by a few ulps (at most 3 in 6 000 draws
of contact networks of 16 to 600 urns).
For memory 1 the nonlinear map is already affine, so both variants
coincide and reproduce the exact chain marginals step for step, for
any interaction matrix.

Both systems step on buffers allocated once per run.  Each loop walks
the trajectory's rows as views, one at a time, and keeps the last M of
them, newest first, in a ``deque(maxlen=M)`` that every step reads and
then pushes its row onto, so no step slices the trajectory; the ufuncs
are bound once per run.  A nonlinear step writes its unclamped row,
clips it into the trajectory, and the raw rows are checked by one
:func:`clamp_probability` call after the last step, so an overshoot
past the tolerance (or a NaN) raises at the end of the run and a clamp
is logged once per run.

A converging trajectory reaches its equilibrium exactly in floating
point: its rows stop changing.  Both loops step in chunks of 64 rows and
stop once the last M + 1 rows are bitwise equal.  That last row r was
then computed from a window of M copies of r, and a step reads nothing
but its window, so every later row is r as well; the rest of the
trajectory is filled with r and is bit for bit what stepping would give.
:func:`_chunks` makes that stop, with the caller's test of a settled
chunk; the exact chain's trajectory steps through it too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
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
# The power iteration multiplies by A through its nonzeros when at most
# one entry in this many is nonzero (see spectral_radius).
NONZERO_PRODUCT_RATIO = 16
RESIDUAL_TOL = 1e-10
# Rows stepped between two checks for a bitwise fixed point.
_CHECK_ROWS = 64


def _check_history(history, params: NetworkParams) -> np.ndarray:
    hist = np.asarray(history, dtype=float)
    expected = (params.memory, params.n_urns)
    if hist.shape != expected:
        raise ValueError(
            f"history must have shape (memory, n_urns) = {expected}, got {hist.shape}"
        )
    return clamp_probability(hist, what="history probabilities")


def _check_size(params: NetworkParams, S: np.ndarray) -> None:
    if S.shape[0] != params.n_urns:
        raise ValueError("interaction matrix size does not match params")


def _nonlinear_map(params: NetworkParams, S: np.ndarray):
    """The map as a runner over trajectory rows, for a checked ``S``.

    Per urn the expectation over window outcomes is the blossom of the
    Bernstein polynomial whose control points are the urn's table row,
    evaluated at its M lags by de Casteljau's algorithm: each lag x
    replaces the control points by the convex combinations
    ``(1 - x) * v[k] + x * v[k + 1]``, one fewer per lag, so no
    cancellation builds up at any M.  The interaction matrix then mixes
    the per-urn values.

    The returned ``run(rows, raws, window)`` steps once per row of
    ``rows``: it reads the M lags from ``window``, a
    ``deque(maxlen=M)`` of the latest rows newest first, writes the
    mixed values unclamped into the matching row of ``raws`` (the
    caller checks them with :func:`clamp_probability`), clips them into
    the row and pushes the row onto ``window``.  The first lag's
    differences are the table's, so they are taken once; the other lags
    run on two (M, N) buffers shared by every step.
    """
    _check_size(params, S)
    table = red_ratio_table(params).T.copy()  # (M+1, N): control points per urn
    low, diff = table[:-1], table[1:] - table[:-1]
    v, d = np.empty_like(low), np.empty_like(low)
    shifts = [(v[1 : n + 1], v[:n], d[:n]) for n in range(len(low) - 1, 0, -1)]
    # Ufuncs bound once, arithmetic outputs passed by position and the
    # clip bounds as 0-d arrays: the cheapest calls for rows of N values.
    add, subtract, multiply = np.add, np.subtract, np.multiply
    minimum, maximum, mix, first = np.minimum, np.maximum, S.dot, v[0]
    zero, one = np.zeros(()), np.ones(())

    def run(rows, raws, window) -> None:
        push = window.appendleft
        for row, raw in zip(rows, raws):
            lags = iter(window)
            multiply(next(lags), diff, v)
            add(v, low, v)
            for (upper, lower, delta), x in zip(shifts, lags):
                subtract(upper, lower, delta)
                multiply(delta, x, delta)
                add(lower, delta, lower)
            minimum(maximum(mix(first, raw), zero, out=row), one, out=row)
            push(row)

    return run


def step_nonlinear(history, params: NetworkParams, S) -> np.ndarray:
    """One step of the map from ``history[l-1][j]``, urn j's infection
    probability l steps back."""
    S = check_interaction_matrix(S)
    window = deque(_check_history(history, params), maxlen=params.memory)
    raw = np.empty((1, params.n_urns))
    _nonlinear_map(params, S)(np.empty_like(raw), raw, window)
    return clamp_probability(raw[0], what="infection probabilities")


def _sum_lags(lags, out: np.ndarray) -> np.ndarray:
    """The M rows of ``lags`` (newest first) summed in that order, one
    in-place add per row into ``out``; a single row is returned as it
    is.  NumPy's own sums regroup past 8 rows, so every linear step sums
    its lags here."""
    lags = iter(lags)
    total = next(lags)
    for lag in lags:
        total = np.add(total, lag, out)
    return total


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

    def apply(self, x, out=None) -> np.ndarray:
        """J @ x for a state of N*M values, returned in the shape of ``x``;
        written into ``out`` (contiguous, of x's size) when it is given."""
        X = np.reshape(x, (self.n_urns, self.memory))
        y = np.empty_like(X) if out is None else out
        Y = y.reshape(X.shape)
        Y[:, 0] = self.A @ _sum_lags(X.T, np.empty(self.n_urns))
        Y[:, 1:] = X[:, :-1]
        return y.reshape(np.shape(x))


def build_linear_system(params: NetworkParams, S) -> LinearSystem:
    S = check_interaction_matrix(S)
    _check_size(params, S)
    table = red_ratio_table(params)
    slope = table[:, 1] - table[:, 0]  # per-urn coefficient of each lag
    return LinearSystem(S * slope[None, :], S @ table[:, 0], params.n_urns, params.memory)


def _nonzero_product(A: np.ndarray):
    """``A @ v`` as a function of v that reads only A's nonzeros.

    The row, column and value arrays are formed once, row by row; each
    call multiplies the values by v at their columns and sums every row's
    products with ``np.add.reduceat`` over the row starts, into one
    buffer whose rows without nonzeros stay 0.  A must have a nonzero:
    ``reduceat`` refuses empty input.
    """
    rows, cols = np.nonzero(A)
    vals = A[rows, cols]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    live = rows[starts]
    prod, sums, mixed = np.empty(len(vals)), np.empty(len(starts)), np.zeros(A.shape[0])
    take, multiply, reduceat = np.take, np.multiply, np.add.reduceat

    def mix(v):
        # mode="clip" skips take's buffered bounds check; cols are in range
        multiply(take(v, cols, out=prod, mode="clip"), vals, out=prod)
        mixed[live] = reduceat(prod, starts, out=sums)
        return mixed

    return mix


class SpectralRadiusEstimate(NamedTuple):
    value: float
    converged: bool


def spectral_radius(
    system: LinearSystem, rtol: float = 1e-9, max_iters: int = 2000
) -> SpectralRadiusEstimate:
    """Dominant eigenvalue magnitude of the system's companion operator J.

    Power iteration on the steps of :meth:`LinearSystem.apply` with a
    residual stopping rule.  When it stalls (for example a dominant +-
    pair) and A is small enough, J's eigenvalues are taken exactly: the
    roots of lambda**M = mu * (lambda**(M-1) + ... + 1) over the
    eigenvalues mu of A.  Otherwise J's row-sum norm is returned with
    ``converged=False`` as a guaranteed upper bound.

    A's product is picked once per call by counting its nonzeros, which
    allocates nothing: when ``0 < 16 * nnz <= N**2`` (16 is
    ``NONZERO_PRODUCT_RATIO``) each step reads only the nonzeros
    (:func:`_nonzero_product`), and otherwise it is the dense ``A @`` of
    :meth:`LinearSystem.apply`, so a dense A keeps its bits.  The
    nonzero product adds each row's terms in another order than BLAS, so
    its radius may differ from the dense one by a few ulps, far below the
    stopping rule's own error: at most 3 over 6 000 random networks of
    16 to 600 urns, memory 1 to 4, 1 in 10 of them by one ulp and 1 in
    100 by two.  An all-zero A takes the dense product,
    as ``np.add.reduceat`` refuses empty input.

    The constant 16 is the measured break-even density.  Dense /
    nonzero us per product on random matrices (the lower of two runs,
    each the minimum of 7 repeats; 2 vCPUs, OpenBLAS on 1 thread):

    ======  ===========  ===========  ===========  ===========  ============
    N       1%           3%           6.25%        10%          30%
    ======  ===========  ===========  ===========  ===========  ============
    100     1.3 / 3.2    1.3 / 4.1    1.6 / 4.8    1.3 / 5.4    1.7 / 8.3
    500     39 / 12      29 / 20      38 / 31      34 / 45      40 / 164
    1000    270 / 30     270 / 61     274 / 135    268 / 234    272 / 782
    2000    1152 / 91    1118 / 306   1117 / 651   1122 / 1036  1117 / 4045
    4000    6637 / 458   6477 / 1266  6698 / 3347  6692 / 6667  6845 / 22107
    ======  ===========  ===========  ===========  ===========  ============

    From 500 urns on the nonzero product wins below 8-10% density; in a
    slower state of the same machine the 500-urn products tied at 6.25%
    (62 / 61 us).  Below about 200 urns the dense product is faster at
    any density, by a few us a step, which the one-constant rule gives up.
    """
    A = np.asarray(system.A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    N, M = A.shape[0], system.memory
    x = np.random.default_rng(0).standard_normal(N * M)
    x /= np.linalg.norm(x)
    # x, y and their differences live in buffers reused by every
    # iteration; math.sqrt(v.dot(v)) is np.linalg.norm(v) bit for bit.
    y, rx, d = np.empty(N * M), np.empty(N * M), np.empty(N * M)
    # Each step is LinearSystem.apply on the views X and Y of x and y,
    # with A's product picked once.
    X, Y, lag_sum = x.reshape(N, M), y.reshape(N, M), np.empty(N)
    if 0 < np.count_nonzero(A) * NONZERO_PRODUCT_RATIO <= N * N:
        mix = _nonzero_product(A)
    else:
        mixed = np.empty(N)

        def mix(v):
            return A.dot(v, mixed)
    for _ in range(max_iters):
        Y[:, 0] = mix(_sum_lags(X.T, lag_sum))
        Y[:, 1:] = X[:, :-1]
        r = math.sqrt(y.dot(y))
        if r == 0.0:
            return SpectralRadiusEstimate(0.0, True)
        np.multiply(x, r, out=rx)
        resid = math.sqrt(np.subtract(y, rx, out=d).dot(d))
        resid = min(resid, math.sqrt(np.add(y, rx, out=d).dot(d)))
        if resid <= rtol * max(r, 1e-30):
            return SpectralRadiusEstimate(r, True)
        np.divide(y, r, out=x)
    if N <= DENSE_LIMIT:
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


def _chunks(rows: np.ndarray, settled):
    """``(lo, hi)`` per chunk of at most ``_CHECK_ROWS`` rows of ``rows`` for
    the caller to step, rows lo .. hi - 1.  After a stepped chunk,
    ``settled(hi)`` returns the caller's two float64 arrays that are
    bitwise equal only when every later step repeats row hi - 1; once they
    are, the rest of ``rows`` copies that row and no more chunks come."""
    for lo in range(0, len(rows), _CHECK_ROWS):
        hi = min(lo + _CHECK_ROWS, len(rows))
        yield lo, hi
        if hi < len(rows) and np.array_equal(*(x.view(np.int64) for x in settled(hi))):
            rows[hi:] = rows[hi - 1]
            return


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
    the approximation degrades they may legitimately leave [0, 1].  One
    that leaves the floats raises :class:`UnstableSystemError` naming
    the first time whose network average (so also whose row) is not finite.
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
    # time M-1-l).  Each step writes the next row, read as a view, from
    # the last M rows, newest first, in a deque that it then pushes onto.
    vals = np.zeros((max(t_max + 1, M), N))
    vals[:M] = hist[::-1]
    per, rows = vals[1 : t_max + 1], vals[M : t_max + 1]
    window = deque(vals[M - 1 :: -1], maxlen=M)

    def settled(hi):  # the last M + 1 rows are equal: equal shifted by a row
        return vals[hi - 1 : hi + M - 1], vals[hi : hi + M]

    if kind == "nonlinear":
        # Each step writes its raw row, clips it into vals for the next
        # steps, and the raw rows are checked once at the end (past a
        # fixed point every raw row is the last one stepped).
        raw, run, hi = np.empty_like(rows), _nonlinear_map(params, S), 0
        for lo, hi in _chunks(rows, settled):
            run(rows[lo:hi], raw[lo:hi], window)
        clamp_probability(raw[:hi], what="infection probabilities")
        avg = per.mean(axis=1)
    else:
        system = build_linear_system(params, S)
        mix, c, sum_lags, lag_sum = system.A.dot, system.c, _sum_lags, np.empty(N)
        push = window.appendleft
        # An unstable system overflows once run long enough; its values are
        # nonnegative, so checking the averages once also checks every row.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in _chunks(rows, settled):
                for row in rows[lo:hi]:
                    mix(sum_lags(window, lag_sum), row)
                    row += c
                    push(row)
            avg = per.mean(axis=1)
        finite = np.isfinite(avg)
        if not finite.all():
            raise UnstableSystemError(None, f"the linear system is unstable: its curve is "
                                            f"not finite from t = {int(finite.argmin()) + 1} on")
    return InfectionTrajectory(
        times=np.arange(1, t_max + 1), per_urn=per, network_avg=avg, system=f"meanfield-{kind}"
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
