"""Shared builders and independently derived oracle formulas.

The closed forms here are transcribed from hand derivations and kept
deliberately separate from the package implementation so that tests
compare two independent routes to the same quantity.
"""

from __future__ import annotations

import csv
import os
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from hypothesis import settings

from polyanet import chain
from polyanet.errors import CapExceededError
from polyanet.meanfield import DENSE_LIMIT, SpectralRadiusEstimate, build_linear_system
from polyanet.params import (
    RawConfig,
    check_interaction_matrix,
    clamp_probability,
    normalize,
    red_ratio_table,
)

# Deterministic examples and no per-example deadline, so a slow runner
# neither flakes on timing nor draws different examples on each run.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_raw(memory, red, total, d_red, d_black, S):
    """RawConfig from per-urn sequences (scalars broadcast)."""
    S = np.asarray(S, dtype=float)
    return RawConfig(
        memory=memory,
        initial_red=red,
        initial_total=total,
        reinforce_red=d_red,
        reinforce_black=d_black,
        interaction=S,
    )


def homogeneous_raw(memory, n_urns, red, total, delta_balls, S=None):
    """All urns identical with equal red/black reinforcement."""
    if S is None:
        S = np.full((n_urns, n_urns), 1.0 / n_urns)
    return make_raw(memory, red, total, delta_balls, delta_balls, S)


def pair_raw(rho, delta, s11, s21, memory=1, total=1000000):
    """Two-urn homogeneous config hitting rho and delta up to rounding.

    Ball counts are integers; use :func:`realized_pair` on the result to
    recover the exactly realized parameters for oracle formulas.
    """
    red = int(round(rho * total))
    balls = int(round(delta * total))
    S = np.array([[s11, 1.0 - s11], [s21, 1.0 - s21]])
    return make_raw(memory, red, total, balls, balls, S)


def realized_pair(raw):
    """Exact (rho, delta, s11, s21) encoded by integer ball counts."""
    total = float(raw.initial_total[0])
    return (
        float(raw.initial_red[0]) / total,
        float(raw.reinforce_red[0]) / total,
        float(raw.interaction[0, 0]),
        float(raw.interaction[1, 0]),
    )


def normalized(raw):
    return normalize(raw)


def random_interaction(rng, n):
    """Row-stochastic matrix with strictly positive entries."""
    return rng.dirichlet(np.ones(n), size=n)


def pair_stationary(rho, delta, s11, s21):
    """Stationary law of the two-urn single-memory homogeneous chain.

    Returns the four probabilities indexed by the state word
    s = z1 + 2*z2, i.e. [pi_00, pi_10, pi_01, pi_11] where pi_ab is the
    probability that urn 1 drew a and urn 2 drew b.
    """
    sigma = 1.0 - rho
    kappa = 1.0 - s11 - s21 + 2.0 * s11 * s21
    den = kappa * delta**2 + 2.0 * delta + 1.0
    pi00 = (2.0 * sigma**2 * delta + sigma**2 + kappa * sigma * delta**2) / den
    pi01 = rho * sigma * (1.0 + 2.0 * delta) / den
    pi10 = pi01
    pi11 = (
        rho
        * (2.0 * delta - sigma - 2.0 * sigma * delta + kappa * delta**2 + 1.0)
        / den
    )
    return np.array([pi00, pi10, pi01, pi11])


def pair_joint_urn1(rho, delta, s11, s21):
    """Stationary consecutive-draw joint law of urn 1 in the same system.

    Entry [a, b] is lim_t P(Z_{1,t} = a, Z_{1,t+1} = b): the one-urn
    chain values sigma(sigma+delta), rho*sigma, rho*sigma,
    rho(rho+delta), all over 1+delta, shifted off the diagonal by the
    coupling term pi_01 (1 - s11) delta / (1 + delta).
    """
    sigma = 1.0 - rho
    pi = pair_stationary(rho, delta, s11, s21)
    pi01 = pi[2]
    dev = pi01 * (1.0 - s11) * delta / (1.0 + delta)
    joint = np.empty((2, 2))
    joint[0, 0] = sigma * (sigma + delta) / (1.0 + delta) - dev
    joint[0, 1] = sigma * rho / (1.0 + delta) + dev
    joint[1, 0] = sigma * rho / (1.0 + delta) + dev
    joint[1, 1] = rho * (rho + delta) / (1.0 + delta) - dev
    return joint


def isolated_equilibrium(rho, delta_r, delta_b):
    """Single-memory fixed point of an urn that only sees itself."""
    return rho * (1.0 + delta_r) / (1.0 + delta_b + rho * (delta_r - delta_b))


def draw_probabilities(kernel, states):
    """Red-draw probability of every urn out of each packed state, shape
    (len, N): the red ratios of the state's windows, read from
    ``red_ratio_table`` at their ``window_counts``, mixed through S.

    The per-state oracle for the draw probabilities that the kernel
    evaluates once per red-count vector.
    """
    counts = kernel.window_counts(states)
    ratios = red_ratio_table(kernel.params)[np.arange(kernel.n_urns), counts]
    return clamp_probability(ratios @ kernel.S.T, what="draw probability")


def full_blocks(kernel):
    """Yield ``(src, dst, F)`` for every block of the kernel's rows,
    ``F[k, o, x]`` being the probability of moving from ``src[k, o]`` to
    ``dst[k, x]``: the product of the factors of all N urns, built from
    the draw probabilities of every source, row by row and not by count
    class, in blocks of about ``BLOCK_ENTRIES``."""
    fan, rows = 1 << kernel.n_urns, max(1, chain.BLOCK_ENTRIES >> (2 * kernel.n_urns))
    for lo in range(0, len(kernel._kept), rows):
        kept = kernel._kept[lo : lo + rows]
        src = kept[:, None] + kernel._oldest[None, :]
        dst = (kept >> 1)[:, None] + kernel._newest[None, :]
        P = draw_probabilities(kernel, src.ravel()).T
        yield src, dst, chain._products(P).reshape(fan, len(src), fan).transpose(1, 2, 0)


def class_tables(kernel):
    """Yield every block's ``(src, dst, A, B)`` in the layout of the
    kernel's kept tables, the factor products formed for each (class,
    source) pair from :func:`draw_probabilities` of the class's first row
    plus that source, as ``full_blocks`` reads them per state.

    The oracle for the tables that the kernel gathers from the products
    of its red-count vectors.
    """
    N, fan, h = kernel.n_urns, 1 << kernel.n_urns, kernel._half
    for _, rows in kernel._groups:
        kept, c = kernel._kept[rows], len(rows)
        src = kept[:, :, None] + kernel._oldest
        dst = (kept >> 1)[:, :, None] + kernel._newest
        P = draw_probabilities(kernel, src[:, 0].ravel()).T
        A = chain._products(P[:h]).reshape(-1, c, fan).transpose(1, 2, 0)
        if h == N:
            yield src, dst, np.ascontiguousarray(A), None
        else:
            yield src, dst, A, chain._products(P[h:]).reshape(-1, c, fan).transpose(1, 0, 2)


def apply_by_full_blocks(kernel, mu):
    """One step of ``mu`` through the kernel's full factor blocks: a
    batched vector-matrix product ``mu[src] @ F`` per block of rows.

    The oracle for ``TransitionKernel.apply``, which contracts the two
    half tables of each block instead.
    """
    out = np.empty(kernel.n_states)
    for src, dst, F in full_blocks(kernel):
        out[dst] = np.matmul(mu[src][:, None, :], F)[:, 0, :]
    return out


def to_sparse(kernel):
    """The kernel's positive entries as a CSR matrix, read from its full
    blocks.

    At most 2**N entries per row; the oracle for the structural checks,
    which SciPy's ``csgraph`` runs on it.
    """
    rows, cols, vals = [], [], []
    for src, dst, F in full_blocks(kernel):
        keep = F > 0.0
        rows.append(np.broadcast_to(src[:, :, None], F.shape)[keep])
        cols.append(np.broadcast_to(dst[:, None, :], F.shape)[keep])
        vals.append(F[keep])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(kernel.n_states, kernel.n_states),
    )


def csgraph_structure(kernel):
    """``check_irreducible_aperiodic``'s fields, from SciPy's graph routines
    on :func:`to_sparse`: strong components, and unweighted shortest paths
    from state 0 for the period."""
    Q = to_sparse(kernel)
    n_comp, _ = csgraph.connected_components(Q, directed=True, connection="strong")
    irreducible = bool(n_comp == 1)
    dist = csgraph.shortest_path(Q, method="D", unweighted=True, indices=0)
    coo = Q.tocoo()
    reach = np.isfinite(dist[coo.row]) & np.isfinite(dist[coo.col])
    diffs = (dist[coo.row[reach]] + 1 - dist[coo.col[reach]]).astype(np.int64)
    period = int(np.gcd.reduce(np.abs(diffs))) if diffs.size else None
    return [irreducible, bool(irreducible and period == 1), period, int(n_comp)]


def write_rows(path, header, rows):
    """CSV written one ``csv.writer`` row at a time, floats as ``f"{x:.17g}"``.

    The reference for every table :mod:`polyanet.csvio` writes; a
    ``header`` of None writes no header line, as for the matrix file.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(list(header))
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else str(x) for x in row])


def write_curve_rows(path, header, times, per_urn, network_avg, tail):
    """Curve CSV through :func:`write_rows`.

    The reference for :func:`polyanet.csvio.write_curve_csv`: per time
    step, one row per urn and one ``avg`` row, each ending in ``tail``.
    """

    def rows():
        n = per_urn.shape[1]
        for k, t in enumerate(times):
            for j in range(n):
                yield (int(t), j, float(per_urn[k, j]), tail)
            yield (int(t), "avg", float(network_avg[k]), tail)

    write_rows(path, header, rows())


# -- scalar and exponential oracles for the library's evaluators -------------
#
# Each restates a quantity the library computes in one vectorized
# evaluator (red_ratio_table, TransitionKernel, step_nonlinear,
# build_linear_system) the slow, literal way: one urn, one window, one
# pair of states or one joint outcome at a time.


def red_ratio_from_count(params, urn, count):
    """Red fraction of an urn whose full window holds ``count`` red draws.

    Equals ``(rho + k*delta_r) / (1 + k*delta_r + (M-k)*delta_b)`` with
    ``k = count``; monotone nondecreasing in ``count``.
    """
    M = params.memory
    if not 0 <= count <= M:
        raise ValueError(f"count must lie in [0, {M}], got {count}")
    dr = params.delta_r[urn]
    db = params.delta_b[urn]
    num = params.rho[urn] + count * dr
    den = 1.0 + count * dr + (M - count) * db
    return clamp_probability(num / den, what="red ratio")


def red_ratio(params, urn, window):
    """Red fraction given the urn's explicit window of its last M draws.

    ``window[0]`` is the oldest remembered draw.  Only the number of red
    draws matters since reinforcement amounts are constant in time, so
    the result is invariant under window permutations.
    """
    w = np.asarray(window)
    if w.shape != (params.memory,):
        raise ValueError(f"window must hold exactly {params.memory} draws")
    if not np.all((w == 0) | (w == 1)):
        raise ValueError("window entries must be 0 or 1")
    dr = params.delta_r[urn]
    db = params.delta_b[urn]
    num = params.rho[urn] + dr * float(w.sum())
    den = 1.0 + float((dr * w + db * (1 - w)).sum())
    return clamp_probability(num / den, what="red ratio")


def draw_probability(urn, ratios, S):
    """Red-draw probability for ``urn``: its interaction row dotted with
    the current per-urn red fractions."""
    S = check_interaction_matrix(S)
    r = np.asarray(ratios, dtype=float)
    if r.shape != (S.shape[0],):
        raise ValueError("ratios must have one entry per urn")
    if not 0 <= urn < S.shape[0]:
        raise ValueError(f"urn index {urn} out of range")
    r = clamp_probability(r, what="red ratios")
    return clamp_probability(float(S[urn] @ r), what="draw probability")


def transition_prob(a, b, params, S):
    """Probability of moving from packed state ``a`` to ``b`` in one step.

    Returns 0.0 when the windows of ``b`` are not one-step shifts of the
    windows of ``a``.  Heterogeneous parameters are supported: urn d's
    red probability mixes every urn's current red fraction through row d
    of the interaction matrix.
    """
    S = check_interaction_matrix(S)
    N, M = params.n_urns, params.memory
    if S.shape[0] != N:
        raise ValueError("interaction matrix size does not match params")
    n_states = 1 << (N * M)
    if not (0 <= a < n_states and 0 <= b < n_states):
        raise ValueError(f"states must lie in [0, {n_states})")
    field_mask = (1 << M) - 1
    low_mask = field_mask >> 1
    ratios = np.empty(N)
    table = red_ratio_table(params)
    new_draws = np.empty(N, dtype=np.int64)
    for j in range(N):
        a_field = (a >> (j * M)) & field_mask
        b_field = (b >> (j * M)) & field_mask
        if (b_field & low_mask) != (a_field >> 1):
            return 0.0
        ratios[j] = table[j, bin(a_field).count("1")]
        new_draws[j] = (b_field >> (M - 1)) & 1
    probs = clamp_probability(S @ ratios, what="draw probability")
    factors = np.where(new_draws == 1, probs, 1.0 - probs)
    return float(np.prod(factors))


DIRECT_CAP_BITS = 20


def _check_history(history, params):
    hist = np.asarray(history, dtype=float)
    expected = (params.memory, params.n_urns)
    if hist.shape != expected:
        raise ValueError(
            f"history must have shape (memory, n_urns) = {expected}, got {hist.shape}"
        )
    return clamp_probability(hist, what="history probabilities")


def _outcome_weights(states, q):
    """Joint Bernoulli weights prod_b (b set ? q_b : 1-q_b) per state."""
    positions = np.arange(len(q), dtype=np.int64)
    bitsmat = ((states[:, None] >> positions[None, :]) & 1).astype(float)
    return np.prod(bitsmat * q + (1.0 - bitsmat) * (1.0 - q), axis=1)


def configuration_weights(history, params):
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


def step_direct(history, params, S):
    """One step of the mean-field map by full enumeration of window outcomes.

    ``history[l-1][j]`` is urn j's infection probability l steps back.
    Treating window bits as independent Bernoulli draws with those
    probabilities, the new vector is the expectation of the per-urn red
    probability over all 2**(N*M) joint outcomes: the defining form of
    the map that ``step_nonlinear`` evaluates as a polynomial.
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


def window_expectation_exact(history, table):
    """Per urn j, E[table[j, K]] in exact rational arithmetic, where K
    counts red draws among independent Bernoulli(history[:, j]) lags."""
    out = []
    for lags, row in zip(np.asarray(history, dtype=float).T, table):
        law = [Fraction(1)]  # law[k] = P(k red draws so far)
        for x in map(Fraction, lags):
            law = [a * (1 - x) + b * x for a, b in zip(law + [0], [0] + law)]
        out.append(float(sum(p * Fraction(v) for p, v in zip(law, row))))
    return np.array(out)


class DenseLinearSystem(NamedTuple):
    """The linear system as its NM x NM block companion matrix J and C."""

    J: np.ndarray
    C: np.ndarray
    n_urns: int
    memory: int


def linear_system_by_blocks(params, S):
    """Block companion system assembled one N x M block at a time."""
    S = check_interaction_matrix(S)
    N, M = params.n_urns, params.memory
    table = red_ratio_table(params)
    slope = table[:, 1] - table[:, 0]
    const = S @ table[:, 0]
    if M == 1:
        return DenseLinearSystem(J=S * slope[None, :], C=const, n_urns=N, memory=1)
    J = np.zeros((N * M, N * M))
    C = np.zeros(N * M)
    for i in range(N):
        r0 = i * M
        C[r0] = const[i]
        for j in range(N):
            c0 = j * M
            J[r0, c0 : c0 + M] = S[i, j] * slope[j]
        J[r0 + 1 : r0 + M, r0 : r0 + M - 1] += np.eye(M - 1)
    return DenseLinearSystem(J=J, C=C, n_urns=N, memory=M)


def dense_companion(system):
    """The (NM)**2 companion matrix J and constant C of a ``LinearSystem``.

    J[i*M + a, j*M + b] is blocks[i, a, j, b]: the top row of block
    (i, j) weighs every lag of urn j by A[i, j], and the diagonal blocks
    shift urn i's lags down by one.
    """
    N, M = system.n_urns, system.memory
    J = np.zeros((N * M, N * M))
    blocks = J.reshape(N, M, N, M)
    blocks[:, 0] = system.A[:, :, None]
    urns, lags = np.ix_(np.arange(N), np.arange(M - 1))
    blocks[urns, lags + 1, urns, lags] = 1.0
    C = np.zeros(N * M)
    C[::M] = system.c
    return DenseLinearSystem(J=J, C=C, n_urns=N, memory=M)


def dense_power_radius(J, rtol=1e-9, max_iters=20000):
    """Power iteration on a dense J: the same start vector and stopping
    rule as ``spectral_radius``, or None when it stalls."""
    x = np.random.default_rng(0).standard_normal(J.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(max_iters):
        y = J @ x
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return 0.0
        resid = min(float(np.linalg.norm(y - r * x)), float(np.linalg.norm(y + r * x)))
        if resid <= rtol * max(r, 1e-30):
            return r
        x = y / r
    return None


def dense_linear_curve(params, S, t_max):
    """Linear mean-field curve from a dense-J loop, from a zero history."""
    dense = linear_system_by_blocks(params, S)
    M = params.memory
    state = np.zeros(params.n_urns * M)
    per = np.zeros((t_max, params.n_urns))
    for t in range(M, t_max + 1):
        state = dense.J @ state + dense.C
        per[t - 1] = state[::M]
    return per


# -- stepping loops that allocate and check every step ------------------------
#
# The library steps the mean field, the power iteration and Monte Carlo on
# buffers allocated once per run and checks probabilities once per run.
# These are the same loops one array and one check per step; every step
# runs the same floating-point operations in the same order, so the
# library must match them bit for bit.


def iterate_by_steps(kind, params, S, t_max, initial_history=None):
    """``meanfield.iterate(...).per_urn``, one fresh array and (nonlinear)
    one ``clamp_probability`` per step."""
    S = check_interaction_matrix(S)
    N, M = params.n_urns, params.memory
    hist = np.zeros((M, N)) if initial_history is None else _check_history(initial_history, params)
    vals = np.zeros((max(t_max + 1, M), N))
    vals[:M] = hist[::-1]
    if kind == "nonlinear":
        table = red_ratio_table(params).T

        def step(lags):
            v = table.copy()
            for n, x in zip(range(len(lags), 0, -1), lags):
                v[:n] += x * (v[1 : n + 1] - v[:n])
            return clamp_probability(S @ v[0], what="infection probabilities")
    else:
        system = build_linear_system(params, S)

        def step(lags):
            return system.A @ reduce(np.add, lags) + system.c

    for t in range(M, t_max + 1):
        vals[t] = step(vals[t - M : t][::-1])
    return vals[1 : t_max + 1]


def barabasi_albert_by_draws(n_nodes, attach, seed):
    """``networks.barabasi_albert``, one ``sum`` and one ``cumsum`` of the
    remaining weights per draw."""
    core = attach + 1
    rng = np.random.default_rng(seed)
    adj = np.zeros((n_nodes, n_nodes))
    adj[:core, :core] = 1.0
    np.fill_diagonal(adj, 0.0)
    degree = adj.sum(axis=1)
    for u in range(core, n_nodes):
        weights = degree[:u].copy()
        targets = []
        for _ in range(attach):
            total = weights.sum()
            r = rng.random() * total
            j = int(np.searchsorted(np.cumsum(weights), r, side="right"))
            j = min(j, u - 1)
            targets.append(j)
            weights[j] = 0.0
        for j in targets:
            adj[u, j] = adj[j, u] = 1.0
            degree[j] += 1
        degree[u] = attach
    return adj


def spectral_radius_by_steps(system, rtol=1e-9, max_iters=2000, allow_dense=True):
    """``meanfield.spectral_radius`` with fresh arrays every iteration and
    ``np.linalg.norm`` for every norm."""
    A = np.asarray(system.A, dtype=float)
    N, M = A.shape[0], system.memory

    def apply(x):
        X = x.reshape(N, M)
        Y = np.empty_like(X)
        Y[:, 0] = A @ reduce(np.add, X.T)
        Y[:, 1:] = X[:, :-1]
        return Y.reshape(-1)

    x = np.random.default_rng(0).standard_normal(N * M)
    x /= np.linalg.norm(x)
    for _ in range(max_iters):
        y = apply(x)
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return SpectralRadiusEstimate(0.0, True)
        resid = min(float(np.linalg.norm(y - r * x)), float(np.linalg.norm(y + r * x)))
        if resid <= rtol * max(r, 1e-30):
            return SpectralRadiusEstimate(r, True)
        x = y / r
    if allow_dense and N <= DENSE_LIMIT:
        companion = np.zeros((N, M, M), dtype=complex)
        companion[:, 0, :] = np.linalg.eigvals(A)[:, None]
        lags = np.arange(M - 1)
        companion[:, lags + 1, lags] = 1.0
        return SpectralRadiusEstimate(float(np.max(np.abs(np.linalg.eigvals(companion)))), True)
    bound = M * float(np.max(np.abs(A).sum(axis=1)))
    return SpectralRadiusEstimate(max(bound, 1.0) if M > 1 else bound, False)


# Bytes per replicate and urn that one step takes of the block buffer of
# ``montecarlo._advance`` (uniforms, their copy and the draw probabilities):
# ``UNIFORM_BLOCK_BYTES = b * STEP_BYTES * R * N`` makes blocks of b steps.
STEP_BYTES = 24


def advance_by_steps(config, rngs, draws, ratios=None, block=1):
    """``montecarlo._advance`` with fresh count arrays and one
    ``clamp_probability`` per step, uniforms drawn ``block`` steps at a time."""
    n_steps, n_rep, n_urns = draws.shape
    memory = config.memory
    red = np.tile(config.initial_red, (n_rep, 1))
    total = np.tile(config.initial_total, (n_rep, 1))
    add_net = config.reinforce_red - config.reinforce_black
    for start in range(0, n_steps, block):
        u = np.stack([rng.random((min(block, n_steps - start), n_urns)) for rng in rngs])
        for k in range(u.shape[1]):
            t = start + k
            probs = clamp_probability((red / total) @ config.interaction.T, what="draw probability")
            z = draws[t]
            np.less(u[:, k], probs, out=z)
            if t >= memory:
                change = z - draws[t - memory]
                red += config.reinforce_red * change
                total += add_net * change
            else:
                red += config.reinforce_red * z
                total += config.reinforce_black + add_net * z
            if ratios is not None:
                ratios[t] = red / total


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of a run."""
    import re
    import sys

    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            m = re.search(r"test_acceptance\.py::test_c(\d+)", rep.nodeid)
            if m:
                results[int(m.group(1))] = "PASS" if outcome == "passed" else "FAIL"
    if not results:
        return
    details = getattr(sys.modules.get("test_acceptance"), "DETAILS", {})
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        line = f"criterion {num:02d}: {results[num]}"
        if num in details:
            line += f"  ({details[num]})"
        terminalreporter.write_line(line)
