"""Exact analysis of the expanded draw chain.

The network draw process with memory M over N urns is a first-order
Markov chain on 2**(N*M) states once each state records the last M
draws of every urn.  A state is packed into one integer with the layout

    bit (urn * M + lag)  =  draw of ``urn`` at window position ``lag``,

where lag 0 is the oldest remembered draw and lag M-1 the most recent
one.  Every exporter and consumer in the package shares this layout.

A transition from ``a`` to ``b`` is possible only when each urn's
window shifts by one (b's first M-1 positions repeat a's last M-1); the
probability is then a product over urns of red/black factors computed
from ``a``'s per-urn red fractions mixed through the interaction
matrix.  Each state therefore has at most 2**N successors.

:class:`TransitionKernel` enumerates the chain in rows.  A row is one
value ``k`` of the N*(M-1) *kept* bits, lags 1..M-1 of every urn, which
survive the step as lags 0..M-2.  The row holds the 2**N sources that
add any *oldest* bits ``o`` (lag 0 of every urn, dropped by the step)
and the 2**N successors that add any *new* draws ``x`` (lag M-1).
Within a row the kernel is the 2**N x 2**N factor block ``F[k, o, x]``,
and every state is the source of exactly one (k, o) and the successor
of exactly one (k, x).  The new draws of different urns are independent
given the source, so with h = N // 2 and ``x = xB * 2**h + xA`` the
block factors into two half tables,
``F[k, o, x] = A[k, o, xA] * B[k, xB, o]``: ``A`` holds the products of
the factors of urns 0..h-1 and ``B`` those of urns h..N-1, together
2**N * (2**h + 2**(N-h)) entries per row instead of 2**(2N).  One step
is then one batched matrix product per block of rows,
``(mu[src] * B) @ A``, and the per-step work is 2**(N*(M+1)) = states x
fan-out; admission control bounds that number.  Only the kernel CSV
multiplies out the full blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import chunked, write_csv
from .errors import CapExceededError, ConvergenceError
from .params import (
    NetworkParams,
    check_interaction_matrix,
    clamp_probability,
    red_ratio_table,
)

DEFAULT_CAP_BITS = 24
SPARSE_NNZ_CAP = 1 << 26
# Factor entries per enumerated block, so the block workspace stays
# cache-sized (a block is at least one row): a row is 2**(2N) entries of
# the full factor block, or 2**N * (2**h + 2**(N-h)) of the half tables.
BLOCK_ENTRIES = 1 << 16
# A kernel whose half tables total at most this many bytes keeps them
# after its first apply.  Any other full pass keeps the draw
# probabilities of every source (8*N*2**(N*M) bytes, at most 64 MiB
# under the default cap: N = 1, M = 23 or N = 2, M = 11), from which the
# tables are rebuilt on every later pass.
KERNEL_CACHE_BYTES = 32 << 20
DIST_SUM_TOL = 1e-10
SEARCH_LEVELS = 1 << 20  # states x searches held by one batch of breadth-first searches


def state_bit(urn: int, lag: int, memory: int) -> int:
    """Bit position of (urn, lag) in the packed state; lag 0 is oldest."""
    return urn * memory + lag


def _popcounts(memory: int) -> np.ndarray:
    return np.array([bin(v).count("1") for v in range(1 << memory)], dtype=np.int64)


def check_admission(n_urns: int, memory: int, cap_bits: int) -> None:
    """Raise :class:`CapExceededError` unless one exact step fits the cap.

    A step touches every state and each of its 2**N successors, so the
    admitted quantity is the work, N*(M+1) bits, not the N*M state bits.
    """
    state_bits = n_urns * memory
    work_bits = n_urns * (memory + 1)
    if work_bits > cap_bits:
        raise CapExceededError(
            f"exact chain needs {state_bits} state bits ({n_urns} urns x memory "
            f"{memory}) and {work_bits} work bits per step (states x 2**{n_urns} "
            f"successors); cap is {cap_bits}"
        )


def _products(P: np.ndarray) -> np.ndarray:
    """The (2**n, S) table of products of an (n, S) table of red-draw
    probabilities: row x holds, per column, the product over d of
    ``P[d]`` where bit d of x is set and ``1 - P[d]`` where it is not.

    It is built x-major, so that adding draw d doubles the filled rows
    of contiguous memory.
    """
    F = np.empty((1 << len(P), P.shape[1]))
    F[0] = 1.0
    for d, p in enumerate(P):
        width = 1 << d
        np.multiply(F[:width], p, out=F[width : 2 * width])
        np.multiply(F[:width], 1.0 - p, out=F[:width])
    return F


class TransitionKernel:
    """One-step transition operator, enumerated as factor blocks.

    Every reader goes through one enumeration core, :meth:`_blocks`,
    which yields the draw probabilities of each block's sources.
    ``apply`` contracts a distribution with the two half tables of each
    block and the structural check searches their positive entries; the
    kernel CSV multiplies the probabilities out into full blocks, and
    ``successors`` those of one source.  The first apply keeps the half
    tables when they total at most ``KERNEL_CACHE_BYTES``; every other
    first full pass keeps the draw probabilities of every source.
    """

    def __init__(self, params: NetworkParams, S, cap_bits: int = DEFAULT_CAP_BITS):
        S = check_interaction_matrix(S)
        if S.shape[0] != params.n_urns:
            raise ValueError(
                f"interaction matrix is {S.shape[0]}x{S.shape[0]} but params "
                f"describe {params.n_urns} urns"
            )
        check_admission(params.n_urns, params.memory, cap_bits)
        self.params = params
        self.S = S
        self.n_urns = params.n_urns
        self.memory = params.memory
        self.n_bits = params.n_urns * params.memory
        self.n_states = 1 << self.n_bits

        N, M = self.n_urns, self.memory
        self._ratios = red_ratio_table(params)  # (N, M+1)
        self._field_mask = (1 << M) - 1
        self._pop = _popcounts(M)
        # Row k spreads its N*(M-1) kept bits, urn j's at bits j*(M-1)...,
        # over lags 1..M-1 of each source window.
        rows = np.arange(1 << (N * (M - 1)), dtype=np.int64)
        kept = np.zeros_like(rows)
        for j in range(N):
            kept |= ((rows >> (j * (M - 1))) & (self._field_mask >> 1)) << (j * M + 1)
        self._kept = kept
        fan = np.arange(1 << N, dtype=np.int64)
        oldest = np.zeros_like(fan)
        for j in range(N):
            oldest |= ((fan >> j) & 1) << (j * M)
        self._oldest = oldest  # o -> lag-0 bits of a source
        self._newest = oldest << (M - 1)  # x -> lag M-1 bits of a successor
        self._half = N // 2
        self._half_entries = (1 << self._half) + (1 << (N - self._half))  # per source
        self._half_rows = max(1, BLOCK_ENTRIES // (self._half_entries << N))
        self._cache: list | None = None  # (src, dst, A, B) of every block
        self._probs: np.ndarray | None = None  # (N, states), enumeration order

    # -- per-state quantities -------------------------------------------------

    def window_counts(self, states) -> np.ndarray:
        """Red draws per urn window for each packed state, shape (len, N)."""
        states = np.asarray(states, dtype=np.int64)
        counts = np.empty(states.shape + (self.n_urns,), dtype=np.int64)
        for j in range(self.n_urns):
            field = (states >> (j * self.memory)) & self._field_mask
            counts[..., j] = self._pop[field]
        return counts

    def draw_probabilities(self, states) -> np.ndarray:
        """Red-draw probability of every urn out of each state, shape (len, N)."""
        counts = self.window_counts(states)
        urns = np.arange(self.n_urns)
        ratios = self._ratios[urns[None, :], counts]
        return clamp_probability(ratios @ self.S.T, what="draw probability")

    # -- enumeration core -----------------------------------------------------

    def _blocks(self, rows: int, keep: bool = False):
        """Yield ``(src, dst, P)`` for every row, ``rows`` at a time.

        ``src[k, o]`` and ``dst[k, x]`` are packed states, bit d of ``x``
        being urn d's new draw, and ``P[d, k * 2**N + o]`` is urn d's
        red-draw probability out of ``src[k, o]``.  A full pass with
        ``keep`` stores the probabilities it computes, and every later
        pass reads them.
        """
        n_rows, fan = len(self._kept), len(self._oldest)
        table = np.empty((self.n_urns, self.n_states)) if keep else None
        for lo in range(0, n_rows, rows):
            hi = min(lo + rows, n_rows)
            kept = self._kept[lo:hi]
            src = kept[:, None] + self._oldest[None, :]
            dst = (kept >> 1)[:, None] + self._newest[None, :]
            P = (self.draw_probabilities(src.ravel()).T if self._probs is None
                 else self._probs[:, lo * fan : hi * fan])
            if keep:
                table[:, lo * fan : hi * fan] = P
            yield src, dst, P
        if keep:
            self._probs = table

    def _half_blocks(self):
        """Every block's ``(src, dst, A, B)``, from the cache when the kernel
        keeps one: ``A[k, o, xA]`` is the product of the factors of urns
        0..h-1 and ``B[k, xB, o]`` that of urns h..N-1."""
        if self._cache is not None:
            return self._cache
        fan, h = len(self._oldest), self._half
        cache = (self.n_states * self._half_entries) * 8 <= KERNEL_CACHE_BYTES
        blocks = (
            (src, dst, _products(P[:h]).reshape(-1, len(src), fan).transpose(1, 2, 0),
             _products(P[h:]).reshape(-1, len(src), fan).transpose(1, 0, 2))
            for src, dst, P in self._blocks(self._half_rows,
                                            keep=not cache and self._probs is None)
        )
        if cache:
            self._cache = list(blocks)
            return self._cache
        return blocks

    # -- operator -------------------------------------------------------------

    def apply(self, mu: np.ndarray) -> np.ndarray:
        """Push a distribution one step forward (row-vector times kernel)."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.n_states,):
            raise ValueError(f"distribution must have length {self.n_states}")
        out = np.empty(self.n_states)
        for src, dst, A, B in self._half_blocks():
            # out[k, xB * 2**h + xA] = sum_o mu[src[k, o]] B[k, xB, o] A[k, o, xA]
            out[dst] = np.matmul(mu[src][:, None, :] * B, A).reshape(dst.shape)
        return out

    def successors(self, state: int):
        """Successor indices and probabilities of one state (zeros dropped)."""
        state = int(state)
        if not 0 <= state < self.n_states:
            raise ValueError("state out of range")
        # lag 0 of every urn drops out and the other lags move down one
        dst = ((state & ~int(self._oldest[-1])) >> 1) + self._newest
        vals = _products(self.draw_probabilities([state]).T)[:, 0]
        keep = vals > 0.0
        return dst[keep], vals[keep]


def build_kernel(params: NetworkParams, S, cap_bits: int = DEFAULT_CAP_BITS) -> TransitionKernel:
    return TransitionKernel(params, S, cap_bits=cap_bits)


def _check_distribution(mu: np.ndarray, n_states: int) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n_states,):
        raise ValueError(f"distribution must have length {n_states}")
    if np.any(mu < 0):
        raise ValueError("distribution entries must be nonnegative")
    if abs(mu.sum() - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"distribution sums to {mu.sum()!r}, not 1")
    return mu


def stationary_distribution(
    kernel: TransitionKernel,
    tol: float = 1e-12,
    max_iters: int = 10**6,
    start=None,
) -> np.ndarray:
    """Stationary law by power iteration.

    Iterates ``mu <- mu @ Q`` until the sup-norm residual drops to
    ``tol``.  The chain must have a unique stationary law for the result
    to be start-independent; homogeneous networks with positive
    reinforcement always do, and :func:`check_irreducible_aperiodic`
    certifies arbitrary ones.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if start is None:
        mu = np.full(kernel.n_states, 1.0 / kernel.n_states)
    else:
        mu = _check_distribution(start, kernel.n_states).copy()
    for _ in range(max_iters):
        nxt = kernel.apply(mu)
        resid = float(np.max(np.abs(nxt - mu)))
        if resid <= tol:
            return mu
        mu = nxt / nxt.sum()
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iters} iterations "
        f"(last residual {resid:.3e})"
    )


def evolve_distribution(kernel: TransitionKernel, mu0, steps: int) -> np.ndarray:
    """Distribution after ``steps`` applications of the kernel."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    mu = _check_distribution(mu0, kernel.n_states).copy()
    for _ in range(steps):
        mu = kernel.apply(mu)
    return mu


def point_mass(kernel: TransitionKernel, state: int = 0) -> np.ndarray:
    """Distribution concentrated on one packed state (default: all zeros)."""
    if not 0 <= state < kernel.n_states:
        raise ValueError("state out of range")
    mu = np.zeros(kernel.n_states)
    mu[state] = 1.0
    return mu


def lag_marginals(mu, lag: int, memory: int) -> np.ndarray:
    """P(draw at window position ``lag`` is red) of every urn under ``mu``.

    ``len(mu)`` must be ``2**(N*memory)`` for some integer N; entry
    ``urn`` probes bit ``urn * memory + lag``, lag 0 the oldest
    position.  One pass peels the bits off from the top: the mass with
    the top bit set is that bit's marginal when it is a ``lag`` bit, and
    the two halves are then added, so the work is about 2 * len(mu).
    """
    mu = np.asarray(mu, dtype=float)
    size = mu.shape[0] if mu.ndim == 1 else 0
    bits = size.bit_length() - 1
    if size == 0 or (1 << bits) != size or bits % memory != 0:
        raise ValueError("distribution length is not 2**(N*memory)")
    if not 0 <= lag < memory:
        raise ValueError(f"lag {lag} out of range for memory {memory}")
    out = np.empty(bits // memory)
    rest = mu
    for bit in range(bits - 1, lag - 1, -1):
        halves = rest.reshape(2, -1)
        urn, at = divmod(bit, memory)
        if at == lag:
            out[urn] = halves[1].sum()
        rest = halves[0] + halves[1]
    return out


def marginal_infection(mu, urn: int, lag: int, memory: int) -> float:
    """P(draw of ``urn`` at window position ``lag`` is red) under ``mu``.

    One entry of :func:`lag_marginals`, with the urn index checked.
    """
    marginals = lag_marginals(mu, lag, memory)
    if not 0 <= urn < len(marginals):
        raise ValueError(f"urn index {urn} out of range for {len(marginals)} urns")
    return float(marginals[urn])


def two_fold_joint(pi, kernel: TransitionKernel, urn: int) -> np.ndarray:
    """Joint law of (current draw, next draw) for one urn, memory 1 only.

    Entry [a, b] is the stationary probability that the urn's draw is
    ``a`` now and ``b`` one step later; computed from ``pi`` and the
    per-state red probabilities, no simulation involved.
    """
    if kernel.memory != 1:
        raise ValueError("two_fold_joint is defined for memory 1")
    if not 0 <= urn < kernel.n_urns:
        raise ValueError(f"urn index {urn} out of range")
    pi = _check_distribution(pi, kernel.n_states)
    joint = np.zeros((2, 2))
    chunk = BLOCK_ENTRIES
    for start in range(0, kernel.n_states, chunk):
        states = np.arange(start, min(start + chunk, kernel.n_states), dtype=np.int64)
        p = kernel.draw_probabilities(states)[:, urn]
        now = (states >> urn) & 1
        w = pi[states]
        for a in (0, 1):
            sel = now == a
            joint[a, 1] += float((w[sel] * p[sel]).sum())
            joint[a, 0] += float((w[sel] * (1.0 - p[sel])).sum())
    return joint


@dataclass
class KernelStructure:
    """Certificate produced by :func:`check_irreducible_aperiodic`.

    ``diameter`` is the longest shortest path, computed only when the
    chain is irreducible and ``diameter_limit`` reaches the number of
    states; for homogeneous networks with positive reinforcement it is
    at most the memory M (any window content can be rewritten in M draws).
    """

    irreducible: bool
    aperiodic: bool
    period: int | None
    n_components: int
    diameter: int | None

    @property
    def ok(self) -> bool:
        return self.irreducible and self.aperiodic

    def __bool__(self) -> bool:
        return self.ok


def _push(kernel: TransitionKernel, front, backward: bool = False) -> np.ndarray:
    """(states, searches) mask of the states one step after, or ``backward``
    before, a state of each column of ``front``.  A transition is positive
    exactly where both of its half-table factors are."""
    hit, fan = np.empty(front.shape, dtype=bool), len(kernel._oldest)
    for src, dst, A, B in kernel._half_blocks():
        # edge[k, o, xB * 2**h + xA] is 1 where B[k, xB, o] > 0 and A[k, o, xA] > 0
        edge = (B > 0.0).transpose(0, 2, 1)[..., None] & (A > 0.0)[:, :, None]
        edge = edge.reshape(len(src), fan, fan).astype(np.float32)
        if backward:
            hit[src] = np.matmul(edge, front[dst].astype(np.float32)) > 0.0
        else:
            hit[dst] = np.matmul(edge.transpose(0, 2, 1), front[src].astype(np.float32)) > 0.0
    return hit


def _reach(kernel: TransitionKernel, starts, live, backward: bool = False) -> np.ndarray:
    """(states, searches) BFS levels, -1 where never reached, of one search
    from each live state in ``starts`` over the edges with positive
    probability, forward or ``backward``, inside the boolean mask ``live``."""
    level = np.where(np.arange(kernel.n_states)[:, None] == starts, 0, -1)
    front, depth = level == 0, 0
    while front.any():
        depth += 1
        front = _push(kernel, front, backward) & live[:, None] & (level < 0)
        level[front] = depth
    return level


def check_irreducible_aperiodic(
    kernel: TransitionKernel, diameter_limit: int = 0
) -> KernelStructure:
    """Structural check of the chain via its directed transition graph.

    Each round removes the live states with no live predecessor or
    successor, each a component of its own, or else the component of the
    lowest live state: its forward and backward reach among them.  The
    period is the gcd of ``level[from] + 1 - level[to]`` over the edges
    reached from state 0.  The diameter, a search from every state, is
    computed only when ``diameter_limit`` is at least the number of states.
    """
    n, everywhere = kernel.n_states, np.ones(kernel.n_states, dtype=bool)
    live, n_comp = everywhere.copy(), 0
    while live.any():
        # each state with no live edge in, or none out, is a component; else one is peeled
        gone = live & ~(_push(kernel, live[:, None]) & _push(kernel, live[:, None], True))[:, 0]
        n_comp += int(np.count_nonzero(gone)) or 1
        if not gone.any():  # peel the component of the lowest live state
            pivot = [int(np.argmax(live))]
            ahead, behind = (_reach(kernel, pivot, live, back)[:, 0] >= 0 for back in (False, True))
            gone = ahead & behind
        live &= ~gone
    level, period = _reach(kernel, [0], everywhere)[:, 0], 0
    for depth in range(int(level.max()) + 1):
        to = level[_push(kernel, (level == depth)[:, None])[:, 0]]
        period = int(np.gcd(period, np.gcd.reduce(np.abs(depth + 1 - to))))
    irreducible = n_comp == 1
    batch = max(1, SEARCH_LEVELS // n)
    diameter = max(int(_reach(kernel, np.arange(lo, min(lo + batch, n)), everywhere).max())
                   for lo in range(0, n, batch)) if irreducible and n <= diameter_limit else None
    return KernelStructure(irreducible, irreducible and period == 1, period, n_comp, diameter)


def save_distribution_csv(mu, path: str) -> None:
    """Rows of (packed state index, probability)."""
    mu = np.asarray(mu, dtype=float)
    write_csv(path, ("state", "probability"), "%d,%.17g\n", chunked(np.arange(len(mu)), mu))


def save_kernel_csv(kernel: TransitionKernel, path: str) -> None:
    """Positive transitions as (from_state, to_state, probability) rows, sorted."""
    nnz = kernel.n_states << kernel.n_urns
    if nnz > SPARSE_NNZ_CAP:
        raise CapExceededError(f"materializing {nnz} entries exceeds cap {SPARSE_NNZ_CAP}")
    F = np.empty((kernel.n_states, len(kernel._newest)))  # F[a, x], the full blocks by source
    to = np.empty(F.shape, dtype=np.int64)  # the successors of each a, rising with x
    for src, dst, P in kernel._blocks(max(1, BLOCK_ENTRIES >> (2 * kernel.n_urns))):
        F[src.ravel()] = _products(P).T
        to[src] = dst[:, None]
    a, x = np.nonzero(F > 0.0)
    write_csv(path, ("from_state", "to_state", "probability"), "%d,%d,%.17g\n",
              chunked(a, to[a, x], F[a, x]))
