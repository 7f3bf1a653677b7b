"""Exact analysis of the expanded draw chain.

The network draw process with memory M over N urns is a first-order
Markov chain on 2**(N*M) states once each state records the last M
draws of every urn.  A state is packed into one integer with the layout

    bit (urn * M + lag)  =  draw of ``urn`` at window position ``lag``,

where lag 0 is the oldest remembered draw and lag M-1 the most recent
one.  Every consumer in the package shares this layout.

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
of exactly one (k, x).  A draw probability depends on a window only
through its red count, so ``F[k]`` depends on ``k`` only through its
*count class*, the red kept draws ``c_j`` of every urn: the M**N classes
hold prod_j C(M-1, c_j) rows each, and one table per class serves them
all.  The new draws of different urns are independent given the source,
so with ``x = xB * 2**h + xA`` a class table factors into
``F[o, x] = A[o, xA] * B[xB, o]``: ``A`` holds the products of the
factors of urns 0..h-1 and ``B`` those of urns h..N-1.  Where a class
holds several rows (M >= 3) and the full tables fit the table budget,
h = N and ``F = A``; else h = N // 2.  Source o of class c holds
n_j = c_j + o_j red draws per urn, so the tables take their entries
from the (M+1)**N *red-count vectors* n: the kernel's first pass
evaluates the draw probabilities and forms the products of every n
once, gathers each block's tables from them and keeps the tables; the
products are transient (:func:`working_bytes`).  One step is then one
batched matrix product per block of the classes of one size,
``(mu[src] * B) @ A`` with the rows of a class stacked, written into
a distribution that the caller may reuse, and the per-step work is
2**(N*(M+1)) = states x fan-out; admission control bounds that number.
After its first apply a kernel holds every block's tables in one
allocation and one block workspace, sized to its largest block, in
which every later step runs: a step allocates nothing of the size of
a block or a distribution beside the distribution it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ConvergenceError
from .params import (
    NetworkParams,
    check_interaction_matrix,
    clamp_probability,
    red_ratio_table,
)

DEFAULT_CAP_BITS = 24
# Factor entries per enumerated block, so the block workspace stays
# cache-sized (a block is at least one class): a class is 2**N * 2**N
# entries of its full table or 2**N * (2**h + 2**(N-h)) of its half
# tables, or its rows' share of the product's left operand where that
# is larger.
BLOCK_ENTRIES = 1 << 16
# Budget of the full tables: a kernel whose full class tables (at M >= 3)
# total at most this many bytes keeps them whole, else as half tables
# (see _split); the structural check's 0/1 patterns take the same form.
# Every kernel keeps its tables; under the default cap the largest are
# N = 6, M = 3's full ones, 23 MiB, and N = 8, M = 2's half ones, 16 MiB.
KERNEL_CACHE_BYTES = 32 << 20
DIST_SUM_TOL = 1e-10


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


def _split(n_urns: int, memory: int) -> tuple[int, int]:
    """Split point h of the class tables and their entries per source.

    h = N, one table over all urns, where a class holds more rows than
    one on average (M >= 3) and the M**N classes' full 2**N x 2**N
    tables fit ``KERNEL_CACHE_BYTES``: each table entry then serves
    every row of its class in one matrix product.  Else h = N // 2: at
    M <= 2 every class is one row, and its full table, read once per
    apply, made the apply 2-4x slower than half tables (N = 7, M = 2 and
    N = 10, M = 1 on a 2-vCPU machine).
    """
    fan = 1 << n_urns
    if memory >= 3 and memory**n_urns * fan * fan * 8 <= KERNEL_CACHE_BYTES:
        return n_urns, fan
    h = n_urns // 2
    return h, (1 << h) + (1 << (n_urns - h))


def kernel_bytes(n_urns: int, memory: int) -> int:
    """Bytes a kernel keeps after its first apply: its class tables, 8 bytes
    per entry for the 2**N sources of each of the M**N classes, and the
    int64 source and successor of every state."""
    return (memory**n_urns << n_urns) * _split(n_urns, memory)[1] * 8 + (16 << (n_urns * memory))


def working_bytes(n_urns: int, memory: int) -> int:
    """Bytes a kernel holds beside its tables and indices
    (:func:`kernel_bytes`): the kept bits and the row order, 8 bytes each
    per row; the block workspace that its first apply allocates and keeps,
    bounded here by two arrays of a block's left operand, its gather
    ``mu[src]`` (or the matmul's result, of the same size) and its
    product with B (or, with full tables, the result); and, while the
    first apply builds the tables, the draw probabilities and products of
    the (M+1)**N red-count vectors, N and the entries per source of the
    tables (:func:`_split`) each.  A block's left operand is at most
    BLOCK_ENTRIES entries, or the largest class's where that is larger;
    that class holds C(M-1, (M-1) // 2)**N rows.  The certificate's
    float32 workspace and the front and result of its forward push, kept
    beside its patterns, are not counted: no run route builds them."""
    half, entries = _split(n_urns, memory)
    rows = math.comb(memory - 1, (memory - 1) // 2) ** n_urns
    workspace = 16 * max(BLOCK_ENTRIES, rows << (2 * n_urns - half))
    counts = 8 * (memory + 1) ** n_urns * (n_urns + entries)
    return (16 << (n_urns * (memory - 1))) + workspace + counts


class TransitionKernel:
    """One-step transition operator, enumerated by count class.

    A row's draw probabilities depend on its kept windows only through
    their red counts, so the rows of one count class share its class
    tables, gathered from the products of the red-count vectors of its
    sources.  ``apply`` contracts a distribution with them in one
    batched product per block of a group (the classes of one size) and
    the structural check pushes one front at a time through their 0/1
    patterns.  The first pass builds the tables and keeps them, with the
    index arrays of every block (:func:`kernel_bytes`).
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
        # over lags 1..M-1 of each source window; its class is the number
        # c_j of red kept draws per urn, packed as sum_j c_j * M**j.
        rows = np.arange(1 << (N * (M - 1)), dtype=np.int64)
        kept, cls = np.zeros_like(rows), np.zeros_like(rows)
        for j in range(N):
            field = (rows >> (j * (M - 1))) & (self._field_mask >> 1)
            kept |= field << (j * M + 1)
            cls += self._pop[field] * M**j
        self._kept = kept
        fan = np.arange(1 << N, dtype=np.int64)
        oldest = np.zeros_like(fan)
        for j in range(N):
            oldest |= ((fan >> j) & 1) << (j * M)
        self._oldest = oldest  # o -> lag-0 bits of a source
        self._newest = oldest << (M - 1)  # x -> lag M-1 bits of a successor
        self._half, self._table_entries = _split(N, M)
        # Rows by class, and classes by size prod_j C(M-1, c_j), each group
        # (classes of one size) cut into blocks whose tables, or whose
        # product's left operand where that is larger, hold about
        # BLOCK_ENTRIES entries.  Classes are numbered in block order, so a
        # block's classes are a run of them.
        order = np.argsort(cls.astype(np.min_scalar_type(M**N)), kind="stable")
        sizes = np.bincount(cls, minlength=M**N)
        first = np.cumsum(sizes) - sizes
        by_size = np.argsort(sizes, kind="stable")
        self._groups = []  # (lo, rows) of every block: rows[i] those of class lo + i
        for size, lo in zip(*np.unique(sizes[by_size], return_index=True)):
            classes = by_size[lo : lo + np.count_nonzero(sizes == size)]
            rows_of = order[first[classes, None] + np.arange(size)]
            entries = max(len(fan) * self._table_entries, int(size) * len(fan) << (N - self._half))
            step = max(1, BLOCK_ENTRIES // entries)
            self._groups += [(int(lo) + i, rows_of[i : i + step])
                             for i in range(0, len(classes), step)]
        # _contract's workspace: a block's gather (or matmul result) and its
        # product with B (or, with full tables, the result), for the block
        # of the most rows
        gather = max(rows.size for _, rows in self._groups) << N
        self._work_entries = gather + (gather << (N - self._half))
        self._cache: list | None = None  # (src, dst, A, B) of every block
        self._work: np.ndarray | None = None  # float64 workspace, with the tables
        self._patterns: list | None = None  # float32 0/1 patterns of the tables
        self._pattern_work: np.ndarray | None = None  # float32 workspace, with them
        self._pattern_front: np.ndarray | None = None  # a forward push's front and result

    # -- per-state quantities -------------------------------------------------

    def window_counts(self, states) -> np.ndarray:
        """Red draws per urn window for each packed state, shape (len, N)."""
        states = np.asarray(states, dtype=np.int64)
        counts = np.empty(states.shape + (self.n_urns,), dtype=np.int64)
        for j in range(self.n_urns):
            field = (states >> (j * self.memory)) & self._field_mask
            counts[..., j] = self._pop[field]
        return counts

    # -- enumeration core -----------------------------------------------------

    def _count_index(self, states) -> np.ndarray:
        """Index ``sum_j n_j (M+1)**j`` of the red-count vector of each
        packed state, n_j being the red draws in urn j's window."""
        return self.window_counts(states) @ (self.memory + 1) ** np.arange(self.n_urns)

    def _count_probabilities(self) -> np.ndarray:
        """Red-draw probabilities out of every red-count vector, shape
        ((M+1)**N, N), in the order of :meth:`_count_index`: the red
        ratios of its windows mixed through S."""
        N, M = self.n_urns, self.memory
        ratios = np.empty((M + 1,) * N + (N,))
        for j, row in enumerate(self._ratios):  # n_j is the digit of axis N-1-j
            ratios[..., j] = row.reshape((M + 1,) + (1,) * j)
        return clamp_probability(ratios.reshape(-1, N) @ self.S.T, what="draw probability")

    def _tables(self) -> list:
        """Every block's ``(src, dst, A, B)``, built on the first call and
        kept.  ``src[c, r, o]`` and ``dst[c, r, x]`` are the sources and
        successors of row r of class c; ``A[c, o, xA]`` is the product of
        the factors of urns 0..h-1 and ``B[c, xB, o]`` that of urns
        h..N-1, or None when h = N.  The products are formed once per
        red-count vector, and each block gathers those of its sources,
        into its share of one allocation that holds every block's tables:
        source o of a class, whose first row stands for all of them, holds
        the red draws of that row's kept bits plus o's.  The first call
        also allocates ``apply``'s block workspace."""
        if self._cache is None:
            P, h = self._count_probabilities().T, self._half
            A, B = _products(P[:h]), (_products(P[h:]) if h < self.n_urns else None)
            del P
            first = self._kept[np.concatenate([rows[:, 0] for _, rows in self._groups])]
            base, off = self._count_index(first), self._count_index(self._oldest)
            if B is None:
                A = np.ascontiguousarray(A.T)
            slab = np.empty((self.memory**self.n_urns << self.n_urns) * self._table_entries)
            self._cache, end = [], 0
            for lo, rows in self._groups:
                size = (len(rows) << self.n_urns) * self._table_entries
                at = base[lo : lo + len(rows), None] + off
                self._cache.append(self._table_block(A, B, rows, at, slab[end : end + size]))
                end += size
            self._work = np.empty(self._work_entries)
        return self._cache

    def _table_block(self, A, B, rows, at, slab):
        """``(src, dst, A, B)`` of the classes whose rows are ``rows`` and
        the red-count vectors of whose sources are ``at[c, o]``, gathered
        into ``slab`` from the products ``A[n, x]`` of every red-count
        vector n (h = N) or ``A[xA, n]`` and ``B[xB, n]``.  ``apply`` reads
        a full table faster row-major, and half tables faster as the
        transposed views of the gathered products (on a 2-vCPU machine,
        0.55 against 0.70 ms per apply on the 4-urn ring and 3.9 against
        4.4 ms on the 8-urn Barabasi-Albert chain).  The indices are in
        range, so ``take`` writes ``slab`` in its unbuffered mode."""
        kept = self._kept[rows]
        src = kept[:, :, None] + self._oldest
        dst = (kept >> 1)[:, :, None] + self._newest
        if B is None:
            return src, dst, np.take(A, at, axis=0, out=slab.reshape(*at.shape, -1),
                                     mode="clip"), None
        cut = at.size << self._half
        A, B = (np.take(T, at.ravel(), axis=1, out=part.reshape(len(T), -1), mode="clip")
                .reshape(-1, *at.shape) for T, part in ((A, slab[:cut]), (B, slab[cut:])))
        return src, dst, A.transpose(1, 2, 0), B.transpose(1, 0, 2)

    # -- operator -------------------------------------------------------------

    def apply(self, mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Push a distribution one step forward (row-vector times kernel);
        written into ``out`` (float64, of mu's length, not sharing mu's
        memory) when it is given."""
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.n_states,):
            raise ValueError(f"distribution must have length {self.n_states}")
        if out is None:
            out = np.empty(self.n_states)
        elif out.shape != mu.shape or out.dtype != mu.dtype or np.may_share_memory(out, mu):
            raise ValueError(f"out must be a float64 array of length {self.n_states} "
                             "apart from the distribution")
        tables = self._tables()
        return _contract(tables, mu, out, self._work)


def _contract(tables, mu: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``mu`` one step forward into ``out``, one batched matrix product per
    block's ``(src, dst, A, B)``: of the tables, or of their 0/1 patterns.

    Each block runs in ``work``, of mu's dtype and at least the kernel's
    ``_work_entries``: the gather ``mu[src]`` at its front, then the
    product with B behind it, and the matmul's result in whichever of the
    two the matmul does not read.  The indices are the kernel's own, in
    range, so ``take`` writes unbuffered.  The product with B is an
    ``einsum`` with no summed index, x * B exactly for the nonnegative
    entries here: ``np.multiply`` into ``out`` with x broadcast along xB
    copies through its own 64 KiB buffers, and took 36 against 24 us per
    8-urn Barabasi-Albert block (NumPy 2.4, 2 vCPUs)."""
    for src, dst, A, B in tables:
        # out[c, r, xB * 2**h + xA] = sum_o mu[src[c, r, o]] B[c, xB, o] A[c, o, xA]
        n = src.size
        x = np.take(mu, src, out=work[:n].reshape(src.shape), mode="clip")
        if B is None:
            y = work[n : 2 * n]
        else:
            xB = work[n : n * (1 + B.shape[1])].reshape(*src.shape[:2], *B.shape[1:])
            x = np.einsum("cro,cbo->crbo", x, B, out=xB).reshape(len(src), -1, src.shape[2])
            y = work[:n]  # the gather is spent
        out[dst] = np.matmul(x, A, out=y.reshape(len(src), -1, A.shape[2])).reshape(dst.shape)
    return out


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
    nxt, gap = np.empty_like(mu), np.empty_like(mu)
    for _ in range(max_iters):
        kernel.apply(mu, out=nxt)
        resid = float(np.abs(np.subtract(nxt, mu, out=gap), out=gap).max())
        if resid <= tol:
            return mu
        mu, nxt = np.divide(nxt, nxt.sum(), out=nxt), mu
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iters} iterations "
        f"(last residual {resid:.3e})"
    )


def point_mass(kernel: TransitionKernel, state: int = 0) -> np.ndarray:
    """Distribution concentrated on one packed state (default: all zeros)."""
    if not 0 <= state < kernel.n_states:
        raise ValueError("state out of range")
    mu = np.zeros(kernel.n_states)
    mu[state] = 1.0
    return mu


def lag_marginals(mu, lag: int, memory: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """P(draw at window position ``lag`` is red) of every urn under ``mu``.

    ``len(mu)`` must be ``2**(N*memory)`` for some integer N; entry
    ``urn`` probes bit ``urn * memory + lag``, lag 0 the oldest
    position.  One pass peels the bits off from the top: the mass with
    the top bit set is that bit's marginal when it is a ``lag`` bit, and
    the two halves are then added, each sum into the front of one
    scratch buffer of ``len(mu) // 2`` float64 values, so the work is
    about 2 * len(mu).  A caller that extracts marginals every step
    passes that buffer as ``scratch``, apart from ``mu``.
    """
    mu = np.asarray(mu, dtype=float)
    size = mu.shape[0] if mu.ndim == 1 else 0
    bits = size.bit_length() - 1
    if size == 0 or (1 << bits) != size or bits % memory != 0:
        raise ValueError("distribution length is not 2**(N*memory)")
    if not 0 <= lag < memory:
        raise ValueError(f"lag {lag} out of range for memory {memory}")
    out = np.empty(bits // memory)
    if scratch is None:
        scratch = np.empty(size >> 1)
    rest = mu
    for bit in range(bits - 1, lag - 1, -1):
        half = len(rest) >> 1
        urn, at = divmod(bit, memory)
        if at == lag:
            out[urn] = rest[half:].sum()
        rest = np.add(rest[:half], rest[half:], out=scratch[:half])
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
    red probabilities out of every state, no simulation involved.  At
    memory 1 a state's red-count vector is its own bits, so its index
    (:meth:`TransitionKernel._count_index`) is the state itself.
    """
    if kernel.memory != 1:
        raise ValueError("two_fold_joint is defined for memory 1")
    if not 0 <= urn < kernel.n_urns:
        raise ValueError(f"urn index {urn} out of range")
    pi = _check_distribution(pi, kernel.n_states)
    p = kernel._count_probabilities()[:, urn]
    now = (np.arange(kernel.n_states) >> urn) & 1
    joint = np.empty((2, 2))
    joint[:, 1] = np.bincount(now, weights=pi * p, minlength=2)
    joint[:, 0] = np.bincount(now, weights=pi * (1.0 - p), minlength=2)
    return joint


@dataclass
class KernelStructure:
    """Certificate produced by :func:`check_irreducible_aperiodic`."""

    irreducible: bool
    aperiodic: bool
    period: int | None
    n_components: int

    @property
    def ok(self) -> bool:
        return self.irreducible and self.aperiodic

    def __bool__(self) -> bool:
        return self.ok


def _patterns(kernel: TransitionKernel) -> list:
    """Every block's ``(src, dst, A, B)`` with the table entries replaced by
    their 0/1 pattern, 1.0 (float32) where positive, in the form in which
    the kernel keeps its tables: a transition is positive where both of
    its factors are.  The kernel keeps the patterns beside its tables,
    with their workspace and a forward push's float32 front and result."""
    if kernel._patterns is None:
        kernel._patterns = [(src, dst, (A > 0.0).astype(np.float32),
                             None if B is None else (B > 0.0).astype(np.float32))
                            for src, dst, A, B in kernel._tables()]
        kernel._pattern_work = np.empty(kernel._work_entries, dtype=np.float32)
        kernel._pattern_front = np.empty((2, kernel.n_states), dtype=np.float32)
    return kernel._patterns


def _push(kernel: TransitionKernel, front, backward: bool = False) -> np.ndarray:
    """Mask of the states one step after, or ``backward`` before, a state of
    the boolean ``front``, through the 0/1 patterns, in which nothing
    underflows: forward by ``apply``'s contraction, backward by its
    transpose, each row's front through ``A`` and then ``B``."""
    if not backward:
        patterns = _patterns(kernel)
        mu, out = kernel._pattern_front
        np.copyto(mu, front)
        return _contract(patterns, mu, out, kernel._pattern_work) > 0.0
    hit = np.empty(kernel.n_states, dtype=bool)
    for src, dst, A, B in _patterns(kernel):
        # y[c, r, xB, o] = sum_xA front[dst[c, r, xB * 2**h + xA]] A[c, o, xA]; 1 xB if full
        y = np.matmul(front[dst].astype(np.float32).reshape(len(src), -1, A.shape[2]),
                      A.transpose(0, 2, 1)).reshape(*src.shape[:2], -1, src.shape[2])
        if B is not None:
            y *= B[:, None]
        hit[src] = y.sum(axis=2) > 0.0
    return hit


def _reach(kernel: TransitionKernel, start: int, live, backward: bool = False) -> np.ndarray:
    """BFS levels, -1 where never reached, of the search from the live state
    ``start`` over the edges with positive probability, forward or
    ``backward``, inside the boolean mask ``live``."""
    level = np.where(np.arange(kernel.n_states) == start, 0, -1)
    front, depth = level == 0, 0
    while front.any():
        depth += 1
        front = _push(kernel, front, backward) & live & (level < 0)
        np.putmask(level, front, depth)
    return level


def check_irreducible_aperiodic(kernel: TransitionKernel) -> KernelStructure:
    """Structural check of the chain via its directed transition graph.

    Each round removes the live states with no live predecessor or
    successor, each a component of its own, or else the component of the
    lowest live state: its forward and backward reach among them.  The
    period is the gcd of ``level[from] + 1 - level[to]`` over the edges
    reached from state 0.  Every search pushes one front at a time.
    """
    live, n_comp = np.ones(kernel.n_states, dtype=bool), 0
    while live.any():
        # each state with no live edge in, or none out, is a component; else one is peeled
        gone = live & ~(_push(kernel, live) & _push(kernel, live, True))
        n_comp += int(np.count_nonzero(gone)) or 1
        if not gone.any():  # peel the component of the lowest live state
            pivot = int(np.argmax(live))
            ahead, behind = (_reach(kernel, pivot, live, back) >= 0 for back in (False, True))
            gone = ahead & behind
        live &= ~gone
    level, period = _reach(kernel, 0, np.ones_like(live)), 0
    for depth in range(int(level.max()) + 1):
        to = level[_push(kernel, level == depth)]
        period = int(np.gcd(period, np.gcd.reduce(np.abs(depth + 1 - to))))
    irreducible = n_comp == 1
    return KernelStructure(irreducible, irreducible and period == 1, period, n_comp)
