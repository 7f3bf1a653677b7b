"""Exact computations on the expanded draw chain."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet import chain
from polyanet.chain import (
    build_kernel,
    check_irreducible_aperiodic,
    lag_marginals,
    marginal_infection,
    point_mass,
    stationary_distribution,
    two_fold_joint,
)
from polyanet.errors import CapExceededError
from polyanet.params import NetworkParams, normalize
from polyanet.networks import barabasi_albert, ring, row_normalize

from conftest import (
    apply_by_full_blocks,
    class_tables,
    csgraph_structure,
    draw_probabilities,
    make_raw,
    pair_raw,
    pair_stationary,
    random_interaction,
    realized_pair,
    to_sparse,
    transition_prob,
    window_counts,
    write_rows,
)


def random_params(rng, n_urns, memory):
    return NetworkParams(
        memory=memory,
        rho=rng.uniform(0.05, 0.95, n_urns),
        delta_r=rng.uniform(0.0, 2.0, n_urns),
        delta_b=rng.uniform(0.05, 2.0, n_urns),
    )


def brute_force_matrix(params, S):
    """Dense kernel assembled entry by entry from transition_prob."""
    n = 1 << (params.n_urns * params.memory)
    Q = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            Q[a, b] = transition_prob(a, b, params, S)
    return Q


class TestLayout:
    def test_window_counts(self, rng):
        # the oracle reads urn j's window from bits 3j..3j+2
        par = random_params(rng, 2, 3)
        kern = build_kernel(par, random_interaction(rng, 2))
        # urn 0 window = 0b101 (2 red), urn 1 window = 0b001 (1 red)
        state = 0b001_101
        counts = window_counts(kern, [state])[0]
        assert counts.tolist() == [2, 1]


class TestKernelOperator:
    def test_rows_sum_to_one(self, rng):
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 4)):
            par = random_params(rng, n, m)
            kern = build_kernel(par, random_interaction(rng, n))
            Q = to_sparse(kern)
            assert np.allclose(np.asarray(Q.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_apply_matches_sparse(self, rng):
        par = random_params(rng, 3, 2)
        kern = build_kernel(par, random_interaction(rng, 3))
        Q = to_sparse(kern)
        mu = rng.dirichlet(np.ones(kern.n_states))
        assert np.allclose(kern.apply(mu), mu @ Q, atol=1e-14)

    def test_apply_matches_brute_force(self, rng):
        par = random_params(rng, 2, 2)
        S = random_interaction(rng, 2)
        kern = build_kernel(par, S)
        Q = brute_force_matrix(par, S)
        mu = rng.dirichlet(np.ones(kern.n_states))
        assert np.allclose(kern.apply(mu), mu @ Q, atol=1e-14)

    def test_apply_into_a_buffer(self, rng):
        kern = build_kernel(random_params(rng, 3, 2), random_interaction(rng, 3))
        mu = rng.dirichlet(np.ones(kern.n_states))
        buf = np.full(kern.n_states, np.nan)
        assert kern.apply(mu, out=buf) is buf
        assert np.array_equal(buf.view(np.int64), kern.apply(mu).view(np.int64))
        for out in (mu, mu[::-1], np.empty(kern.n_states - 1), np.empty(kern.n_states, np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                kern.apply(mu, out=out)

    def test_incompatible_shift_is_zero(self):
        par = NetworkParams.homogeneous(1, 2, 0.5, 1.0)
        S = np.array([[1.0]])
        # from window 0b11, the next window must keep bit 1 as its bit 0
        assert transition_prob(0b11, 0b00, par, S) == 0.0
        assert transition_prob(0b11, 0b01, par, S) > 0.0

    def test_frozen_homogeneous_transition(self):
        # two urns, memory 1, rho=1/2, delta=1, uniform mixing:
        # out of the all-black state each urn draws red w.p. 1/4
        par = NetworkParams.homogeneous(2, 1, 0.5, 1.0)
        S = np.full((2, 2), 0.5)
        assert transition_prob(0b00, 0b00, par, S) == pytest.approx(0.5625, abs=1e-15)
        assert transition_prob(0b00, 0b01, par, S) == pytest.approx(0.1875, abs=1e-15)
        assert transition_prob(0b00, 0b11, par, S) == pytest.approx(0.0625, abs=1e-15)

    def test_state_cap_enforced(self):
        par = NetworkParams.homogeneous(6, 5, 0.5, 1.0)
        with pytest.raises(CapExceededError):
            build_kernel(par, np.full((6, 6), 1.0 / 6), cap_bits=24)

    def test_matrix_size_mismatch(self):
        par = NetworkParams.homogeneous(2, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            build_kernel(par, np.eye(3))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_distribution_mass_conserved(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        g = np.random.default_rng(seed)
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        par = random_params(g, n, m)
        kern = build_kernel(par, random_interaction(g, n))
        mu = g.dirichlet(np.ones(kern.n_states))
        out = kern.apply(mu)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= -1e-15)


class TestStationary:
    def test_two_urn_closed_form(self):
        raw = pair_raw(0.5, 1.0, 0.5, 0.5)
        kern = build_kernel(normalize(raw), raw.interaction)
        pi = stationary_distribution(kern)
        assert np.allclose(pi, [2 / 7, 3 / 14, 3 / 14, 2 / 7], atol=1e-10)

    def test_two_urn_closed_form_asymmetric(self):
        raw = pair_raw(0.3, 0.8, 0.9, 0.2)
        kern = build_kernel(normalize(raw), raw.interaction)
        pi = stationary_distribution(kern)
        assert np.allclose(pi, pair_stationary(*realized_pair(raw)), atol=1e-9)

    def test_marginals_hit_rho(self):
        raw = pair_raw(0.37, 0.6, 0.25, 0.8)
        kern = build_kernel(normalize(raw), raw.interaction)
        pi = stationary_distribution(kern)
        for urn in (0, 1):
            assert marginal_infection(pi, urn, 0, 1) == pytest.approx(0.37, abs=1e-10)

    def test_agrees_with_brute_force_eig(self, rng):
        for n, m in ((2, 2), (3, 2), (2, 4)):
            par = random_params(rng, n, m)
            S = random_interaction(rng, n)
            kern = build_kernel(par, S)
            pi = stationary_distribution(kern)
            Q = brute_force_matrix(par, S) if n * m <= 6 else to_sparse(kern).toarray()
            vals, vecs = np.linalg.eig(Q.T)
            k = int(np.argmin(np.abs(vals - 1.0)))
            ref = np.abs(np.real(vecs[:, k]))
            ref /= ref.sum()
            assert np.max(np.abs(pi - ref)) < 1e-9

    def test_agrees_with_arpack_at_larger_size(self, rng):
        par = random_params(rng, 3, 4)
        S = random_interaction(rng, 3)
        kern = build_kernel(par, S)
        pi = stationary_distribution(kern)
        vals, vecs = spla.eigs(to_sparse(kern).T.tocsc(), k=1, which="LM")
        ref = np.abs(np.real(vecs[:, 0]))
        ref /= ref.sum()
        assert np.max(np.abs(pi - ref)) < 1e-9

    def test_start_independent(self, rng):
        par = random_params(rng, 2, 2)
        S = random_interaction(rng, 2)
        kern = build_kernel(par, S)
        a = stationary_distribution(kern)
        b = stationary_distribution(kern, start=point_mass(kern, 5))
        assert np.max(np.abs(a - b)) < 1e-9

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_refuses_no_iterations(self, max_iters):
        kern = build_kernel(NetworkParams.homogeneous(1, 1, 0.5, 1.0), np.eye(1))
        with pytest.raises(ValueError, match="max_iters"):
            stationary_distribution(kern, max_iters=max_iters)


class TestEvolve:
    def test_ring_transient_law(self):
        # memory-1 homogeneous ring: the closed-form geometric approach
        par = NetworkParams.homogeneous(3, 1, 0.4, 1.5)
        S = ring(3)
        kern = build_kernel(par, S)
        start_state = 0b011  # urns 0 and 1 red, urn 2 black
        z = np.array([1.0, 1.0, 0.0])
        mu = point_mass(kern, start_state)
        lam = 1.5 / 2.5
        for t in range(1, 40):
            mu = kern.apply(mu)
            for i in range(3):
                source = z[(i + t) % 3]
                want = 0.4 + lam**t * (source - 0.4)
                assert marginal_infection(mu, i, 0, 1) == pytest.approx(
                    want, abs=1e-12
                )

    def test_bad_inputs(self, rng):
        # a start of the wrong length, with a negative entry (summing to 1)
        # or summing to 2 is refused
        par = random_params(rng, 2, 1)
        kern = build_kernel(par, random_interaction(rng, 2))
        mu = rng.dirichlet(np.ones(kern.n_states))
        bad = mu.copy()
        bad[0], bad[1] = -bad[1], bad[0] + 2 * bad[1]
        for start, match in ((mu[:-1], "length"), (bad, "nonnegative"), (mu * 2.0, "sums to")):
            with pytest.raises(ValueError, match=match):
                stationary_distribution(kern, start=start)

    def test_point_mass_refuses_a_state_that_is_not_an_integer(self):
        kern = build_kernel(NetworkParams.homogeneous(2, 1, 0.5, 1.0), np.eye(2))
        assert point_mass(kern, np.int64(3)).tolist() == [0.0, 0.0, 0.0, 1.0]
        for state in (2.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="state must be an integer"):
                point_mass(kern, state)
        for state in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                point_mass(kern, state)


class TestMarginals:
    def test_single_bit_distribution(self):
        assert marginal_infection([0.3, 0.7], 0, 0, 1) == pytest.approx(0.7)

    def test_lag_shifts_under_apply(self, rng):
        par = random_params(rng, 2, 3)
        kern = build_kernel(par, random_interaction(rng, 2))
        mu = rng.dirichlet(np.ones(kern.n_states))
        nxt = kern.apply(mu)
        for urn in (0, 1):
            for lag in (1, 2):
                assert marginal_infection(nxt, urn, lag - 1, 3) == pytest.approx(
                    marginal_infection(mu, urn, lag, 3), abs=1e-12
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            marginal_infection([0.5, 0.5, 0.0], 0, 0, 1)
        with pytest.raises(ValueError):
            marginal_infection([0.25] * 4, 2, 0, 1)
        with pytest.raises(ValueError):
            marginal_infection([0.25] * 4, 0, 1, 1)


class TestTwoFoldJoint:
    def test_memory_one_only(self, rng):
        par = random_params(rng, 1, 2)
        kern = build_kernel(par, np.eye(1))
        with pytest.raises(ValueError):
            two_fold_joint(point_mass(kern), kern, 0)

    def test_consistency_with_stationary(self, rng):
        par = random_params(rng, 2, 1)
        S = random_interaction(rng, 2)
        kern = build_kernel(par, S)
        pi = stationary_distribution(kern)
        joint = two_fold_joint(pi, kern, 0)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        marg = marginal_infection(pi, 0, 0, 1)
        # both coordinates of the pair follow the stationary one-draw law
        assert joint[1].sum() == pytest.approx(marg, abs=1e-10)
        assert joint[:, 1].sum() == pytest.approx(marg, abs=1e-9)

    @pytest.mark.parametrize("n_urns", range(1, 9))
    def test_memory_one_reads_each_state_at_its_own_index(self, n_urns):
        # at M = 1 a state's red-count vector is its bits: the one class's
        # source o is state o, its count index is o, and the count vectors'
        # probabilities are the states'
        g = np.random.default_rng(n_urns)
        kern = build_kernel(random_params(g, n_urns, 1), random_interaction(g, n_urns))
        states = np.arange(kern.n_states)
        [(classes, _)] = kern._groups
        assert np.array_equal(kern._oldest, states)
        assert np.array_equal(chain._source_counts(classes, n_urns, 1), states[None])
        P = draw_probabilities(kern, states)
        assert np.array_equal(kern._count_probabilities().view(np.int64), P.view(np.int64))
        pi = g.dirichlet(np.ones(kern.n_states))
        for urn in range(n_urns):
            want = np.zeros((2, 2))
            for s, (w, p) in enumerate(zip(pi, P[:, urn])):
                want[(s >> urn) & 1] += (w * (1.0 - p), w * p)
            assert np.max(np.abs(two_fold_joint(pi, kern, urn) - want)) <= 1e-15


class TestStructure:
    def test_homogeneous_chain_certificate(self):
        par = NetworkParams.homogeneous(2, 2, 0.5, 0.7)
        kern = build_kernel(par, np.full((2, 2), 0.5))
        info = check_irreducible_aperiodic(kern)
        assert info.ok and bool(info)
        assert info.period == 1
        assert info.n_components == 1

    def test_absorbing_chain_flagged(self):
        # all-red urn that only reinforces red never leaves the red state
        par = NetworkParams(1, [1.0], [1.0], [0.0])
        kern = build_kernel(par, np.eye(1))
        info = check_irreducible_aperiodic(kern)
        assert not info.irreducible
        assert info.n_components == 2
        assert not info.ok and not bool(info)

    def test_certificate_matches_csgraph(self, table_form):
        # 48 seeded kernels (N <= 5, N*M <= 9): each urn's rho is 0 or 1 with
        # probability 1/2 and one reinforcement is zero, so some chains have
        # absorbing windows.  In case 48, urn 0 listens only to urn 1, whose
        # rho is 1.  Cases 48 and 49, a one-urn chain of 2048 states, are
        # irreducible; case 50 has 2048 components, and the last case 4096
        # singleton components: each state moves to its red-drawing
        # successor, and only the all-red window returns to itself.
        cases = [structure_case(seed) for seed in range(48)]
        cases += [(NetworkParams(3, [0.4, 1.0], [0.5, 0.7], [0.6, 0.3]),
                   np.array([[0.0, 1.0], [0.5, 0.5]])),
                  (random_params(np.random.default_rng(7), 1, 11), np.eye(1)),
                  (NetworkParams(11, [1.0], [0.8], [0.0]), np.eye(1)),
                  (NetworkParams(12, [1.0], [0.8], [0.0]), np.eye(1))]
        found = []
        for par, S in cases:
            kern = build_kernel(par, S)
            info = check_irreducible_aperiodic(kern)
            found.append([info.irreducible, info.aperiodic, info.period, info.n_components])
            assert found[-1] == csgraph_structure(kern), (par, S)
        assert 9 <= sum(not f[0] for f in found) <= len(found) - 9
        assert found[48][0] and found[49][0] and found[-2][3] == 2048
        assert found[-1][3] == 4096


def structure_case(seed):
    """Kernel inputs for the certificate sweep: N <= 5 urns, N*M <= 9 bits.

    Each urn's rho is 0 or 1 with probability 1/2, one urn's red or black
    reinforcement is zero, and each off-diagonal interaction weight is
    dropped with probability 1/3.
    """
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 6))
    m = int(g.integers(1, 9 // n + 1))
    rho = np.where(g.random(n) < 0.5, g.integers(0, 2, n), g.uniform(0.05, 0.95, n))
    delta = [g.uniform(0.0, 2.0, n), g.uniform(0.05, 2.0, n)]
    delta[int(g.integers(0, 2))][int(g.integers(0, n))] = 0.0
    S = random_interaction(g, n) * ((g.random((n, n)) < 2 / 3) | np.eye(n, dtype=bool))
    return NetworkParams(m, rho, *delta), S / S.sum(axis=1, keepdims=True)


# (n_urns, memory, seed): every case keeps N*M <= 6 so the transition_prob
# oracle stays cheap; "pinned" makes urn 0 draw red and urn 1 black with
# probability exactly 1, so whole factor rows are exact zeros.
PATH_CASES = [
    (1, 1, 11), (1, 3, 12), (2, 1, 13), (2, 2, 14), (2, 3, 15),
    (3, 1, 16), (3, 2, 17), (4, 1, 18), ("pinned", 2, 19),
]
_BRUTE = {}


def path_case(case):
    """Kernel inputs and their brute-force matrix, built once per case."""
    if case not in _BRUTE:
        n, m, seed = case
        g = np.random.default_rng(seed)
        if n == "pinned":
            par = NetworkParams(
                memory=m,
                rho=[1.0, 0.0, g.uniform(0.05, 0.95)],
                delta_r=[0.7, 0.0, g.uniform(0.0, 2.0)],
                delta_b=[0.0, 1.3, g.uniform(0.05, 2.0)],
            )
            S = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.3, 0.4]])
        else:
            par = random_params(g, n, m)
            S = random_interaction(g, n)
        _BRUTE[case] = (par, S, brute_force_matrix(par, S))
    return _BRUTE[case]


def kernel_rows(kern):
    """The kernel's own dense matrix, row s being ``apply`` of the point
    mass on s."""
    return np.array([kern.apply(point_mass(kern, s)) for s in range(kern.n_states)])


@pytest.fixture(params=["half", "full"])
def table_form(request, monkeypatch):
    """The table budget that makes every kernel keep its class tables and
    patterns as halves ("half") or, where it may (tables at M >= 3), whole
    ("full")."""
    budget = 0 if request.param == "half" else 1 << 40
    monkeypatch.setattr(chain, "KERNEL_CACHE_BYTES", budget)
    return request.param


def assert_split(kern, table_form):
    """The kernel's split point is the one that ``table_form`` chooses."""
    N = kern.n_urns
    assert kern._half == (N if table_form == "full" and kern.memory >= 3 else N // 2)


class TestKernelPaths:
    """apply and the blocks (read through the to_sparse oracle) agree
    with transition_prob whether the class tables are kept whole or
    as halves, and wherever blocks split."""

    @pytest.mark.parametrize("rows_per_block", [None, 3])
    @pytest.mark.parametrize("case", PATH_CASES)
    def test_matches_brute_force(self, case, rows_per_block, table_form, monkeypatch):
        par, S, Q = path_case(case)
        if rows_per_block is not None:
            # Three rows per block: boundaries inside the space and a
            # partial last block whenever there are four rows or more.
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", rows_per_block << (2 * par.n_urns))
        kern = build_kernel(par, S)
        g = np.random.default_rng(case[2])
        for _ in range(2):  # the second pass reads the same tables
            mu = g.dirichlet(np.ones(kern.n_states))
            assert np.max(np.abs(kern.apply(mu) - mu @ Q)) <= 1e-15
        assert_split(kern, table_form)
        sparse = to_sparse(kern)
        assert sparse.nnz == np.count_nonzero(Q)
        assert np.max(np.abs(sparse.toarray() - Q)) <= 1e-15

    @pytest.mark.parametrize("case", PATH_CASES)
    def test_rows_match_brute_force(self, case, table_form):
        # row by row: the same exact zeros, each entry to 1e-15, and every
        # row a distribution
        par, S, Q = path_case(case)
        rows = kernel_rows(build_kernel(par, S))
        assert np.array_equal(rows > 0.0, Q > 0.0)
        assert np.max(np.abs(rows - Q)) <= 1e-15
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("rows_per_block", [None, 3])
    def test_row_digest(self, tmp_path, rows_per_block, table_form, monkeypatch):
        # the positive entries of the kernel's own rows, sorted, keep their
        # bits whether the tables are whole or halves and wherever blocks split
        if rows_per_block is not None:
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", rows_per_block << 6)
        par = NetworkParams(
            memory=2, rho=[0.3, 0.65, 0.5], delta_r=[0.4, 1.1, 0.25],
            delta_b=[0.9, 0.2, 0.6],
        )
        S = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        rows = kernel_rows(build_kernel(par, S))
        a, b = np.nonzero(rows > 0.0)
        path = tmp_path / "rows.csv"
        write_rows(path, ("from_state", "to_state", "probability"),
                   zip(a.tolist(), b.tolist(), rows[a, b].tolist()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "42c90b193feafda7eb404fde3f64ce6900e3166bf525bf6590453af5f92ad489"
        )

    def test_pinned_case_has_exact_zeros(self):
        par, S, Q = path_case(PATH_CASES[-1])
        assert np.count_nonzero(Q) < Q.shape[0] << par.n_urns

    def test_repeated_apply_is_deterministic(self, table_form):
        par, S, _ = path_case((2, 3, 15))
        runs = []
        for kern in (build_kernel(par, S), build_kernel(par, S)):
            mu = point_mass(kern, 0)
            for _ in range(5):
                mu = kern.apply(mu)
            runs.append(mu)
        assert np.array_equal(*runs)


HALF_CASES = [(n, m) for n in range(1, 8) for m in (1, 2, 3) if n * (m + 1) <= 16]


def class_block_entries(n_urns, memory, classes):
    """``BLOCK_ENTRIES`` that gives ``apply`` blocks of ``classes`` classes
    wherever their tables outweigh their rows (always at M <= 2), for the
    split point that the kernel cache budget picks."""
    _, entries = chain._split(n_urns, memory)
    return classes * (entries << n_urns)


def assert_block_classes(kern, classes):
    """No block holds more than ``classes`` classes, and the size-1 group
    (every class at M <= 2) fills its blocks up to that many."""
    assert max(len(rows) for _, rows in kern._groups) <= classes
    ones = [len(rows) for _, rows in kern._groups if rows.shape[1] == 1]
    assert ones[0] == min(classes, sum(ones))


class TestHalfTables:
    """apply, which contracts the class tables of each block (two half
    tables, or one full table at M = 3 when the budget allows), matches
    the full-block oracle to 1e-15 in both table forms, at odd N and
    h = 0, and with blocks of one class, three classes (a partial last
    block where a group has more than three) and the default."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n_urns, memory", HALF_CASES)
    def test_matches_full_blocks(self, n_urns, memory, rows, table_form, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", class_block_entries(n_urns, memory, rows))
        g = np.random.default_rng(100 * n_urns + memory)
        kern = build_kernel(random_params(g, n_urns, memory), random_interaction(g, n_urns))
        if rows is not None:
            assert_block_classes(kern, rows)
        for _ in range(2):  # the second pass reads the same tables
            mu = g.dirichlet(np.ones(kern.n_states))
            assert np.max(np.abs(kern.apply(mu) - apply_by_full_blocks(kern, mu))) <= 1e-15
        assert_split(kern, table_form)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_benchmark_network_steps(self, rows, table_form, monkeypatch):
        # The exact benchmark's preferential-attachment chain: N = 8, M = 2,
        # fan-out 256, stepped four times from the all-black state.
        if rows is not None:
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", class_block_entries(8, 2, rows))
        g = np.random.default_rng(1789)
        S = row_normalize(barabasi_albert(8, 2, 1789), self_weight=1.0)
        kern = build_kernel(random_params(g, 8, 2), S)
        mu = want = point_mass(kern, 0)
        for _ in range(4):
            mu, want = kern.apply(mu), apply_by_full_blocks(kern, want)
            assert np.max(np.abs(mu - want)) <= 1e-15
        assert_split(kern, table_form)


CLASS_SHAPES = [(n, m) for m in range(1, 6) for n in range(1, 9) if n * (m + 1) <= 16]


@st.composite
def class_kernels(draw, shapes=CLASS_SHAPES):
    """Random params and S of one of ``shapes`` (N*(M+1) <= 16 and M <= 5
    by default), where some urns are pinned red (rho = 1, delta_b = 0) or
    black (rho = 0, delta_r = 0) and see only themselves, so that some
    factors are exactly zero."""
    n, m = draw(st.sampled_from(shapes))
    seed = draw(st.integers(0, 2**32 - 1))
    pinned = draw(st.lists(st.sampled_from(["free", "red", "black"]), min_size=n, max_size=n))
    g = np.random.default_rng(seed)
    rho, delta_r, delta_b = g.uniform(0.05, 0.95, n), g.uniform(0, 2, n), g.uniform(0.05, 2, n)
    S = random_interaction(g, n) * ((g.random((n, n)) < 2 / 3) | np.eye(n, dtype=bool))
    for j, kind in enumerate(pinned):
        if kind != "free":
            S[j] = np.eye(n)[j]
            rho[j] = 1.0 if kind == "red" else 0.0
            (delta_b if kind == "red" else delta_r)[j] = 0.0
    return NetworkParams(m, rho, delta_r, delta_b), S / S.sum(axis=1, keepdims=True), seed


class TestCountClasses:
    """Rows whose kept windows hold the same red counts share one class
    table; apply through them matches the full-block oracle at both split
    points."""

    @given(class_kernels(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_full_blocks(self, case, full):
        par, S, seed = case
        # the split point is fixed when the kernel is built
        with mock.patch.object(chain, "KERNEL_CACHE_BYTES", (1 << 40) if full else 0):
            kern = build_kernel(par, S)
        N = par.n_urns
        assert kern._half == (N if full and par.memory >= 3 else N // 2)
        g = np.random.default_rng(seed)
        for _ in range(2):  # the second pass reads the same tables
            mu = g.dirichlet(np.ones(kern.n_states))
            assert np.max(np.abs(kern.apply(mu) - apply_by_full_blocks(kern, mu))) <= 1e-15

    @given(class_kernels([(n, m) for n in range(1, 5) for m in range(1, 5)]), st.booleans(),
           st.sampled_from([1, 3, None]))
    @settings(max_examples=60, deadline=None)
    def test_tables_match_per_state_tables(self, case, full, classes):
        # gathered from the red-count vectors' products, the tables are those
        # formed per (class, source) pair, bit for bit and with the same
        # strides, whether kept whole or as halves and however blocks split
        par, S, _ = case
        with mock.patch.object(chain, "KERNEL_CACHE_BYTES", (1 << 40) if full else 0):
            entries = chain.BLOCK_ENTRIES if classes is None else class_block_entries(
                par.n_urns, par.memory, classes)
            with mock.patch.object(chain, "BLOCK_ENTRIES", entries):
                kern = build_kernel(par, S)
            if classes is not None:
                assert_block_classes(kern, classes)
            tables = kern._blocks
            want = list(class_tables(kern))
        assert len(tables) == len(want)
        for got, ref in zip(tables, want):
            for a, b in zip(got, ref):
                if b is None:
                    assert a is None
                    continue
                assert a.shape == b.shape and a.strides == b.strides
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("n_urns, memory", CLASS_SHAPES)
    def test_classes_partition_rows_by_counts(self, n_urns, memory):
        S = np.full((n_urns, n_urns), 1.0 / n_urns)
        kern = build_kernel(NetworkParams.homogeneous(n_urns, memory, 0.5, 1.0), S)
        # blocks hold each of the M**N classes once, and their rows each row once
        classes = np.concatenate([c for c, _ in kern._groups])
        assert np.array_equal(np.sort(classes), np.arange(memory**n_urns))
        rows = np.concatenate([r.ravel() for _, r in kern._groups])
        assert np.array_equal(np.sort(rows), np.arange(1 << (n_urns * (memory - 1))))
        # every row of class sum_j c_j M**j holds c_j red kept draws of urn j
        for classes, block in kern._groups:
            counts = window_counts(kern, kern._kept[block])
            assert np.array_equal(counts @ memory ** np.arange(n_urns),
                                  np.broadcast_to(classes[:, None], block.shape))

    @given(class_kernels([(n, m) for n in range(1, 5) for m in range(1, 6)]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_class_digits_index_the_sources_counts(self, case, full):
        # the count index that the tables are gathered at, read from each
        # class's digits, is that of the oracle's counts of every source of
        # every row of the class
        par, S, _ = case
        with mock.patch.object(chain, "KERNEL_CACHE_BYTES", (1 << 40) if full else 0):
            kern = build_kernel(par, S)
        N, M = par.n_urns, par.memory
        for classes, rows in kern._groups:
            src = kern._kept[rows][:, :, None] + kern._oldest
            want = window_counts(kern, src) @ (M + 1) ** np.arange(N)
            got = chain._source_counts(classes, N, M)
            assert np.array_equal(np.broadcast_to(got[:, None], want.shape), want)

    def test_benchmark_chains(self):
        # the ring: 256 classes of 1, 3, 9, 27 and 81 rows, one full table
        # each and one block per group; the Barabasi-Albert chain: one
        # class per row, half tables in blocks of 8 rows as before
        ring_kernel = build_kernel(NetworkParams.homogeneous(4, 4, 0.5, 1.0), ring(4))
        groups = [(r.shape[1], len(r)) for _, r in ring_kernel._groups]
        assert groups == [(1, 16), (3, 64), (9, 96), (27, 64), (81, 16)]
        assert (ring_kernel._half, ring_kernel._table_entries) == (4, 16)
        S = row_normalize(barabasi_albert(8, 2, 1789), self_weight=1.0)
        ba = build_kernel(NetworkParams.homogeneous(8, 2, 0.5, 1.0), S)
        assert [r.shape for _, r in ba._groups] == [(8, 1)] * 32
        assert (ba._half, ba._table_entries) == (4, 32)

    @pytest.mark.parametrize("n_urns, memory", [(4, 4), (8, 2), (2, 5), (3, 1), (1, 3)])
    def test_kernel_bytes_is_what_is_kept(self, n_urns, memory, table_form):
        g = np.random.default_rng(n_urns * memory)
        kern = build_kernel(random_params(g, n_urns, memory), random_interaction(g, n_urns))
        kept = sum(a.nbytes for block in kern._blocks for a in block if a is not None)
        assert kept == chain.kernel_bytes(n_urns, memory)

    def test_default_cap_tables_fit_the_budget(self):
        # every kernel that the default cap admits keeps tables within the
        # budget, which is what lets every kernel keep its tables
        cap = chain.DEFAULT_CAP_BITS
        admitted = [(n, m) for n in range(1, cap) for m in range(1, cap) if n * (m + 1) <= cap]
        assert {(6, 3), (8, 2), (1, 23), (12, 1)} <= set(admitted)
        tables = {(n, m): chain.kernel_bytes(n, m) - (16 << (n * m)) for n, m in admitted}
        assert max(tables.values()) <= chain.KERNEL_CACHE_BYTES
        # the largest: N = 6, M = 3's 3**6 full tables of 64 x 64 entries
        assert max(tables, key=tables.get) == (6, 3)
        assert tables[6, 3] == 8 * 3**6 * 64 * 64


def benchmark_kernel(which):
    """A kernel shaped like one of the exact benchmark's two chains: the
    4-ring at memory 4 on full tables, or the 8-urn Barabasi-Albert chain
    at memory 2 on half tables."""
    if which == "ring":
        return build_kernel(NetworkParams.homogeneous(4, 4, 0.4, 1.0), ring(4))
    S = row_normalize(barabasi_albert(8, 2, 1789), self_weight=1.0)
    return build_kernel(NetworkParams.homogeneous(8, 2, 0.4, 1.0), S)


def traced(fn):
    """``fn()``, the bytes it left allocated and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestWorkspace:
    """A kernel steps in memory that its constructor allocated: its tables
    in one allocation and one page-aligned block workspace.  A structural
    check pushes in scratch of its own, and leaves the kernel as built."""

    @pytest.mark.parametrize("which", ["ring", "ba"])
    def test_applies_allocate_nothing(self, which):
        kern = benchmark_kernel(which)
        assert (kern._half == kern.n_urns) == (which == "ring")  # full tables on the ring only
        mu, nxt = kern.apply(point_mass(kern, 0)), np.empty(kern.n_states)

        def ten():
            a, b = mu, nxt
            for _ in range(10):
                a, b = kern.apply(a, out=b), a

        # the ring's blocks once took a gather and a product per step, the
        # Barabasi-Albert chain's 256 KiB of product per block
        assert traced(ten)[2] < 64 << 10

    @pytest.mark.parametrize("which", ["ring", "ba"])
    def test_marginals_into_scratch_allocate_their_result(self, which):
        kern = benchmark_kernel(which)
        M = kern.memory
        mu = kern.apply(kern.apply(point_mass(kern, 0)))
        scratch = np.empty(kern.n_states >> 1)
        want = lag_marginals(mu, M - 1, M)
        got, current, peak = traced(lambda: lag_marginals(mu, M - 1, M, scratch))
        assert np.array_equal(got, want)
        # the N values and their array, and none of the 256 KiB of halves
        assert current < 1 << 10 and peak < 4 << 10

    def test_tables_share_one_allocation(self, table_form):
        kern = build_kernel(*structure_case(5))

        def root(T):
            while T.base is not None:
                T = T.base
            return T
        roots = {id(root(T)): root(T) for block in kern._blocks for T in block[2:] if T is not None}
        assert [T.nbytes for T in roots.values()] == [
            chain.kernel_bytes(kern.n_urns, kern.memory) - (16 << kern.n_bits)]

    @pytest.mark.parametrize("n_urns, memory", [(4, 4), (8, 2), (6, 3), (2, 9), (3, 1), (1, 3)])
    def test_workspace_within_working_bytes(self, n_urns, memory, table_form):
        # the held workspace fits the two left operands that working_bytes counts
        g = np.random.default_rng(n_urns + memory)
        kern = build_kernel(random_params(g, n_urns, memory), random_interaction(g, n_urns))
        rows = math.comb(memory - 1, (memory - 1) // 2) ** n_urns
        assert kern._work.nbytes <= 16 * max(chain.BLOCK_ENTRIES,
                                             rows << (2 * n_urns - kern._half))
        # it starts on a page boundary, within the page of slack that
        # working_bytes counts beside it
        assert kern._work.ctypes.data % chain.PAGE_BYTES == 0
        assert kern._work.base.nbytes - kern._work.nbytes == chain.PAGE_BYTES - 8

    def test_kernels_in_turn_match_fresh_kernels(self, table_form):
        # two kernels stepped in alternation give what each gives alone
        g = np.random.default_rng(31)
        cases = [(random_params(g, n, m), random_interaction(g, n)) for n, m in [(3, 3), (3, 3)]]
        cases.append(structure_case(7))

        def steps(kern, n):
            mu, out = point_mass(kern, 0), []
            for _ in range(n):
                mu = kern.apply(mu)
                out.append(mu)
            return out

        alone = [steps(build_kernel(*case), 6) for case in cases]
        kernels = [build_kernel(*case) for case in cases]
        mus = [point_mass(k, 0) for k in kernels]
        for t in range(6):
            for i, kern in enumerate(kernels):
                mus[i] = kern.apply(mus[i])
                assert np.array_equal(mus[i], alone[i][t])

    def test_certificate_between_applies(self, table_form):
        # the constructor sets every attribute; applies and the certificate,
        # whose float32 pushes run in scratch of their own, leave each one
        # the object it was, and an apply after a certificate keeps its bits
        for par, S in [structure_case(seed) for seed in (2, 9)] + [
                (NetworkParams.homogeneous(4, 4, 0.4, 1.0), ring(4))]:
            fresh = build_kernel(par, S)
            want = fresh.apply(fresh.apply(point_mass(fresh, 0)))
            kern = build_kernel(par, S)
            built = dict(vars(kern))
            assert all(value is not None for value in built.values())
            mu = kern.apply(point_mass(kern, 0))
            check_irreducible_aperiodic(kern)
            assert np.array_equal(kern.apply(mu), want)
            assert vars(kern).keys() == built.keys()
            assert all(vars(kern)[name] is value for name, value in built.items())

    def test_forward_pushes_allocate_nothing(self):
        # on the 4-ring at memory 4 a push once allocated its 64 KiB bool
        # result, and before that a float32 front and result of 256 KiB each
        kern = benchmark_kernel("ring")
        scratch = chain._Scratch(kern)
        front = chain._push(scratch, np.arange(kern.n_states) == 0)

        def ten():
            hit = front
            for _ in range(10):
                hit = chain._push(scratch, hit)
            return hit

        hit, _, peak = traced(ten)
        assert peak < 16 << 10
        assert hit is scratch.hit and hit.any()


class TestPush:
    """A front's one-step images, read from the positive entries of the
    class tables, are those of the full blocks' F > 0, forward and
    backward, in both table forms and wherever blocks split."""

    @pytest.mark.parametrize("rows", [3, None])
    def test_images_match_full_blocks(self, rows, table_form, monkeypatch):
        cases = [structure_case(seed) for seed in range(48)]
        cases += [path_case(case)[:2] for case in PATH_CASES]
        g = np.random.default_rng(48)
        for par, S in cases:
            if rows is not None:
                monkeypatch.setattr(chain, "BLOCK_ENTRIES",
                                    class_block_entries(par.n_urns, par.memory, rows))
            kern = build_kernel(par, S)
            scratch = chain._Scratch(kern)
            edge = (to_sparse(kern).toarray() > 0.0).astype(np.int64)
            # a dense front, a sparse one, and one of a single state, each
            # with one state forced in
            for density in (0.5, 0.1, 0.0):
                front = g.random(kern.n_states) < density
                front[g.integers(kern.n_states)] = True
                assert np.array_equal(chain._push(scratch, front), edge.T @ front > 0), (par, S)
                assert np.array_equal(chain._push(scratch, front, True), edge @ front > 0), (par, S)
            if rows is not None:
                assert_block_classes(kern, rows)

    def test_reach_levels_are_shortest_paths(self, table_form):
        # forward and backward, inside a random live mask that holds the start
        g = np.random.default_rng(49)
        for par, S in [structure_case(seed) for seed in range(48)]:
            kern = build_kernel(par, S)
            live = g.random(kern.n_states) < 0.7
            start = int(g.integers(kern.n_states))
            live[start] = True
            at = np.flatnonzero(live)
            Q = to_sparse(kern)[at][:, at]
            for backward in (False, True):
                dist = csgraph.shortest_path(Q.T if backward else Q, unweighted=True,
                                             indices=int(np.searchsorted(at, start)))
                want = np.full(kern.n_states, -1)
                want[at] = np.where(np.isfinite(dist), dist, -1)
                assert np.array_equal(chain._reach(chain._Scratch(kern), start, live, backward),
                                      want), (par, S)

    def test_patterns_take_the_tables_form(self, table_form):
        # the patterns are the tables' positive entries, whole where the
        # tables are and as halves where they are
        forms = set()
        for par, S in [structure_case(seed) for seed in range(48)]:
            kern = build_kernel(par, S)
            tables, patterns = kern._blocks, chain._Scratch(kern).patterns
            assert len(patterns) == len(tables)
            for (src, dst, A, B), pattern in zip(tables, patterns):
                assert pattern[0] is src and pattern[1] is dst
                assert (pattern[3] is None) == (B is None)
                forms.add(B is None)
                for T, E in zip((A, B), pattern[2:]):
                    if T is not None:
                        assert E.dtype == np.float32 and E.shape == T.shape
                        assert np.array_equal(E, T > 0.0)
        assert forms == ({False, True} if table_form == "full" else {False})


class TestAdmission:
    def test_admits_on_work_bits(self):
        # 20 state bits fit the default cap, but a step does 2**30 work.
        par = NetworkParams.homogeneous(10, 2, 0.5, 1.0)
        with pytest.raises(CapExceededError, match="20 state bits.*30 work bits"):
            build_kernel(par, ring(10))

    @pytest.mark.parametrize("n_urns, memory", [(4, 4), (8, 2)])
    def test_benchmark_sizes_admitted(self, n_urns, memory):
        par = NetworkParams.homogeneous(n_urns, memory, 0.5, 1.0)
        assert build_kernel(par, ring(n_urns)).n_states == 1 << (n_urns * memory)

    def test_cap_is_inclusive(self):
        par = NetworkParams.homogeneous(3, 2, 0.5, 1.0)
        build_kernel(par, ring(3), cap_bits=9)
        with pytest.raises(CapExceededError):
            build_kernel(par, ring(3), cap_bits=8)


def marginal_oracle(mu, urn, lag, memory):
    states = np.arange(len(mu))
    return float(mu[((states >> (urn * memory + lag)) & 1) == 1].sum())


class TestLagMarginals:
    @pytest.mark.parametrize("n_urns, memory", [(1, 1), (3, 1), (2, 3), (4, 2), (3, 4)])
    def test_matches_per_urn_oracle(self, rng, n_urns, memory):
        mu = rng.dirichlet(np.ones(1 << (n_urns * memory)))
        for lag in range(memory):
            got = lag_marginals(mu, lag, memory)
            assert got.shape == (n_urns,)
            for urn in range(n_urns):
                assert got[urn] == pytest.approx(
                    marginal_oracle(mu, urn, lag, memory), abs=1e-15
                )
                assert marginal_infection(mu, urn, lag, memory) == got[urn]

    def test_validation(self):
        for memory in (0, -1):
            with pytest.raises(ValueError, match="memory must be at least 1"):
                lag_marginals([0.5, 0.5], 0, memory)
        with pytest.raises(ValueError):
            lag_marginals([0.5, 0.5, 0.0], 0, 1)
        with pytest.raises(ValueError):
            lag_marginals([0.25] * 4, 1, 1)
        with pytest.raises(ValueError):
            lag_marginals([0.125] * 8, 0, 2)
        with pytest.raises(ValueError):
            lag_marginals([], 0, 1)
