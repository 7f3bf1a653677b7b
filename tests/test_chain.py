"""Exact computations on the expanded draw chain."""

import hashlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet import chain
from polyanet.chain import (
    build_kernel,
    check_irreducible_aperiodic,
    evolve_distribution,
    lag_marginals,
    marginal_infection,
    point_mass,
    save_distribution_csv,
    save_kernel_csv,
    stationary_distribution,
    state_bit,
    two_fold_joint,
)
from polyanet.errors import CapExceededError
from polyanet.params import NetworkParams, normalize
from polyanet.networks import barabasi_albert, ring, row_normalize

from conftest import (
    apply_by_full_blocks,
    csgraph_structure,
    make_raw,
    pair_raw,
    pair_stationary,
    random_interaction,
    realized_pair,
    to_sparse,
    transition_prob,
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
    def test_state_bit(self):
        assert state_bit(0, 0, 3) == 0
        assert state_bit(0, 2, 3) == 2
        assert state_bit(2, 1, 3) == 7

    def test_window_counts(self, rng):
        par = random_params(rng, 2, 3)
        kern = build_kernel(par, random_interaction(rng, 2))
        # urn 0 window = 0b101 (2 red), urn 1 window = 0b001 (1 red)
        state = 0b001_101
        counts = kern.window_counts([state])[0]
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

    def test_successors_match_transition_prob(self, rng):
        par = random_params(rng, 2, 3)
        S = random_interaction(rng, 2)
        kern = build_kernel(par, S)
        for state in rng.integers(0, kern.n_states, 8):
            idx, vals = kern.successors(int(state))
            assert len(idx) <= 1 << kern.n_urns
            assert vals.sum() == pytest.approx(1.0, abs=1e-12)
            for b, p in zip(idx, vals):
                assert p == pytest.approx(
                    transition_prob(int(state), int(b), par, S), abs=1e-14
                )

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

    def test_zero_steps_identity(self, rng):
        par = random_params(rng, 2, 1)
        kern = build_kernel(par, random_interaction(rng, 2))
        mu = rng.dirichlet(np.ones(kern.n_states))
        assert np.array_equal(evolve_distribution(kern, mu, 0), mu)

    def test_bad_inputs(self, rng):
        par = random_params(rng, 2, 1)
        kern = build_kernel(par, random_interaction(rng, 2))
        mu = rng.dirichlet(np.ones(kern.n_states))
        with pytest.raises(ValueError):
            evolve_distribution(kern, mu, -1)
        with pytest.raises(ValueError):
            evolve_distribution(kern, mu[:-1], 1)
        with pytest.raises(ValueError):
            evolve_distribution(kern, mu * 2.0, 1)
        bad = mu.copy()
        bad[0], bad[1] = -bad[1], bad[0] + 2 * bad[1]
        with pytest.raises(ValueError):
            evolve_distribution(kern, bad, 1)


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


class TestStructure:
    def test_homogeneous_chain_certificate(self):
        par = NetworkParams.homogeneous(2, 2, 0.5, 0.7)
        kern = build_kernel(par, np.full((2, 2), 0.5))
        info = check_irreducible_aperiodic(kern, diameter_limit=kern.n_states)
        assert info.ok and bool(info)
        assert info.period == 1
        assert info.n_components == 1
        assert info.diameter == 2

    def test_absorbing_chain_flagged(self):
        # all-red urn that only reinforces red never leaves the red state
        par = NetworkParams(1, [1.0], [1.0], [0.0])
        kern = build_kernel(par, np.eye(1))
        info = check_irreducible_aperiodic(kern)
        assert not info.irreducible
        assert info.n_components == 2
        assert not info.ok and not bool(info)

    @pytest.mark.parametrize("levels", [None, 1 << 8])
    def test_certificate_matches_csgraph(self, kernel_path, levels, monkeypatch):
        # 48 seeded kernels (N <= 5, N*M <= 9): each urn's rho is 0 or 1 with
        # probability 1/2 and one reinforcement is zero, so some chains have
        # absorbing windows.  In case 48, urn 0 listens only to urn 1, whose
        # rho is 1, so only the upper half of the states has eccentricity
        # M + 1.  With 2**8 levels per batch, the diameter is searched in
        # batches of 1 to 16 searches; at the default, only the two kernels
        # of 2048 states split into batches.  The last case has 4096
        # singleton components: each state moves to its red-drawing
        # successor, and only the all-red window returns to itself.
        cases = [structure_case(seed) for seed in range(48)]
        cases.append((NetworkParams(3, [0.4, 1.0], [0.5, 0.7], [0.6, 0.3]),
                      np.array([[0.0, 1.0], [0.5, 0.5]])))
        if levels is None:
            cases += [(random_params(np.random.default_rng(7), 1, 11), np.eye(1)),
                      (NetworkParams(11, [1.0], [0.8], [0.0]), np.eye(1)),
                      (NetworkParams(12, [1.0], [0.8], [0.0]), np.eye(1))]
        else:
            monkeypatch.setattr(chain, "SEARCH_LEVELS", levels)
        found = []
        for par, S in cases:
            kern = build_kernel(par, S)
            info = check_irreducible_aperiodic(kern, diameter_limit=4096)
            found.append([info.irreducible, info.aperiodic, info.period,
                          info.n_components, info.diameter])
            assert found[-1] == csgraph_structure(kern), (par, S)
        assert 9 <= sum(not f[0] for f in found) <= len(found) - 9
        assert found[48][4] == 4
        if levels is None:
            assert found[-3][4] == 11 and found[-2][3] == 2048
            assert found[-1][3] == 4096

    def test_diameter_limit(self):
        kern = build_kernel(*structure_case(9))
        assert check_irreducible_aperiodic(kern, diameter_limit=kern.n_states).diameter == 3
        assert check_irreducible_aperiodic(kern, diameter_limit=kern.n_states - 1).diameter is None


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


class TestExports:
    def test_distribution_csv(self, tmp_path):
        path = tmp_path / "pi.csv"
        save_distribution_csv([0.25, 0.75], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "state,probability"
        assert lines[1] == "0,0.25"
        assert lines[2] == "1,0.75"

    def test_kernel_csv_row_stochastic(self, tmp_path, rng):
        par = random_params(rng, 2, 2)
        kern = build_kernel(par, random_interaction(rng, 2))
        path = tmp_path / "kernel.csv"
        save_kernel_csv(kern, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "from_state,to_state,probability"
        sums = np.zeros(kern.n_states)
        for line in lines[1:]:
            a, b, p = line.split(",")
            sums[int(a)] += float(p)
        assert np.allclose(sums, 1.0, atol=1e-12)


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


@pytest.fixture(params=["streamed", "cached"])
def kernel_path(request, monkeypatch):
    budget = 0 if request.param == "streamed" else 1 << 40
    monkeypatch.setattr(chain, "KERNEL_CACHE_BYTES", budget)
    return request.param


class TestKernelPaths:
    """apply, the blocks (read through the to_sparse oracle) and successors
    agree with transition_prob whether the factor blocks are streamed or
    kept, and wherever blocks split."""

    @pytest.mark.parametrize("rows_per_block", [None, 3])
    @pytest.mark.parametrize("case", PATH_CASES)
    def test_matches_brute_force(self, case, rows_per_block, kernel_path, monkeypatch):
        par, S, Q = path_case(case)
        if rows_per_block is not None:
            # Three rows per block: boundaries inside the space and a
            # partial last block whenever there are four rows or more.
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", rows_per_block << (2 * par.n_urns))
        kern = build_kernel(par, S)
        g = np.random.default_rng(case[2])
        for _ in range(2):  # the second pass reads the cache when one is kept
            mu = g.dirichlet(np.ones(kern.n_states))
            assert np.max(np.abs(kern.apply(mu) - mu @ Q)) <= 1e-15
        assert (kern._cache is not None) == (kernel_path == "cached")
        assert (kern._probs is not None) == (kernel_path == "streamed")
        sparse = to_sparse(kern)
        assert sparse.nnz == np.count_nonzero(Q)
        assert np.max(np.abs(sparse.toarray() - Q)) <= 1e-15
        for state in range(kern.n_states):
            idx, vals = kern.successors(state)
            assert np.all(vals > 0.0)
            assert sorted(idx.tolist()) == np.flatnonzero(Q[state]).tolist()
            assert np.max(np.abs(vals - Q[state, idx])) <= 1e-15

    def test_streamed_passes_compute_probabilities_once(self, monkeypatch):
        # The first full pass keeps every source's draw probabilities;
        # later passes read them and give a fresh kernel's bits.
        monkeypatch.setattr(chain, "KERNEL_CACHE_BYTES", 0)
        monkeypatch.setattr(chain, "BLOCK_ENTRIES", 3 << 4)
        par, S, _ = path_case((2, 3, 15))
        kern = build_kernel(par, S)
        sources = []
        compute = kern.draw_probabilities
        monkeypatch.setattr(
            kern, "draw_probabilities", lambda st: sources.append(len(st)) or compute(st)
        )
        mu = point_mass(kern, 0)
        for _ in range(4):
            nxt = kern.apply(mu)
            assert np.array_equal(nxt, build_kernel(par, S).apply(mu))
            mu = nxt
        # one representative row per count class: M**N classes of 2**N sources
        classes = par.memory ** par.n_urns
        assert sum(sources) == classes << par.n_urns
        assert kern._probs.shape == (par.n_urns, classes, 1 << par.n_urns)

    def test_pinned_case_has_exact_zeros(self):
        par, S, Q = path_case(PATH_CASES[-1])
        assert np.count_nonzero(Q) < Q.shape[0] << par.n_urns

    def test_repeated_apply_is_deterministic(self, kernel_path):
        par, S, _ = path_case((2, 3, 15))
        kern = build_kernel(par, S)
        mu = point_mass(kern, 0)
        a = evolve_distribution(kern, mu, 5)
        b = evolve_distribution(build_kernel(par, S), mu, 5)
        assert np.array_equal(a, b)

    def test_kernel_csv_digest(self, tmp_path):
        par = NetworkParams(
            memory=2, rho=[0.3, 0.65, 0.5], delta_r=[0.4, 1.1, 0.25],
            delta_b=[0.9, 0.2, 0.6],
        )
        S = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        path = tmp_path / "kernel.csv"
        save_kernel_csv(build_kernel(par, S), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9af3015f4554bf5d2bf786f2944a818320471d5d8d18979ae4793ce0096c8e08"
        )

    def test_kernel_csv_bytes_on_every_path(self, tmp_path, kernel_path, monkeypatch):
        # The digest pinned above, with the rows split over blocks of three
        monkeypatch.setattr(chain, "BLOCK_ENTRIES", 3 << 6)
        par = NetworkParams(
            memory=2, rho=[0.3, 0.65, 0.5], delta_r=[0.4, 1.1, 0.25],
            delta_b=[0.9, 0.2, 0.6],
        )
        S = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        path = tmp_path / "kernel.csv"
        save_kernel_csv(build_kernel(par, S), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9af3015f4554bf5d2bf786f2944a818320471d5d8d18979ae4793ce0096c8e08"
        )

    def test_kernel_csv_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chain, "SPARSE_NNZ_CAP", 63)
        kern = build_kernel(NetworkParams.homogeneous(2, 2, 0.5, 1.0), np.eye(2))
        with pytest.raises(CapExceededError, match="materializing 64 entries"):
            save_kernel_csv(kern, str(tmp_path / "kernel.csv"))
        assert not (tmp_path / "kernel.csv").exists()

    def test_successors_rejects_out_of_range(self, rng):
        kern = build_kernel(random_params(rng, 2, 2), random_interaction(rng, 2))
        for state in (-1, kern.n_states):
            with pytest.raises(ValueError):
                kern.successors(state)


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
    tables when streamed, one full table at M = 3 when cached), matches
    the full-block oracle to 1e-15 on both cache paths, at odd N and
    h = 0, and with blocks of one class, three classes (a partial last
    block where a group has more than three) and the default."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n_urns, memory", HALF_CASES)
    def test_matches_full_blocks(self, n_urns, memory, rows, kernel_path, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(chain, "BLOCK_ENTRIES", class_block_entries(n_urns, memory, rows))
        g = np.random.default_rng(100 * n_urns + memory)
        kern = build_kernel(random_params(g, n_urns, memory), random_interaction(g, n_urns))
        if rows is not None:
            assert_block_classes(kern, rows)
        for _ in range(2):  # the second pass reads the cache when one is kept
            mu = g.dirichlet(np.ones(kern.n_states))
            assert np.max(np.abs(kern.apply(mu) - apply_by_full_blocks(kern, mu))) <= 1e-15
        assert (kern._cache is not None) == (kernel_path == "cached")

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_benchmark_network_steps(self, rows, kernel_path, monkeypatch):
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
        assert (kern._cache is not None) == (kernel_path == "cached")


CLASS_SHAPES = [(n, m) for m in range(1, 6) for n in range(1, 9) if n * (m + 1) <= 16]


@st.composite
def class_kernels(draw):
    """Random params and S with N*(M+1) <= 16 and M <= 5, where some urns
    are pinned red (rho = 1, delta_b = 0) or black (rho = 0, delta_r = 0)
    and see only themselves, so that some factors are exactly zero."""
    n, m = draw(st.sampled_from(CLASS_SHAPES))
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
    table; apply through them matches the full-block oracle on both cache
    tiers and at both split points."""

    @given(class_kernels(), st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_full_blocks(self, case, full, cached):
        par, S, seed = case
        # the split point is fixed when the kernel is built, the tier at its first apply
        with mock.patch.object(chain, "KERNEL_CACHE_BYTES", (1 << 40) if full else 0):
            kern = build_kernel(par, S)
        N = par.n_urns
        assert kern._half == (N if full and par.memory >= 3 else N // 2)
        g = np.random.default_rng(seed)
        with mock.patch.object(chain, "KERNEL_CACHE_BYTES", (1 << 40) if cached else 0):
            for _ in range(2):  # the second pass reads what the first kept
                mu = g.dirichlet(np.ones(kern.n_states))
                assert np.max(np.abs(kern.apply(mu) - apply_by_full_blocks(kern, mu))) <= 1e-15
        assert (kern._cache is not None) == cached
        assert (kern._probs is not None) == (not cached)

    @pytest.mark.parametrize("n_urns, memory", CLASS_SHAPES)
    def test_classes_partition_rows_by_counts(self, n_urns, memory):
        S = np.full((n_urns, n_urns), 1.0 / n_urns)
        kern = build_kernel(NetworkParams.homogeneous(n_urns, memory, 0.5, 1.0), S)
        # blocks hold runs of the M**N classes, in order
        assert [lo for lo, _ in kern._groups] == np.cumsum(
            [0] + [len(r) for _, r in kern._groups[:-1]]).tolist()
        assert sum(len(r) for _, r in kern._groups) == memory**n_urns
        rows = np.concatenate([r.ravel() for _, r in kern._groups])
        assert np.array_equal(np.sort(rows), np.arange(1 << (n_urns * (memory - 1))))
        for lo, block in kern._groups:
            counts = kern.window_counts(kern._kept[block])
            assert np.array_equal(counts, np.broadcast_to(counts[:, :1], counts.shape))

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
    def test_kernel_bytes_is_what_is_kept(self, n_urns, memory, kernel_path):
        g = np.random.default_rng(n_urns * memory)
        kern = build_kernel(random_params(g, n_urns, memory), random_interaction(g, n_urns))
        kern.apply(point_mass(kern, 0))
        if kernel_path == "cached":
            kept = sum(a.nbytes for block in kern._cache for a in block if a is not None)
        else:
            kept = kern._probs.nbytes
        assert kept == chain.kernel_bytes(n_urns, memory)


class TestPush:
    """The searches' one-step images, read from the positive entries of
    the class tables, are those of the full blocks' F > 0, forward and
    backward, on both cache paths and wherever blocks split."""

    @pytest.mark.parametrize("rows", [3, None])
    def test_images_match_full_blocks(self, rows, kernel_path, monkeypatch):
        cases = [structure_case(seed) for seed in range(48)]
        cases += [path_case(case)[:2] for case in PATH_CASES]
        g = np.random.default_rng(48)
        for par, S in cases:
            if rows is not None:
                monkeypatch.setattr(chain, "BLOCK_ENTRIES",
                                    class_block_entries(par.n_urns, par.memory, rows))
            kern = build_kernel(par, S)
            edge = (to_sparse(kern).toarray() > 0.0).astype(np.int64)
            # a dense front, a sparse one, and a single state
            front = g.random((kern.n_states, 3)) < [0.5, 0.1, 0.0]
            front[g.integers(kern.n_states), 2] = True
            assert np.array_equal(chain._push(kern, front), edge.T @ front > 0), (par, S)
            assert np.array_equal(chain._push(kern, front, True), edge @ front > 0), (par, S)
            assert (kern._cache is not None) == (kernel_path == "cached")
            if rows is not None:
                assert_block_classes(kern, rows)

    @pytest.mark.parametrize("patterns", ["full", "half"])
    def test_one_search_images_match_full_blocks(self, patterns, kernel_path, monkeypatch):
        # where a kernel has only its half patterns at hand, streamed or too
        # large to keep in full, one search goes through them in turn
        g = np.random.default_rng(49)
        budget = chain.KERNEL_CACHE_BYTES
        for par, S in [structure_case(seed) for seed in range(48)]:
            monkeypatch.setattr(chain, "KERNEL_CACHE_BYTES", budget)
            kern = build_kernel(par, S)
            edge = (to_sparse(kern).toarray() > 0.0).astype(np.int64)
            if patterns == "half":  # tables kept or streamed as before, full patterns not kept
                kern.apply(point_mass(kern, 0))
                monkeypatch.setattr(chain, "KERNEL_CACHE_BYTES", 0)
            for density in (0.5, 0.0):
                front = g.random((kern.n_states, 1)) < density
                front[g.integers(kern.n_states)] = True
                assert np.array_equal(chain._push(kern, front), edge.T @ front > 0), (par, S)
                assert np.array_equal(chain._push(kern, front, True), edge @ front > 0), (par, S)

    def test_patterns_are_formed_once_per_kernel(self, kernel_path):
        # kept beside the cached tables, rebuilt per push from streamed ones
        kern = build_kernel(*structure_case(3))
        for searches in (1, 2):
            front = np.ones((kern.n_states, searches), dtype=bool)
            hit = chain._push(kern, front)
            kept = kern._patterns
            assert (kept is not None) == (kernel_path == "cached")
            assert np.array_equal(chain._push(kern, front), hit)
            assert kern._patterns is kept


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
        with pytest.raises(ValueError):
            lag_marginals([0.5, 0.5, 0.0], 0, 1)
        with pytest.raises(ValueError):
            lag_marginals([0.25] * 4, 1, 1)
        with pytest.raises(ValueError):
            lag_marginals([0.125] * 8, 0, 2)
        with pytest.raises(ValueError):
            lag_marginals([], 0, 1)
