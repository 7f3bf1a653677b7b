"""The stepping loops on preallocated buffers against the loops that
allocate and check every step (conftest), and the once-per-run
probability check that replaced the per-step one."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyanet import meanfield, montecarlo
from polyanet.meanfield import (
    LinearSystem,
    build_linear_system,
    iterate,
    spectral_radius,
    step_nonlinear,
)
from polyanet.montecarlo import replicate_stream
from polyanet.networks import barabasi_albert, identity, ring, row_normalize
from polyanet.params import NetworkParams, red_ratio_table

from conftest import (
    advance_by_steps,
    iterate_by_steps,
    make_raw,
    random_interaction,
    spectral_radius_by_steps,
)

seeds = st.integers(0, 2**32 - 1)


def random_params(g, n, m):
    return NetworkParams(
        memory=m,
        rho=g.uniform(0.0, 1.0, n),
        delta_r=g.uniform(0.0, 2.0, n),
        delta_b=g.uniform(0.0, 2.0, n),
    )


class TestAgainstStepLoops:
    @given(n=st.integers(1, 6), m=st.integers(1, 9), past=st.integers(-8, 30),
           explicit=st.booleans(), fortran=st.booleans(), seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_iterate_matches_bit_for_bit(self, n, m, past, explicit, fortran, seed):
        # t_max from below M (only the history is reported) to 30 steps
        # past it; S in either memory layout
        g = np.random.default_rng(seed)
        par = random_params(g, n, m)
        S = random_interaction(g, n)
        S = np.asfortranarray(S) if fortran else S
        hist = g.uniform(0.0, 1.0, (m, n)) if explicit else None
        t_max = max(1, m + past)
        for kind in ("nonlinear", "linear"):
            traj = iterate(kind, par, S, t_max, initial_history=hist)
            want = iterate_by_steps(kind, par, S, t_max, initial_history=hist)
            assert np.array_equal(traj.per_urn, want)
            assert np.array_equal(traj.network_avg, want.mean(axis=1))

    @given(n=st.integers(1, 8), m=st.integers(1, 5), signed=st.booleans(),
           scale=st.floats(0.01, 3.0), seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_spectral_radius_matches_bit_for_bit(self, n, m, signed, scale, seed):
        g = np.random.default_rng(seed)
        A = scale * (g.standard_normal((n, n)) if signed else g.random((n, n)))
        system = LinearSystem(A=A, c=np.zeros(n), n_urns=n, memory=m)
        for kwargs in ({}, {"max_iters": 7}):
            assert spectral_radius(system, **kwargs) == spectral_radius_by_steps(system, **kwargs)
        with mock.patch.object(meanfield, "DENSE_LIMIT", 0):  # no dense fallback
            got = spectral_radius(system, max_iters=7)
        assert got == spectral_radius_by_steps(system, max_iters=7, allow_dense=False)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_spectral_radius_zero_and_stalled(self, m, monkeypatch):
        zero = LinearSystem(A=np.zeros((3, 3)), c=np.zeros(3), n_urns=3, memory=m)
        assert spectral_radius(zero) == spectral_radius_by_steps(zero) == (0.0, True)
        # at memory 1 a ring's equal-modulus eigenvalues stall the power
        # iteration, so the radius comes from the dense fallback, or only a
        # bound without it
        cycle = LinearSystem(A=ring(6), c=np.zeros(6), n_urns=6, memory=m)
        for allow_dense in (True, False):
            if not allow_dense:
                monkeypatch.setattr(meanfield, "DENSE_LIMIT", 0)
            got = spectral_radius(cycle)
            assert got == spectral_radius_by_steps(cycle, allow_dense=allow_dense)
            if m == 1:
                assert got.converged is allow_dense

    # Networks whose A has at most one nonzero in 16 entries: the power
    # iteration multiplies through the nonzeros, which sum each row in
    # another order than the dense product, so the radius may move by an
    # ulp, but not the iteration count nor the fallback taken.
    @given(m=st.integers(1, 4), kind=st.sampled_from(["barabasi-albert", "ring", "identity"]),
           n=st.integers(64, 600), attach=st.integers(1, 3), still=st.integers(0, 3),
           seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_spectral_radius_through_nonzeros(self, m, kind, n, attach, still, seed):
        g = np.random.default_rng(seed)
        if kind == "barabasi-albert":
            S = row_normalize(barabasi_albert(n, attach, seed), g.uniform(0.5, 2.0))
        else:  # rings stall at memory 1 and take the eigvals fallback
            n //= 4
            S = ring(n) if kind == "ring" else identity(n)
        par = random_params(g, n, m)
        par.delta_r[:still] = par.delta_b[:still] = 0.0  # zero slope: a zero column of A
        system = build_linear_system(par, S)
        assume(np.count_nonzero(system.A) * meanfield.NONZERO_PRODUCT_RATIO <= n * n)
        with mock.patch.object(meanfield, "_nonzero_product",
                               wraps=meanfield._nonzero_product) as nonzero:
            got = spectral_radius(system)
        nonzero.assert_called_once()
        want = spectral_radius_by_steps(system)
        assert got.converged == want.converged
        assert abs(got.value - want.value) <= 4e-16 * want.value

    @pytest.mark.parametrize("n", [16, 64])
    def test_spectral_radius_of_sparse_zero_and_stalled(self, n, monkeypatch):
        zero = LinearSystem(A=np.zeros((n, n)), c=np.zeros(n), n_urns=n, memory=2)
        cycle = LinearSystem(A=ring(n), c=np.zeros(n), n_urns=n, memory=1)
        with mock.patch.object(meanfield, "_nonzero_product",
                               wraps=meanfield._nonzero_product) as nonzero:
            # an all-zero A has no nonzeros to sum, so it takes the dense product
            assert spectral_radius(zero) == spectral_radius_by_steps(zero) == (0.0, True)
            nonzero.assert_not_called()
            # a ring at memory 1 stalls through its nonzeros too
            got = spectral_radius(cycle)
            nonzero.assert_called_once()
        assert got == spectral_radius_by_steps(cycle)
        assert got.converged and abs(got.value - 1.0) <= 1e-12
        monkeypatch.setattr(meanfield, "DENSE_LIMIT", 0)
        assert spectral_radius(cycle) == spectral_radius_by_steps(cycle, allow_dense=False)
        assert not spectral_radius(cycle).converged

    def test_spectral_radius_of_a_built_system(self, rng):
        for m in (1, 3, 9):
            system = build_linear_system(random_params(rng, 7, m), random_interaction(rng, 7))
            assert spectral_radius(system) == spectral_radius_by_steps(system)

    @given(m=st.integers(1, 3), replicates=st.sampled_from([1, 7]), n=st.integers(1, 4),
           steps=st.integers(1, 40), block=st.integers(1, 5), oracle_block=st.integers(1, 9),
           ratios=st.booleans(), fortran=st.booleans(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_advance_matches_bit_for_bit(self, m, replicates, n, steps, block, oracle_block,
                                         ratios, fortran, seed):
        # uniform blocks of 1..5 steps, so retirement reads across block edges
        g = np.random.default_rng(seed)
        total = g.integers(1, 30, n)
        S = random_interaction(g, n)
        raw = make_raw(m, g.integers(0, total + 1), total, g.integers(0, 30, n),
                       g.integers(0, 30, n), np.asfortranarray(S) if fortran else S)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "UNIFORM_BLOCK_BYTES", block * 8 * replicates * n)
            got = np.empty((steps, replicates, n), dtype=np.int8)
            got_ratios = np.empty((steps, replicates, n)) if ratios else None
            montecarlo._advance(raw, [replicate_stream(seed, r) for r in range(replicates)],
                                got, got_ratios)
        want = np.empty_like(got)
        want_ratios = np.empty((steps, replicates, n)) if ratios else None
        advance_by_steps(raw, [replicate_stream(seed, r) for r in range(replicates)], want,
                         want_ratios, block=oracle_block)
        assert np.array_equal(got, want)
        if ratios:
            assert np.array_equal(got_ratios, want_ratios)


def overshooting_matrix(n):
    """Rows of nonnegative weights whose float sums are 1 + 5e-13, inside
    the interaction-matrix tolerance but outside [0, 1]."""
    S = np.full((n, n), 1.0 / n)
    S[:, 0] += 5e-13
    assert np.all(np.abs(S.sum(axis=1) - (1.0 + 5e-13)) < 1e-14)
    return S


def debug_records(caplog, what):
    return [r for r in caplog.records if r.levelno == logging.DEBUG and what in r.getMessage()]


class TestOncePerRunCheck:
    def test_nonlinear_overshoot_within_tolerance_clips_once(self, caplog):
        # rho = 1 and delta_b = 0 make every table entry exactly 1, so each
        # raw step is the row sum 1 + 5e-13
        par = NetworkParams(memory=2, rho=[1.0] * 3, delta_r=[0.5, 1.5, 3.0], delta_b=0.0)
        assert np.all(red_ratio_table(par) == 1.0)
        with caplog.at_level(logging.DEBUG, logger="polyanet"):
            traj = iterate("nonlinear", par, overshooting_matrix(3), 40)
        assert np.all(traj.per_urn[1:] == 1.0)
        assert len(debug_records(caplog, "infection probabilities")) == 1

    @pytest.mark.parametrize("bad", [1.0 + 1e-9, np.nan])
    def test_nonlinear_overshoot_raises(self, monkeypatch, bad):
        g = np.random.default_rng(7)
        par = random_params(g, 3, 2)
        table = red_ratio_table(par)
        table[1, -1] = bad
        monkeypatch.setattr(meanfield, "red_ratio_table", lambda params: table)
        hist = np.ones((2, 3))
        with pytest.raises(ValueError, match="infection probabilities"):
            iterate("nonlinear", par, np.eye(3), 10, initial_history=hist)
        with pytest.raises(ValueError, match="infection probabilities"):
            step_nonlinear(hist, par, np.eye(3))

    def test_draw_overshoot_within_tolerance_clips_once(self, caplog):
        # every urn all red: each draw probability is the row sum 1 + 5e-13
        raw = make_raw(2, 10, 10, 3, 1, overshooting_matrix(4))
        draws = np.empty((30, 7, 4), dtype=np.int8)
        with caplog.at_level(logging.DEBUG, logger="polyanet"):
            montecarlo._advance(raw, [replicate_stream(3, r) for r in range(7)], draws)
        assert np.all(draws == 1)
        assert len(debug_records(caplog, "draw probability")) == 1

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, np.nan])
    def test_draw_overshoot_raises(self, factor):
        raw = make_raw(1, 10, 10, 3, 1, np.eye(3))
        raw.interaction = raw.interaction * factor  # past the matrix check
        draws = np.empty((5, 1, 3), dtype=np.int8)
        with pytest.raises(ValueError, match="draw probability"):
            montecarlo._advance(raw, [replicate_stream(3, 0)], draws)


class TestInteractionSize:
    def test_both_kinds_and_the_single_step_name_the_size(self, rng):
        par = random_params(rng, 3, 2)
        S = random_interaction(rng, 4)
        for kind in ("nonlinear", "linear"):
            with pytest.raises(ValueError, match="interaction matrix size does not match params"):
                iterate(kind, par, S, 10)
        with pytest.raises(ValueError, match="interaction matrix size does not match params"):
            step_nonlinear(np.zeros((2, 3)), par, S)
