"""Stochastic simulation: exact counts, warm-up, determinism."""

import numpy as np
import pytest

from polyanet import montecarlo
from polyanet.montecarlo import (
    average_replicates,
    empirical_sum,
    replicate_stream,
    simulate,
)
from polyanet.params import normalize

from conftest import homogeneous_raw, make_raw, random_interaction, red_ratio


class TestStep:
    def test_frozen_deltas_keep_counts(self, rng):
        raw = make_raw(1, [3, 7], [10, 10], 0, 0, random_interaction(rng, 2))
        traj = simulate(raw, 20, replicate_stream(1, 0))
        assert np.all(traj.ratios == [0.3, 0.7])
        assert set(traj.draws.ravel().tolist()) <= {0, 1}

    def test_warmup_grows_then_total_constant(self):
        # two warm-up additions of 11 balls, then steady at 25 + 2*11
        raw = homogeneous_raw(2, 1, 5, 25, 11)
        traj = simulate(raw, 8, replicate_stream(7, 0))
        z = traj.draws[:, 0].tolist()
        assert traj.ratios[0, 0] == (5 + 11 * z[0]) / 36
        for t in range(1, 8):
            assert traj.ratios[t, 0] == (5 + 11 * (z[t] + z[t - 1])) / 47

    def test_absorbing_all_red(self):
        raw = make_raw(1, 10, 10, 3, 0, np.eye(1))
        traj = simulate(raw, 30, replicate_stream(3, 0))
        assert np.all(traj.draws == 1)
        assert np.all(traj.ratios == 1)

    def test_counts_match_window_formula(self, rng):
        # once M draws exist the normalized ratio is determined by them
        raw = make_raw(3, [4, 9], [20, 30], [7, 3], [2, 5], random_interaction(rng, 2))
        par = normalize(raw)
        traj = simulate(raw, 40, replicate_stream(11, 0))
        for t in range(raw.memory - 1, 40):
            for urn in range(2):
                window = traj.draws[t - raw.memory + 1 : t + 1, urn]
                assert traj.ratios[t, urn] == pytest.approx(
                    red_ratio(par, urn, window), abs=1e-12
                )

    def test_red_never_exceeds_total(self, rng):
        raw = make_raw(2, [1, 19], [20, 20], [9, 0], [0, 6], random_interaction(rng, 2))
        traj = simulate(raw, 200, replicate_stream(5, 0))
        assert np.all((traj.ratios >= 0) & (traj.ratios <= 1))


class TestSimulate:
    def test_deterministic_given_seed(self, rng):
        raw = homogeneous_raw(2, 3, 12, 25, 11, random_interaction(rng, 3))
        a = simulate(raw, 50, 123)
        b = simulate(raw, 50, 123)
        c = simulate(raw, 50, 124)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.ratios, b.ratios)
        assert not np.array_equal(a.draws, c.draws)

    def test_shapes_and_types(self):
        raw = homogeneous_raw(1, 2, 5, 25, 11)
        traj = simulate(raw, 17, 0)
        assert traj.draws.shape == (17, 2)
        assert traj.ratios.shape == (17, 2)
        assert traj.draws.dtype == np.int8
        assert np.all((traj.ratios >= 0) & (traj.ratios <= 1))

    def test_t_max_validated(self):
        raw = homogeneous_raw(1, 1, 5, 25, 11)
        with pytest.raises(ValueError):
            simulate(raw, 0, 1)

    def test_zero_delta_long_run_mean(self):
        # frozen-composition draws are iid Bernoulli(rho) per urn
        raw = make_raw(1, 30, 100, 0, [0, 1], np.eye(2))
        traj = simulate(raw, 100000, 42)
        phat = traj.draws[:, 0].mean()
        se = np.sqrt(0.3 * 0.7 / 100000)
        assert abs(phat - 0.3) < 3 * se


class TestEmpiricalSum:
    def test_toy_sequence(self):
        z = np.array([[1], [0], [1]])
        out = empirical_sum(z)
        assert np.allclose(out[:, 0], [1.0, 0.5, 2 / 3])

    def test_accepts_trajectory(self):
        raw = homogeneous_raw(1, 2, 5, 25, 11)
        traj = simulate(raw, 10, 9)
        assert np.array_equal(empirical_sum(traj), empirical_sum(traj.draws))

    def test_bounded(self, rng):
        z = (rng.random((50, 3)) < 0.4).astype(int)
        out = empirical_sum(z)
        assert np.all((out >= 0) & (out <= 1))


class TestReplicates:
    @pytest.mark.parametrize("split", [[6], [3, 3], [1, 5], [4, 2], [2, 2, 2], [1] * 6])
    def test_streams_are_independent_of_batch_split(self, rng, monkeypatch, split):
        # replicate r consumes stream (77, r) whichever replicates share
        # its batch; four steps per block for the whole batch, so smaller
        # batches draw fewer, longer blocks
        raw = homogeneous_raw(2, 3, 12, 25, 11, random_interaction(rng, 3))
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK_BYTES", 4 * 8 * 6 * raw.n_urns)
        whole = average_replicates(raw, 60, 6, master_seed=77)
        acc = np.zeros_like(whole.per_urn)
        first = 0
        for size in split:
            draws = np.empty((60, size, raw.n_urns), dtype=np.int8)
            rngs = [replicate_stream(77, r) for r in range(first, first + size)]
            montecarlo._advance(raw, rngs, draws)
            for r in range(size):
                acc += empirical_sum(draws[:, r])
            first += size
        assert np.array_equal(whole.per_urn, acc / 6)
        assert np.array_equal(whole.network_avg, (acc / 6).mean(axis=1))

    def test_replicate_streams_distinct(self):
        a = replicate_stream(10, 0).random(5)
        b = replicate_stream(10, 1).random(5)
        assert not np.array_equal(a, b)

    def test_network_avg_is_urn_mean(self, rng):
        raw = homogeneous_raw(1, 2, 5, 25, 11, random_interaction(rng, 2))
        summ = average_replicates(raw, 30, 4, master_seed=5)
        assert np.allclose(summ.network_avg, summ.per_urn.mean(axis=1))
        assert summ.replicates == 4
        assert summ.times[0] == 1 and summ.times[-1] == 30

    def test_replicates_validated(self):
        raw = homogeneous_raw(1, 1, 5, 25, 11)
        with pytest.raises(ValueError):
            average_replicates(raw, 10, 0, master_seed=1)

    def test_averaging_reduces_variance(self):
        raw = homogeneous_raw(1, 1, 12, 25, 11)
        one = average_replicates(raw, 400, 1, master_seed=3)
        many = average_replicates(raw, 400, 64, master_seed=3)
        tail = slice(200, 400)
        assert many.network_avg[tail].std() < one.network_avg[tail].std()


def loop_reference(raw, t_max, rng):
    """One replicate stepped one urn vector at a time, as plainly as possible."""
    red = raw.initial_red.astype(np.int64)
    total = raw.initial_total.astype(np.int64)
    history = []
    draws, ratios = [], []
    for t in range(1, t_max + 1):
        probs = np.clip(raw.interaction @ (red / total), 0.0, 1.0)
        z = (rng.random(raw.n_urns) < probs).astype(np.int64)
        red = red + raw.reinforce_red * z
        total = total + raw.reinforce_red * z + raw.reinforce_black * (1 - z)
        history.append(z)
        if t > raw.memory:
            old = history[t - 1 - raw.memory]
            red = red - raw.reinforce_red * old
            total = total - raw.reinforce_red * old - raw.reinforce_black * (1 - old)
        draws.append(z)
        ratios.append(red / total)
    return np.array(draws), np.array(ratios)


def replicate_oracle(raw, t_max, replicates, master_seed):
    """Mean running average over replicates simulated one at a time."""
    acc = np.zeros((t_max, raw.n_urns))
    for r in range(replicates):
        acc += empirical_sum(simulate(raw, t_max, replicate_stream(master_seed, r)))
    return acc / replicates


def heterogeneous_raw(memory, rng):
    return make_raw(memory, [2, 9, 5], [25, 25, 20], [20, 28, 3], [21, 6, 0],
                    random_interaction(rng, 3))


class TestBatchedEngine:
    @pytest.mark.parametrize("memory", [1, 2, 3, 7])
    def test_simulate_matches_loop_reference(self, memory, rng, monkeypatch):
        raw = heterogeneous_raw(memory, rng)
        # four steps per block, so retirement reads draws M steps back
        # across block boundaries
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK_BYTES", 4 * 8 * raw.n_urns)
        traj = simulate(raw, 60, replicate_stream(21, 4))
        draws, ratios = loop_reference(raw, 60, replicate_stream(21, 4))
        assert np.array_equal(traj.draws, draws)
        assert np.array_equal(traj.ratios, ratios)

    @pytest.mark.parametrize("replicates", [1, 7])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_matches_one_replicate_at_a_time(self, memory, replicates, rng, monkeypatch):
        raw = heterogeneous_raw(memory, rng)
        # four steps per block for the whole batch: 23 steps are five
        # full blocks and a partial one
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK_BYTES",
                            4 * 8 * replicates * raw.n_urns)
        summary = average_replicates(raw, 23, replicates, master_seed=5)
        expected = replicate_oracle(raw, 23, replicates, master_seed=5)
        assert np.array_equal(summary.per_urn, expected)

    def test_block_budget_does_not_change_draws(self, rng, monkeypatch):
        raw = heterogeneous_raw(2, rng)
        whole = simulate(raw, 50, 8)
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK_BYTES", 1)
        assert np.array_equal(simulate(raw, 50, 8).draws, whole.draws)

    def test_frozen_counts_across_batch(self, monkeypatch):
        # identity interaction, no reinforcement: every replicate's urns
        # keep their counts, an empty urn never draws red and a full one
        # always does
        raw = make_raw(2, [0, 3, 10], [10, 10, 10], 0, 0, np.eye(3))
        monkeypatch.setattr(montecarlo, "UNIFORM_BLOCK_BYTES", 3 * 8 * 5 * 3)
        draws = np.empty((40, 5, 3), dtype=np.int8)
        ratios = np.empty((40, 5, 3))
        rngs = [replicate_stream(13, r) for r in range(5)]
        montecarlo._advance(raw, rngs, draws, ratios)
        assert np.all(ratios == [0, 0.3, 1])
        assert np.all(draws[:, :, 0] == 0)
        assert np.all(draws[:, :, 2] == 1)
        assert 0 < draws[:, :, 1].sum() < draws[:, :, 1].size
        summary = average_replicates(raw, 40, 5, master_seed=13)
        assert np.array_equal(summary.per_urn, replicate_oracle(raw, 40, 5, 13))
