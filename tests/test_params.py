"""Validation and normalization of urn network parameters."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet.meanfield import iterate
from polyanet.params import (
    NetworkParams,
    RawConfig,
    check_interaction_matrix,
    clamp_probability,
    normalize,
    red_ratio_table,
)

from conftest import (
    draw_probability,
    make_raw,
    random_interaction,
    red_ratio,
    red_ratio_from_count,
)


class TestInteractionMatrix:
    def test_accepts_row_stochastic(self, rng):
        S = random_interaction(rng, 4)
        out = check_interaction_matrix(S)
        assert np.array_equal(out, S)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_interaction_matrix(np.ones((2, 3)) / 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_interaction_matrix(np.zeros((0, 0)))

    def test_rejects_negative_entries(self):
        S = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            check_interaction_matrix(S)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_interaction_matrix(np.array([[bad, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            check_interaction_matrix([[bad]])

    def test_rejects_bad_row_sum_instead_of_renormalizing(self):
        S = np.array([[0.6, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sums to"):
            check_interaction_matrix(S)

    def test_bad_row_sum_printed_as_plain_number(self):
        S = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError) as err:
            check_interaction_matrix(S)
        assert "row 0 sums to 0.0;" in str(err.value)
        assert "np.float64" not in str(err.value)

    def test_row_sum_past_the_floats_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 0 sums to inf; rows must sum to 1"):
                check_interaction_matrix([[1e308, 1e308], [0.5, 0.5]])

    def test_tolerates_rounding_noise(self):
        S = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.25, 0.25, 0.5]])
        S[0, 0] += 1e-13
        check_interaction_matrix(S)


class TestClamp:
    def test_scalar_passthrough(self):
        assert clamp_probability(0.25) == 0.25
        assert isinstance(clamp_probability(0.25), float)

    def test_clamps_tiny_overshoot(self):
        assert clamp_probability(1.0 + 1e-15) == 1.0
        assert clamp_probability(-1e-15) == 0.0

    def test_large_overshoot_raises(self):
        with pytest.raises(ValueError, match="outside"):
            clamp_probability(1.001)
        with pytest.raises(ValueError, match="outside"):
            clamp_probability(np.array([0.5, -0.01]))

    @pytest.mark.parametrize("x", [np.nan, np.array([2.0, np.nan]),
                                   np.array([np.nan, 0.5]), np.array(np.nan),
                                   np.inf, np.array([0.5, -np.inf])])
    def test_non_finite_raises(self, x):
        # max over a NaN is NaN, which compares false with any tolerance
        with pytest.raises(ValueError, match="history probabilities is not finite"):
            clamp_probability(x, what="history probabilities")

    def test_nan_history_refused(self):
        params = NetworkParams(2, [0.3, 0.6], [0.4, 1.1], [0.9, 0.2])
        with pytest.raises(ValueError, match="not finite"):
            iterate("nonlinear", params, np.eye(2), 5,
                    initial_history=[[np.nan, 0.5], [0.5, 0.5]])

    def test_array_shape_preserved(self):
        x = np.array([[0.1, 0.9], [1.0 + 1e-16, 0.0]])
        out = clamp_probability(x)
        assert out.shape == x.shape
        assert np.all((out >= 0) & (out <= 1))


class TestRawConfig:
    def test_scalar_broadcast(self):
        raw = make_raw(2, 5, 25, 11, 11, np.eye(3))
        assert raw.n_urns == 3
        assert raw.initial_red.tolist() == [5, 5, 5]
        assert raw.initial_total.dtype == np.int64

    def test_float_integers_coerced(self):
        raw = make_raw(1, [5.0, 6.0], [10, 10], 1, 1, np.eye(2))
        assert raw.initial_red.dtype == np.int64
        assert raw.initial_red.tolist() == [5, 6]

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            make_raw(1, [5.5, 6.0], [10, 10], 1, 1, np.eye(2))

    def test_red_exceeding_total_rejected(self):
        with pytest.raises(ValueError, match="red"):
            make_raw(1, 11, 10, 1, 1, np.eye(2))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="total"):
            make_raw(1, 0, 0, 1, 1, np.eye(2))

    def test_negative_reinforcement_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_raw(1, 5, 10, -1, 1, np.eye(2))

    def test_zero_memory_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            make_raw(0, 5, 10, 1, 1, np.eye(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_raw(1, [5, 5, 5], 10, 1, 1, np.eye(2))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16])
    def test_numpy_integer_counts_accepted(self, dtype):
        raw = make_raw(1, np.array([5, 6], dtype=dtype), dtype(10),
                       np.array([1, 2], dtype=dtype), dtype(3), np.eye(2))
        assert raw.initial_red.tolist() == [5, 6]
        assert raw.initial_total.tolist() == [10, 10]
        assert raw.reinforce_black.dtype == np.int64

    @pytest.mark.parametrize("value", [
        True, np.bool_(True), [True, False], [True, 2], np.array([True, False]),
        "3", ["1", "2"], np.array(["1", "2"]),
    ])
    def test_boolean_or_string_counts_rejected(self, value):
        with pytest.raises(ValueError, match="reinforce_red must hold integers"):
            make_raw(1, [1, 1], [10, 10], value, 1, np.eye(2))


class TestNormalize:
    def test_known_fractions(self):
        raw = make_raw(1, 10, 25, 30, 15, np.eye(1))
        par = normalize(raw)
        assert par.rho[0] == 0.4
        assert par.delta_r[0] == 1.2
        assert par.delta_b[0] == 0.6

    def test_epidemic_benchmark_fractions(self):
        raw = make_raw(2, 12, 25, 11, 11, np.eye(1))
        par = normalize(raw)
        assert par.rho[0] == 0.48
        assert par.delta_r[0] == 0.44
        assert par.memory == 2

    def test_all_zero_reinforcement_rejected(self):
        raw = make_raw(1, [5, 5], [10, 10], 0, 0, np.eye(2))
        with pytest.raises(ValueError, match="zero"):
            normalize(raw)

    def test_partial_zero_reinforcement_allowed(self):
        raw = make_raw(1, [5, 5], [10, 10], [0, 1], [0, 2], np.eye(2))
        par = normalize(raw)
        assert par.delta_r.tolist() == [0.0, 0.1]

    def test_homogeneous_constructor(self):
        par = NetworkParams.homogeneous(4, 3, 0.48, 0.44)
        assert par.n_urns == 4
        assert par.memory == 3
        assert np.all(par.delta_r == par.delta_b)


class TestRedRatio:
    def test_single_memory_endpoints(self):
        par = NetworkParams.homogeneous(1, 1, 0.5, 1.0)
        assert red_ratio_from_count(par, 0, 0) == 0.25
        assert red_ratio_from_count(par, 0, 1) == 0.75

    def test_epidemic_benchmark_empty_window(self):
        par = NetworkParams.homogeneous(1, 2, 0.48, 0.44)
        assert red_ratio_from_count(par, 0, 0) == pytest.approx(
            0.2553191489361702, abs=1e-15
        )

    def test_table_matches_scalar_form(self, rng):
        par = NetworkParams(3, rng.random(4), rng.random(4), rng.random(4))
        table = red_ratio_table(par)
        assert table.shape == (4, 4)
        for urn in range(4):
            for k in range(4):
                assert table[urn, k] == pytest.approx(
                    red_ratio_from_count(par, urn, k), abs=1e-15
                )

    def test_window_form_counts_only(self):
        par = NetworkParams(4, [0.3], [0.7], [0.2])
        a = red_ratio(par, 0, [1, 0, 1, 0])
        b = red_ratio(par, 0, [0, 1, 0, 1])
        assert a == b == red_ratio_from_count(par, 0, 2)

    def test_out_of_range_count_rejected(self):
        par = NetworkParams.homogeneous(1, 2, 0.5, 0.5)
        with pytest.raises(ValueError):
            red_ratio_from_count(par, 0, 3)

    def test_bad_window_rejected(self):
        par = NetworkParams.homogeneous(1, 2, 0.5, 0.5)
        with pytest.raises(ValueError):
            red_ratio(par, 0, [1, 2])
        with pytest.raises(ValueError):
            red_ratio(par, 0, [1])

    @given(
        rho=st.floats(0.0, 1.0),
        dr=st.floats(0.0, 5.0),
        db=st.floats(0.0, 5.0),
        memory=st.integers(1, 6),
    )
    @settings(max_examples=200)
    def test_monotone_in_red_count(self, rho, dr, db, memory):
        par = NetworkParams(memory, [rho], [dr], [db])
        table = red_ratio_table(par)
        assert np.all(np.diff(table[0]) >= -1e-15)
        assert np.all((table >= 0.0) & (table <= 1.0))


class TestDrawProbability:
    def test_mixes_ratios_through_row(self):
        S = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert draw_probability(0, [0.2, 0.6], S) == pytest.approx(0.5, abs=1e-15)
        assert draw_probability(1, [0.2, 0.6], S) == pytest.approx(0.4, abs=1e-15)

    def test_bounded_by_extremes(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            S = random_interaction(rng, n)
            ratios = rng.random(n)
            for urn in range(n):
                p = draw_probability(urn, ratios, S)
                assert ratios.min() - 1e-12 <= p <= ratios.max() + 1e-12

    def test_bad_urn_rejected(self):
        with pytest.raises(ValueError):
            draw_probability(2, [0.5, 0.5], np.eye(2))
