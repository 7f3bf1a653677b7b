"""Mean-field dynamical systems: equivalence, equilibria, trajectories."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyanet.chain import build_kernel, lag_marginals, marginal_infection, point_mass
from polyanet import meanfield
from polyanet.errors import CapExceededError, ConvergenceError, UnstableSystemError
from polyanet.meanfield import (
    LinearSystem,
    build_linear_system,
    equilibrium,
    iterate,
    save_equilibrium_csv,
    save_trajectory_csv,
    spectral_radius,
    step_nonlinear,
)
from polyanet.experiment import figure_configs
from polyanet.params import NetworkParams, normalize, red_ratio_table

from polyanet.networks import ring, row_normalize

from conftest import (
    configuration_weights,
    dense_companion,
    dense_linear_curve,
    dense_power_radius,
    homogeneous_raw,
    isolated_equilibrium,
    iterate_by_steps,
    linear_system_by_blocks,
    make_raw,
    random_interaction,
    step_direct,
    window_expectation_exact,
)


def random_params(rng, n_urns, memory):
    return NetworkParams(
        memory=memory,
        rho=rng.uniform(0.05, 0.95, n_urns),
        delta_r=rng.uniform(0.0, 2.0, n_urns),
        delta_b=rng.uniform(0.05, 2.0, n_urns),
    )


def memory_one(A):
    """The M = 1 linear system whose companion operator is ``A`` itself."""
    A = np.asarray(A, dtype=float)
    return LinearSystem(A=A, c=np.zeros(len(A)), n_urns=len(A), memory=1)


def max_eig(J):
    return float(np.max(np.abs(np.linalg.eigvals(J))))


def companion_poly(lam, mu, m):
    """lambda**M - mu * (lambda**(M-1) + ... + 1)."""
    return lam**m - mu * sum(lam**k for k in range(m))


class TestStepEquivalence:
    def test_direct_equals_nonlinear(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            par = random_params(rng, n, m)
            S = random_interaction(rng, n)
            hist = rng.random((m, n))
            a = step_direct(hist, par, S)
            b = step_nonlinear(hist, par, S)
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("m", [20, 40, 60, 80])
    def test_large_memory_matches_exact_rationals(self, m):
        # Exact to rounding at any memory: no error that grows with M.
        g = np.random.default_rng(5000 + m)
        par = random_params(g, 2, m)
        table = red_ratio_table(par)
        for _ in range(2):
            hist = g.random((m, 2))
            got = step_nonlinear(hist, par, np.eye(2))
            assert np.max(np.abs(got - window_expectation_exact(hist, table))) <= 1e-14

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_networks_match_enumeration(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        m = data.draw(st.integers(1, min(3, 8 // n)), label="m")
        counts = st.lists(st.integers(0, 40), min_size=n, max_size=n)
        total = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n), label="total")
        red = [data.draw(st.integers(0, t), label="red") for t in total]
        d_red, d_black = data.draw(counts, label="d_red"), data.draw(counts, label="d_black")
        assume(any(d_red) or any(d_black))
        weights = data.draw(
            st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n), min_size=n, max_size=n),
            label="weights",
        )
        assume(all(map(any, weights)))
        S = row_normalize(weights)
        par = normalize(make_raw(m, red, total, d_red, d_black, S))
        hist = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=m * n, max_size=m * n), label="hist")
        ).reshape(m, n)
        assert np.max(np.abs(step_nonlinear(hist, par, S) - step_direct(hist, par, S))) <= 1e-12
        if m == 1:
            # the marginal recursion is closed at memory 1: the map steps
            # the exact chain's law from the product of the history
            kern = build_kernel(par, S)
            mu = configuration_weights(hist, par)
            traj = iterate("nonlinear", par, S, 20, initial_history=hist)
            for t in range(20):
                mu = kern.apply(mu)
                assert np.max(np.abs(traj.per_urn[t] - lag_marginals(mu, 0, 1))) <= 1e-12

    def test_single_bit_expectation(self):
        # one urn, memory 1: the step is an affine function of history
        par = NetworkParams(1, [0.5], [1.0], [1.0])
        S = np.array([[1.0]])
        table = red_ratio_table(par)[0]
        for h in (0.0, 0.3, 1.0):
            want = (1 - h) * table[0] + h * table[1]
            assert step_nonlinear([[h]], par, S)[0] == pytest.approx(want, abs=1e-15)

    def test_degenerate_history_matches_window_ratio(self, rng):
        # 0/1 histories collapse the expectation onto a single window
        par = random_params(rng, 2, 3)
        S = random_interaction(rng, 2)
        table = red_ratio_table(par)
        hist = (rng.random((3, 2)) < 0.5).astype(float)
        counts = hist.sum(axis=0).astype(int)
        want = S @ table[np.arange(2), counts]
        assert np.allclose(step_nonlinear(hist, par, S), want, atol=1e-14)

    def test_direct_cap(self):
        par = NetworkParams.homogeneous(6, 4, 0.5, 0.5)
        S = np.full((6, 6), 1.0 / 6)
        with pytest.raises(CapExceededError):
            step_direct(np.zeros((4, 6)), par, S)

    def test_history_shape_checked(self):
        par = NetworkParams.homogeneous(2, 2, 0.5, 0.5)
        S = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            step_nonlinear(np.zeros((3, 2)), par, S)


class TestConfigurationWeights:
    def test_partition_of_unity(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            par = random_params(rng, n, m)
            w = configuration_weights(rng.random((m, n)), par)
            assert w.shape == (1 << (n * m),)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_deterministic_history(self):
        par = NetworkParams.homogeneous(2, 2, 0.5, 0.5)
        hist = np.array([[1.0, 0.0], [1.0, 0.0]])
        w = configuration_weights(hist, par)
        # urn 0 all red (bits 0,1), urn 1 all black: state 0b0011
        assert w[0b0011] == 1.0
        assert w.sum() == 1.0


class TestLinearSystem:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_equals_block_by_block_build(self, n, m):
        g = np.random.default_rng(100 * n + m)
        par = random_params(g, n, m)
        S = random_interaction(g, n)
        got = build_linear_system(par, S)
        want = linear_system_by_blocks(par, S)
        dense = dense_companion(got)
        assert np.array_equal(dense.J, want.J)
        assert np.array_equal(dense.C, want.C)
        assert (got.n_urns, got.memory) == (n, m)
        assert got.A.shape == (n, n) and got.c.shape == (n,)

    def test_memory_one_shape(self, rng):
        par = random_params(rng, 3, 1)
        S = random_interaction(rng, 3)
        sys = dense_companion(build_linear_system(par, S))
        assert sys.J.shape == (3, 3)
        table = red_ratio_table(par)
        assert np.allclose(sys.C, S @ table[:, 0], atol=1e-15)

    def test_block_structure(self, rng):
        par = random_params(rng, 2, 3)
        S = random_interaction(rng, 2)
        sys = dense_companion(build_linear_system(par, S))
        assert sys.J.shape == (6, 6)
        # shift rows: row r copies state entry r-1 within each urn block
        assert sys.J[1, 0] == 1.0 and sys.J[2, 1] == 1.0
        assert sys.J[4, 3] == 1.0 and sys.J[5, 4] == 1.0
        assert sys.C[1] == sys.C[2] == sys.C[4] == sys.C[5] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_product_equals_dense_companion(self, n, m):
        g = np.random.default_rng(1000 + 10 * n + m)
        sys = build_linear_system(random_params(g, n, m), random_interaction(g, n))
        J = dense_companion(sys).J
        for x in (g.standard_normal(n * m), g.random(n * m)):
            y = sys.apply(x)
            assert y.shape == (n * m,)
            assert np.max(np.abs(y - J @ x)) <= 1e-15
            assert np.array_equal(sys.apply(x.reshape(n, m)), y.reshape(n, m))

    def test_linear_iterate_matches_scalar_recursion(self):
        par = NetworkParams(2, [0.4], [0.9], [0.3])
        S = np.array([[1.0]])
        table = red_ratio_table(par)[0]
        slope = table[1] - table[0]
        traj = iterate("linear", par, S, 12)
        p = [0.0, 0.0]
        want = [0.0]
        for _ in range(2, 13):
            nxt = table[0] + slope * (p[0] + p[1])
            want.append(nxt)
            p = [nxt, p[0]]
        assert np.allclose(traj.per_urn[:, 0], want, atol=1e-14)


class TestSpectralRadius:
    def test_diagonal(self):
        est = spectral_radius(memory_one(np.diag([0.2, -0.7, 0.5])))
        assert est.converged
        assert est.value == pytest.approx(0.7, abs=1e-9)

    def test_rotation_needs_dense_fallback(self):
        theta = 0.7
        R = 0.9 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        est = spectral_radius(memory_one(R), max_iters=50)
        assert est.converged
        assert est.value == pytest.approx(0.9, abs=1e-9)

    def test_zero_matrix(self):
        est = spectral_radius(memory_one(np.zeros((3, 3))))
        assert est.converged and est.value == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(memory_one(np.ones((2, 3))))

    def test_homogeneous_network_radius(self, rng):
        # same root as the per-urn companion polynomial, any mixing matrix
        par = NetworkParams.homogeneous(3, 2, 0.48, 0.44)
        S = random_interaction(rng, 3)
        sys = build_linear_system(par, S)
        est = spectral_radius(sys)
        assert est.value == pytest.approx(0.6147526619150341, abs=1e-9)


    def test_matches_dense_power_iteration(self):
        # The structured product runs the dense iteration's steps; the
        # stopping rule leaves it within about rtol of the spectrum.
        g = np.random.default_rng(77)
        for _ in range(30):
            n, m = int(g.integers(1, 41)), int(g.integers(1, 5))
            sys = build_linear_system(random_params(g, n, m), random_interaction(g, n))
            J = dense_companion(sys).J
            est = spectral_radius(sys)
            want = dense_power_radius(J)
            assert est.converged and want is not None
            assert abs(est.value - want) <= 1e-12
            assert abs(est.value - max_eig(J)) <= 1e-8
            rho_a = max_eig(sys.A)
            assert abs(companion_poly(est.value, rho_a, m)) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exact_fallback_matches_spectrum(self, m):
        # max_iters=0 goes straight to the eigvals(A) companion roots.
        g = np.random.default_rng(300 + m)
        for n in (1, 2, 5, 13, 30):
            sys = build_linear_system(random_params(g, n, m), random_interaction(g, n))
            est = spectral_radius(sys, max_iters=0)
            assert est.converged
            assert abs(est.value - max_eig(dense_companion(sys).J)) <= 1e-12
            assert abs(companion_poly(est.value, max_eig(sys.A), m)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_periodic_ring(self, m):
        # Self weight 0 makes the 6-ring bipartite: A has eigenvalues
        # +-rho(A), so at M = 1 the power iteration stalls and the
        # exact fallback answers.
        g = np.random.default_rng(600 + m)
        sys = build_linear_system(random_params(g, 6, m), row_normalize(ring(6)))
        J = dense_companion(sys).J
        est = spectral_radius(sys)
        assert est.converged
        stalled = dense_power_radius(J) is None
        assert stalled == (m == 1)
        tol = 1e-12 if stalled else 1e-8
        assert abs(est.value - max_eig(J)) <= tol
        assert abs(companion_poly(est.value, max_eig(sys.A), m)) <= tol
        assert abs(spectral_radius(sys, max_iters=0).value - max_eig(J)) <= 1e-12

    @pytest.mark.parametrize("delta_r", [(0.0, 0.3), (2.0, 4.0)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unconverged_bound_is_row_sum_norm(self, m, delta_r, monkeypatch):
        # Weak red reinforcement leaves the shift rows (sum 1) the
        # largest; strong reinforcement makes the coefficient rows so.
        g = np.random.default_rng(900 + m)
        par = NetworkParams(m, g.uniform(0.05, 0.95, 6), g.uniform(*delta_r, 6),
                            g.uniform(0.0, 0.1, 6))
        sys = build_linear_system(par, row_normalize(ring(6)))
        monkeypatch.setattr(meanfield, "DENSE_LIMIT", 0)
        est = spectral_radius(sys, max_iters=0)
        assert not est.converged
        J = dense_companion(sys).J
        assert est.value == pytest.approx(np.max(np.abs(J).sum(axis=1)), abs=1e-15)
        assert est.value >= max_eig(J)


class TestEquilibrium:
    def test_homogeneous_fixed_point_is_rho(self, rng):
        for n, m in ((2, 1), (3, 2), (4, 3)):
            par = NetworkParams.homogeneous(n, m, 0.48, 0.44)
            S = random_interaction(rng, n)
            eq = equilibrium(build_linear_system(par, S))
            assert np.allclose(eq.per_urn, 0.48, atol=1e-10)
            assert eq.spectral_radius < 1.0
            assert eq.residual <= 1e-10

    def test_isolated_urns_closed_form(self):
        par = NetworkParams(1, [0.5, 0.2, 0.8], [3.0, 0.5, 1.0], [1.0, 0.5, 2.0])
        eq = equilibrium(build_linear_system(par, np.eye(3)))
        for j in range(3):
            want = isolated_equilibrium(
                par.rho[j], par.delta_r[j], par.delta_b[j]
            )
            assert eq.per_urn[j] == pytest.approx(want, abs=1e-10)
        assert eq.per_urn[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_full_state_contains_per_urn(self, rng):
        par = random_params(rng, 2, 3)
        S = random_interaction(rng, 2)
        eq = equilibrium(build_linear_system(par, S))
        assert np.array_equal(eq.per_urn, eq.full[::3])
        # at a fixed point every lag of an urn holds the same value
        assert np.allclose(eq.full.reshape(2, 3), eq.per_urn[:, None], atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_per_urn_equals_dense_solve(self, n, m):
        g = np.random.default_rng(2000 + 10 * n + m)
        par = NetworkParams(m, g.uniform(0.05, 0.95, n), g.uniform(0.0, 0.5, n),
                            g.uniform(0.05, 2.0, n))
        S = random_interaction(g, n)
        eq = equilibrium(build_linear_system(par, S))
        dense = linear_system_by_blocks(par, S)
        want = np.linalg.solve(np.eye(n * m) - dense.J, dense.C)
        assert np.max(np.abs(eq.per_urn - want[::m])) <= 1e-15
        assert np.max(np.abs(eq.full - want)) <= 1e-15
        assert eq.residual <= 1e-15

    def test_unstable_system_raises(self):
        par = NetworkParams(2, [0.01], [99.0], [0.0])
        sys = build_linear_system(par, np.array([[1.0]]))
        with pytest.raises(UnstableSystemError) as err:
            equilibrium(sys)
        assert err.value.radius > 1.0

    @pytest.mark.parametrize("S, m", [(ring(6), 1), (row_normalize(ring(200), 1.0), 2)])
    def test_unconverged_bound_is_not_a_radius(self, monkeypatch, S, m):
        # Without the dense fallback a stalled power iteration leaves only
        # the row-sum bound, which is neither the radius nor a verdict.
        monkeypatch.setattr(meanfield, "DENSE_LIMIT", 0)
        system = build_linear_system(NetworkParams.homogeneous(len(S), m, 0.2, 0.44), S)
        est = spectral_radius(system)
        assert not est.converged
        with pytest.raises(ConvergenceError, match=f"bounded by {est.value:.6g}"):
            equilibrium(system)

    def test_boundary_system_declined(self):
        # M * rho(A) = 3 * 1/3 = 1: I - M*A is singular, while the power
        # iteration stops just below 1
        par = NetworkParams(3, [0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        S = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        system = build_linear_system(par, S)
        assert spectral_radius(system).value < 1.0
        with pytest.raises(UnstableSystemError) as err:
            equilibrium(system)
        assert err.value.radius == 1.0


class TestIterate:
    def test_linear_equals_nonlinear_for_memory_one(self, rng):
        par = random_params(rng, 3, 1)
        S = random_interaction(rng, 3)
        a = iterate("nonlinear", par, S, 60)
        b = iterate("linear", par, S, 60)
        assert np.max(np.abs(a.per_urn - b.per_urn)) < 1e-12

    def test_memory_one_matches_exact_chain(self, rng):
        # with memory 1 the marginal recursion is closed for any mixing
        par = random_params(rng, 2, 1)
        S = random_interaction(rng, 2)
        kern = build_kernel(par, S)
        mu = point_mass(kern)
        traj = iterate("nonlinear", par, S, 40)
        for t in range(1, 41):
            mu = kern.apply(mu)
            for urn in range(2):
                assert traj.per_urn[t - 1, urn] == pytest.approx(
                    marginal_infection(mu, urn, 0, 1), abs=1e-12
                )

    def test_single_urn_geometric_form(self):
        par = NetworkParams(1, [0.5], [3.0], [1.0])
        S = np.array([[1.0]])
        table = red_ratio_table(par)[0]
        slope = table[1] - table[0]
        traj = iterate("nonlinear", par, S, 30)
        for t in range(1, 31):
            want = table[0] * (1 - slope**t) / (1 - slope)
            assert traj.per_urn[t - 1, 0] == pytest.approx(want, abs=1e-12)

    def test_converges_to_equilibrium(self, rng):
        par = random_params(rng, 3, 2)
        S = random_interaction(rng, 3)
        eq = equilibrium(build_linear_system(par, S))
        traj = iterate("linear", par, S, 800)
        assert np.allclose(traj.per_urn[-1], eq.per_urn, atol=1e-8)

    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_linear_equals_dense_loop_on_figures(self, which):
        # Summing the lags before the product reorders the dense row's
        # sum: within 1e-15 relative to max(1, |v|), bit for bit at M = 1.
        for cfg in figure_configs(which, "unused"):
            par = normalize(cfg.raw)
            got = iterate("linear", par, cfg.raw.interaction, cfg.t_max).per_urn
            want = dense_linear_curve(par, cfg.raw.interaction, cfg.t_max)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-15
            if par.memory == 1:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_linear_steps_with_the_structured_product(self, m):
        # iterate's row window and apply's urn-major state sum the lags
        # in the same order (also past the 8 lags where NumPy's own sum
        # regroups), so a loop of apply + c gives the same bits.
        g = np.random.default_rng(4000 + m)
        par = random_params(g, 4, m)
        S = random_interaction(g, 4)
        hist = g.uniform(0.1, 0.9, (m, 4))
        traj = iterate("linear", par, S, 30, initial_history=hist)
        sys = build_linear_system(par, S)
        state = hist.T.reshape(-1)
        for t in range(m, 31):
            state = sys.apply(state)
            state[::m] += sys.c
            assert np.array_equal(traj.per_urn[t - 1], state[::m])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_linear_equals_dense_loop(self, m):
        # Random systems are often unstable; over 200 growing steps the
        # per-step reordering (a few ulp) accumulates, hence 1e-14.
        g = np.random.default_rng(3000 + m)
        for n in (1, 2, 7):
            par = random_params(g, n, m)
            S = random_interaction(g, n)
            got = iterate("linear", par, S, 200).per_urn
            want = dense_linear_curve(par, S, 200)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14
            if m == 1:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("t_max", [1, 2, 7])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nonlinear_equals_public_steps(self, m, t_max):
        # One map built per run gives the same bits as a fresh, validated
        # step_nonlinear call per step, for t_max below and above M.
        g = np.random.default_rng(10 * m + t_max)
        par = random_params(g, 3, m)
        S = random_interaction(g, 3)
        hist = g.uniform(0.1, 0.9, (m, 3))
        traj = iterate("nonlinear", par, S, t_max, initial_history=hist)
        want = np.zeros((t_max, 3))
        for t in range(1, min(m, t_max + 1)):
            want[t - 1] = hist[m - 1 - t]
        work = hist.copy()
        for t in range(m, t_max + 1):
            want[t - 1] = step_nonlinear(work, par, S)
            work = np.vstack([want[t - 1][None, :], work[:-1]])
        assert np.array_equal(traj.per_urn, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_step_is_row_m_of_iterate(self, m):
        # step_nonlinear runs the trajectory's row runner for one row, so
        # it is time M of a run from the same history, bit for bit
        g = np.random.default_rng(700 + m)
        par = random_params(g, 4, m)
        S = random_interaction(g, 4)
        for _ in range(5):
            hist = g.random((m, 4))
            row = iterate("nonlinear", par, S, m, initial_history=hist).per_urn[m - 1]
            assert step_nonlinear(hist, par, S).tobytes() == row.tobytes()

    def test_initial_history_replayed(self, rng):
        par = random_params(rng, 2, 3)
        S = random_interaction(rng, 2)
        hist = rng.random((3, 2))
        traj = iterate("nonlinear", par, S, 10, initial_history=hist)
        # times 1 and 2 replay rows 1 and 0 of the history
        assert np.array_equal(traj.per_urn[0], hist[1])
        assert np.array_equal(traj.per_urn[1], hist[0])

    def test_times_run_from_one(self, rng):
        par = random_params(rng, 1, 1)
        traj = iterate("nonlinear", par, np.eye(1), 5)
        assert traj.times.tolist() == [1, 2, 3, 4, 5]
        assert traj.system == "meanfield-nonlinear"

    def test_bad_arguments(self, rng):
        par = random_params(rng, 1, 1)
        with pytest.raises(ValueError):
            iterate("cubic", par, np.eye(1), 5)
        with pytest.raises(ValueError):
            iterate("linear", par, np.eye(1), 0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_nonlinear_stays_in_unit_box(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 4))
        m = int(g.integers(1, 4))
        par = random_params(g, n, m)
        S = random_interaction(g, n)
        traj = iterate("nonlinear", par, S, 50)
        assert np.all((traj.per_urn >= 0.0) & (traj.per_urn <= 1.0))


class TestFixedPointStop:
    """Long runs of :func:`iterate` against the step loops, bit for bit: a
    trajectory that reaches a bitwise fixed point has its rest filled,
    one that never does (an unstable linear system) is stepped to t_max."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_long_runs_match_step_loops(self, m):
        # at M = 1 each linear step reads a trajectory row at a new address,
        # so a BLAS product that depended on alignment would show here
        g = np.random.default_rng(100 + m)
        settled = runs = unstable = 0
        for draw in range(16):
            n = int(g.integers(1, 13))
            if draw % 4 == 3:  # strong red reinforcement: unstable linear systems
                par = NetworkParams(m, g.uniform(0.0, 0.2, n), g.uniform(2.0, 6.0, n),
                                    g.uniform(0.0, 0.3, n))
            else:
                par = random_params(g, n, m)
            S = random_interaction(g, n)
            S = np.asfortranarray(S) if draw % 2 else S
            hist = g.uniform(0.0, 1.0, (m, n)) if draw % 3 == 0 else None
            t_max = int(g.integers(100, 1501))
            for kind in ("nonlinear", "linear"):
                want = iterate_by_steps(kind, par, S, t_max, initial_history=hist)
                traj = iterate(kind, par, S, t_max, initial_history=hist)
                assert np.array_equal(traj.per_urn.view(np.int64), want.view(np.int64))
                assert np.array_equal(traj.network_avg.view(np.int64),
                                      want.mean(axis=1).view(np.int64))
                # constant over more than two checks' worth of rows: filled
                bits = want.view(np.int64)
                runs += 1
                settled += bool((bits[-(m + 130):] == bits[-1]).all())
                if kind == "linear" and spectral_radius(build_linear_system(par, S)).value > 1:
                    unstable += 1
                    assert not (bits[-2] == bits[-1]).all()
        assert settled > runs // 2
        assert unstable >= (m > 1)


class TestExports:
    def test_trajectory_csv_layout(self, tmp_path, rng):
        par = random_params(rng, 2, 1)
        traj = iterate("nonlinear", par, random_interaction(rng, 2), 3)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "time,urn,p,system"
        assert len(lines) == 1 + 3 * 3  # per time: one row per urn plus avg
        assert lines[1].startswith("1,0,")
        assert lines[3].split(",")[1] == "avg"

    def test_equilibrium_csv_layout(self, tmp_path, rng):
        par = random_params(rng, 2, 2)
        eq = equilibrium(build_linear_system(par, random_interaction(rng, 2)))
        path = tmp_path / "eq.csv"
        save_equilibrium_csv(eq, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "urn,value"
        assert len(lines) == 4
        assert lines[-1].startswith("spectral_radius,")
