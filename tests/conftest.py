"""Shared builders and independently derived oracle formulas.

The closed forms here are transcribed from hand derivations and kept
deliberately separate from the package implementation so that tests
compare two independent routes to the same quantity.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from polyanet.csvio import write_csv
from polyanet.params import RawConfig, normalize

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


def dense_transition_matrix(kernel):
    """Brute-force dense transition matrix via unit-vector propagation."""
    n = kernel.n_states
    Q = np.zeros((n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        Q[a] = kernel.apply(e)
    return Q


def stationary_by_eig(Q):
    """Left Perron eigenvector of a row-stochastic matrix, normalized."""
    vals, vecs = np.linalg.eig(Q.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.abs(v)
    return v / v.sum()


def write_curve_rows(path, header, times, per_urn, network_avg, tail):
    """Curve CSV written one ``csv.writer`` row at a time.

    The reference for :func:`polyanet.csvio.write_curve_csv`: per time
    step, one row per urn and one ``avg`` row, each ending in ``tail``.
    """

    def rows():
        n = per_urn.shape[1]
        for k, t in enumerate(times):
            for j in range(n):
                yield (int(t), j, float(per_urn[k, j]), tail)
            yield (int(t), "avg", float(network_avg[k]), tail)

    write_csv(path, header, rows())


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
