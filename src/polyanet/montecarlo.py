"""Stochastic simulation of the urn network.

States carry exact integer ball counts; normalization to [0, 1] happens
only in the draw probabilities.  The first M steps are a warm-up where
reinforcement accumulates without retirement (the urns grow); from step
M+1 on, the addition made M steps earlier is retired right after each
draw, so the total per urn is constant again.

Randomness is counter-based: replicate r of a run always consumes the
Philox stream keyed (master_seed, r), so a run is reproduced bit for
bit by its master seed.

All stepping goes through one kernel, :func:`_advance`, which moves R
replicates together as (R, N) count arrays held in buffers allocated
once per run: per step one (R, N) @ S^T product and one comparison with
pre-drawn uniforms.  The draw probabilities are not clipped, since a
uniform in [0, 1) is below a probability exactly when it is below the
probability clipped into [0, 1]; their running minima and maxima are
checked by one probability clamp per run instead.  Every draw is kept
in a (T, R, N) int8 record, and that record is also the memory window:
the draw retired at step t is read back from row t - M.  Each
replicate's uniforms come from its own stream in (T_block, N) blocks,
the same numbers as T_block successive ``random(N)`` calls; the block
buffer stays under :data:`UNIFORM_BLOCK_BYTES`, so only the int8 draws
grow with the horizon.  :func:`simulate` is the R = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_curve_csv
from .params import RawConfig, clamp_probability

# Upper bound on the buffer of pre-drawn uniforms of one block (all
# replicates of a batch together); at least one step is always drawn.
UNIFORM_BLOCK_BYTES = 1 << 20


def _advance(config: RawConfig, rngs, draws, ratios=None) -> None:
    """Step R replicates from the initial counts for ``len(draws)`` steps.

    Replicate r draws from ``rngs[r]``.  Step t writes the (R, N) 0/1
    draws to ``draws[t]`` (int8) and, when ``ratios`` is given, the red
    fractions after the update to ``ratios[t]``.

    All N draws of a replicate are sampled simultaneously from the
    pre-step red fractions and reinforcement is added; once past the
    warm-up the addition made M steps back is retired, read from the
    draw record ``draws[t - M]``.  Counts stay exact integers: after
    the warm-up a step changes red by ``reinforce_red * (new - old)``
    and the total by ``(reinforce_red - reinforce_black) * (new - old)``.
    """
    n_steps, n_rep, n_urns = draws.shape
    memory = config.memory
    # counts[0] is red and counts[1] the total.  A red draw adds per_draw
    # to them (reinforce_red and reinforce_red - reinforce_black) and its
    # retirement takes it away; a warm-up step adds reinforce_black to
    # every total as well.
    counts = np.empty((2, n_rep, n_urns), dtype=np.int64)
    red, total = counts
    red[:] = config.initial_red
    total[:] = config.initial_total
    per_draw = np.stack((config.reinforce_red, config.reinforce_red - config.reinforce_black))[:, None]
    s_t = config.interaction.T
    block = max(1, min(n_steps, UNIFORM_BLOCK_BYTES // (8 * n_rep * n_urns)))
    uniforms = np.empty((n_rep, block, n_urns))
    ratio, probs = np.empty((n_rep, n_urns)), np.empty((n_rep, n_urns))
    change, added = np.empty((n_rep, n_urns), np.int8), np.empty_like(counts)
    # Running extremes of the draw probabilities, checked once after the
    # last step.  Uniforms lie in [0, 1), so clipping a probability into
    # [0, 1] would never change a draw; a NaN is carried to the check.
    extremes = np.empty((2, n_rep, n_urns))
    low, high = extremes
    low.fill(1.0)
    high.fill(0.0)
    np.divide(red, total, out=ratio)
    for start in range(0, n_steps, block):
        u = uniforms[:, : min(block, n_steps - start)]
        for r, rng in enumerate(rngs):
            rng.random(out=u[r])
        for k in range(u.shape[1]):
            t = start + k
            ratio.dot(s_t, probs)
            np.minimum(low, probs, out=low)
            np.maximum(high, probs, out=high)
            z = draws[t]
            np.less(u[:, k], probs, out=z)
            if t >= memory:
                counts += np.multiply(per_draw, np.subtract(z, draws[t - memory], out=change),
                                      out=added)
            else:
                counts += np.multiply(per_draw, z, out=added)
                total += config.reinforce_black
            np.divide(red, total, out=ratio)
            if ratios is not None:
                ratios[t] = ratio
    clamp_probability(extremes, what="draw probability")


def replicate_stream(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent deterministic stream for one replicate."""
    key = np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, replicate], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Trajectory:
    """One simulated run; row t-1 holds time t (t = 1..t_max)."""

    draws: np.ndarray  # (T, N) 0/1
    ratios: np.ndarray  # (T, N) red fraction after the time-t update


def simulate(config: RawConfig, t_max: int, seed) -> Trajectory:
    """Run one trajectory; the same seed reproduces it bit for bit.

    ``seed`` may be an integer (mapped to replicate stream 0) or a
    ready-made numpy Generator.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else replicate_stream(int(seed), 0)
    draws = np.empty((t_max, 1, config.n_urns), dtype=np.int8)
    ratios = np.empty((t_max, 1, config.n_urns))
    _advance(config, [rng], draws, ratios)
    return Trajectory(draws=draws[:, 0], ratios=ratios[:, 0])


def empirical_sum(trajectory) -> np.ndarray:
    """Running per-urn draw averages (1/t) * sum_{n<=t} Z_n, shape (T, N).

    The draws are copied into one new float64 array, then summed and
    divided there in place, with no further temporary."""
    z = getattr(trajectory, "draws", trajectory)
    out = np.empty(np.shape(z))
    np.copyto(out, z)
    np.cumsum(out, axis=0, out=out)
    out /= np.arange(1, out.shape[0] + 1)[:, None]
    return out


@dataclass
class ReplicateSummary:
    """Replicate-averaged running draw averages."""

    times: np.ndarray
    per_urn: np.ndarray  # (T, N), mean over replicates
    network_avg: np.ndarray  # (T,)
    replicates: int
    master_seed: int


def average_replicates(
    config: RawConfig, t_max: int, replicates: int, master_seed: int
) -> ReplicateSummary:
    """Mean over seeded replicates of the running draw averages.

    Replicate r always consumes stream (master_seed, r).  All replicates
    are stepped as one batch, and their running averages are then summed
    one replicate at a time in replicate order; each replicate's (T, N)
    curve is freed once it is added.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    draws = np.empty((t_max, replicates, config.n_urns), dtype=np.int8)
    rngs = [replicate_stream(master_seed, r) for r in range(replicates)]
    _advance(config, rngs, draws)
    per_urn = np.zeros((t_max, config.n_urns))
    for r in range(replicates):
        per_urn += empirical_sum(draws[:, r])
    per_urn /= replicates
    return ReplicateSummary(
        times=np.arange(1, t_max + 1),
        per_urn=per_urn,
        network_avg=per_urn.mean(axis=1),
        replicates=replicates,
        master_seed=master_seed,
    )


def save_summary_csv(summary: ReplicateSummary, path: str) -> None:
    """Curve CSV: time, urn (or "avg"), empirical_sum, replicate_count."""
    write_curve_csv(
        path, ("time", "urn", "empirical_sum", "replicate_count"), summary.times,
        summary.per_urn, summary.network_avg, summary.replicates,
    )
