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
replicates together on buffers allocated once per run.  An urn's red
fraction depends on its window only through the number of red draws
in it, so the fractions are read from per-run tables of the int64
counts' own divisions, indexed by each urn's window red count; a
settled step is five NumPy calls on (R, N) arrays: one (R, N) @ S^T
product, one comparison with pre-drawn uniforms, the int8 change of
the windows, its addition to the table index and one ``take``.  The
draw probabilities are not clipped, since a uniform in [0, 1) is below
a probability exactly when it is below the probability clipped into
[0, 1]; their extremes are reduced once per block of uniforms and
checked by one probability clamp per run instead.  Every draw is kept
in a (T, R, N) int8 record, and that record is also the memory window:
the draw retired at step t is read back from row t - M.  Each
replicate's uniforms come from its own stream in (T_block, N) blocks,
the same numbers as T_block successive ``random(N)`` calls; the block's
uniforms and draw probabilities share one buffer under
:data:`UNIFORM_BLOCK_BYTES`, so only the int8 draws grow with the
horizon.  :func:`simulate` is the R = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_curve_csv
from .errors import ConfigError
from .params import RawConfig, clamp_probability

# Upper bound on the buffer of one block's pre-drawn uniforms and draw
# probabilities (all replicates of a batch together); at least one step is
# always drawn.
UNIFORM_BLOCK_BYTES = 1 << 20


def check_counts(config: RawConfig, t_max: int) -> None:
    """Raise :class:`ConfigError` (a ValueError) naming the first urn whose int64
    ball total could pass 2**63 - 1 in a window of min(M, t_max) additions."""
    peaks = config.initial_total.astype(object) + min(config.memory, t_max) * np.maximum(
        config.reinforce_red, config.reinforce_black).astype(object)  # Python ints: no wrap
    bad = np.flatnonzero(peaks > np.iinfo(np.int64).max)
    if bad.size:
        raise ConfigError("urns", f"urn {bad[0]}'s ball total can reach {peaks[bad[0]]}, past int64")


def _window_tables(config: RawConfig, n_steps: int):
    """Every urn j's int64 counts at k red draws in its window, flat at
    ``j * (K + 1) + k`` for k up to K = min(M, n_steps), so each is within
    :func:`check_counts`' bound: red ``initial_red + k * reinforce_red``
    and total ``initial_total + k * (reinforce_red - reinforce_black)``,
    to which a additions add ``a * reinforce_black``; and, if the run
    settles, the settled fractions (a = M), the counts' own division.
    That is a second red-ratio evaluator beside
    :func:`params.red_ratio_table` (normalized units, up to 2 ulps apart
    on the figure configs): the draws depend on the counts' version."""
    k = np.arange(min(config.memory, n_steps) + 1)
    red = (config.initial_red[:, None] + k * config.reinforce_red[:, None]).ravel()
    total = (config.initial_total[:, None] + k * (config.reinforce_red
                                                  - config.reinforce_black)[:, None]).ravel()
    if n_steps <= config.memory:
        return red, total, None
    return red, total, red / (total + config.memory * np.repeat(config.reinforce_black, k.size))


def _advance(config: RawConfig, rngs, draws, ratios=None) -> None:
    """Step R replicates from the initial counts for ``len(draws)`` steps.

    Replicate r draws from ``rngs[r]``.  Step t writes the (R, N) 0/1
    draws to ``draws[t]`` (int8) and, when ``ratios`` is given, the red
    fractions after the update to ``ratios[t]``.

    All N draws of a replicate are sampled simultaneously from the
    pre-step red fractions and reinforcement is added; once past the
    warm-up the addition made M steps back is retired, read from the
    draw record ``draws[t - M]``.  The fractions are read from
    :func:`_window_tables` through each urn's table offset plus its
    window red count: a settled step takes them from the settled table,
    a warm-up step (t + 1 additions) gathers red and total and divides,
    so no table grows with M**2.  Either way a fraction is the division
    of the same two int64 counts, bit for bit.
    """
    n_steps, n_rep, n_urns = draws.shape
    check_counts(config, n_steps)
    memory = config.memory
    red, total, settled = _window_tables(config, n_steps)
    index = np.empty((n_rep, n_urns), dtype=np.intp)
    index[:] = np.arange(n_urns) * (red.size // n_urns)
    s_t = config.interaction.T
    # One allocation per block: each replicate's (block, N) uniforms as its
    # stream draws them, their (block, R, N) copy that the steps read and
    # the block's (block, R, N) draw probabilities.
    block = max(1, min(n_steps, UNIFORM_BLOCK_BYTES // (24 * n_rep * n_urns)))
    slab = np.empty((3, block, n_rep, n_urns))
    per_stream = slab[0].reshape(n_rep, block, n_urns)
    ratio, change = np.empty((n_rep, n_urns)), np.empty((n_rep, n_urns), np.int8)
    red_now, total_now = np.empty((2, n_rep, n_urns), np.int64)
    np.divide(config.initial_red, config.initial_total, out=ratio)
    # Extremes of the draw probabilities, reduced once per block and checked
    # once after the last step.  Uniforms lie in [0, 1), so clipping a
    # probability into [0, 1] would never change a draw; a NaN is carried to
    # the check.
    low, high = 1.0, 0.0
    red_draws = draws.view(np.bool_)  # its bytes are the 0/1, which ``less`` writes uncast
    dot, less, subtract, add, take = np.dot, np.less, np.subtract, np.add, np.take
    for start in range(0, n_steps, block):
        steps = min(block, n_steps - start)
        drawn = per_stream[:, :steps]
        uniforms, probs = slab[1, :steps], slab[2, :steps]
        for r, rng in enumerate(rngs):
            rng.random(out=drawn[r])
        np.copyto(uniforms, drawn.transpose(1, 0, 2))
        for t, u, p in zip(range(start, start + steps), uniforms, probs):
            dot(ratio, s_t, p)
            less(u, p, out=red_draws[t])
            if t >= memory:
                add(index, subtract(draws[t], draws[t - memory], out=change), out=index)
                take(settled, index, out=ratio, mode="clip")
            else:
                add(index, draws[t], out=index)
                take(red, index, out=red_now, mode="clip")
                add(take(total, index, out=total_now, mode="clip"),
                    (t + 1) * config.reinforce_black, out=total_now)
                np.divide(red_now, total_now, out=ratio)
            if ratios is not None:
                ratios[t] = ratio
        low, high = np.minimum(low, probs.min()), np.maximum(high, probs.max())
    clamp_probability(np.array([low, high]), what="draw probability")


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


def empirical_sum(trajectory, out=None) -> np.ndarray:
    """Running per-urn draw averages (1/t) * sum_{n<=t} Z_n, shape (T, N).

    The draws are copied into ``out`` (float64, of their shape; a new
    array by default), then summed and divided there in place, with no
    further (T, N) temporary."""
    z = getattr(trajectory, "draws", trajectory)
    out = np.empty(np.shape(z)) if out is None else out
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
    one replicate at a time in replicate order, each formed in the same
    reused (T, N) buffer.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    draws = np.empty((t_max, replicates, config.n_urns), dtype=np.int8)
    rngs = [replicate_stream(master_seed, r) for r in range(replicates)]
    _advance(config, rngs, draws)
    per_urn, curve = np.zeros((t_max, config.n_urns)), np.empty((t_max, config.n_urns))
    for r in range(replicates):
        per_urn += empirical_sum(draws[:, r], out=curve)
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
