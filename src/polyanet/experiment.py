"""Experiment configs, the run driver, and curve comparison.

A JSON config fully determines a run: network source, urn counts,
modes, horizon, replicate count and master seed.  Identical configs
produce byte-identical CSV artifacts.  A mode is one :data:`ROUTES`
entry, its memory cost and its runner; :func:`run` admits the sum of
the requested modes' costs, then runs them in the order given.  Curve
CSVs share the column layout (time, urn-or-"avg", value, ...) so any
two of them can be compared on their network-average rows.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import chain, meanfield, montecarlo, networks
from .csvio import write_csv, write_json
from .errors import CapExceededError, ConfigError, UnstableSystemError
from .params import NetworkParams, RawConfig, check_interaction_matrix, normalize

SCHEMA_VERSION = 1
# Each network kind and the entries beside "kind" that it reads.
NETWORK_KINDS = {"barabasi-albert": ("nodes", "attach", "seed", "self_weight"),
                 "ring": ("nodes",), "complete": ("nodes", "self_weight"), "identity": ("nodes",),
                 "matrix": ("values", "normalize"), "matrix-file": ("path",)}


# The optional integer entries: default and minimum (None: any integer).
INTEGER_ENTRIES = {"t_max": (1000, 1), "replicates": (100, 1), "master_seed": (0, None),
                   "exact_cap_bits": (chain.DEFAULT_CAP_BITS, None)}
URN_ENTRIES = ("initial_red", "initial_total", "reinforce_red", "reinforce_black")
ENTRIES = ("schema_version", "network", "memory", *URN_ENTRIES, "modes", "out_prefix",
           *INTEGER_ENTRIES)


@dataclass(frozen=True)
class ExperimentConfig:
    raw: RawConfig
    modes: list[str]
    t_max: int
    replicates: int
    master_seed: int
    out_prefix: str
    network_spec: dict
    exact_cap_bits: int


def resolve_network(spec, base_dir: str = ".") -> np.ndarray:
    """Build the interaction matrix described by a config's network entry;
    an entry that its kind does not read is an error."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("network", "must be an object with a 'kind' entry")
    kind, kinds = spec["kind"], tuple(NETWORK_KINDS)  # a tuple compares a list kind
    if kind not in kinds:
        raise ConfigError("network.kind", f"unknown kind {kind!r}; options: {kinds}")
    for key in spec:
        if key != "kind" and key not in NETWORK_KINDS[kind]:
            raise ConfigError("network", f"unknown entry {key!r} for kind {kind!r}; "
                                         f"options: {NETWORK_KINDS[kind]}")
    try:
        if kind == "matrix":
            values, norm = np.asarray(spec["values"], dtype=object), spec.get("normalize", False)
            # refused before NumPy coerces them: "1" and true would become 1.0
            if not isinstance(norm, bool) or any(isinstance(x, (bool, str, bytes))
                                                 for x in values.ravel()):
                raise TypeError("matrix values must be numbers and normalize true or false")
            values = values.astype(float)
            return networks.row_normalize(values, 0.0) if norm else check_interaction_matrix(values)
        if kind == "matrix-file":
            path = spec["path"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            return check_interaction_matrix(networks.load_matrix(path))
        nodes = check_integer(spec["nodes"], "nodes", minimum=1)
        _admit_bytes(16 * nodes * nodes, "the network's two N x N float64 arrays")
        if kind == "ring":
            return networks.ring(nodes)
        if kind == "identity":
            return networks.identity(nodes)
        self_weight = spec.get("self_weight", 1.0)
        if isinstance(self_weight, (bool, str, bytes)):
            raise TypeError(f"self_weight must be a number, got {self_weight!r}")
        self_weight = float(self_weight)
        # the adjacency is built here, so it is normalized without a copy
        if kind == "complete":
            return networks._normalize_in_place(networks.complete(nodes), self_weight)
        adj = networks.barabasi_albert(nodes, check_integer(spec.get("attach", 2), "attach"),
                                       check_integer(spec.get("seed", 0), "seed"))
        return networks._normalize_in_place(adj, self_weight)
    except KeyError as exc:
        raise ConfigError("network", f"missing entry {exc.args[0]!r} for kind {kind!r}") from None
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError("network", str(exc)) from None


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, or a ConfigError naming ``name``.

    Booleans, strings (``"7"`` included), nulls and non-integral numbers
    are rejected rather than coerced.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    inexact = isinstance(value, float) and number != value
    if number is None or inexact or isinstance(value, (bool, str, bytes)):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(name, f"must be at least {minimum}")
    return number


def _check_setting(name: str, value):
    """The one rule for a run setting (``modes``, ``out_prefix`` or an
    integer entry), whether the file gives it or an override replaces it."""
    if name == "modes":
        if not isinstance(value, list) or not value:
            raise ConfigError("modes", "must be a nonempty list")
        options = tuple(ROUTES)  # a tuple compares a list or dict entry instead of hashing it
        for k, m in enumerate(value):
            if m not in options or m in value[:k]:
                raise ConfigError("modes", f"unknown or repeated mode {m!r}; options: {options}")
        return list(value)
    if name == "out_prefix":
        if not isinstance(value, str) or not value or "\0" in value:
            raise ConfigError("out_prefix", f"must be a nonempty string with no NUL, got {value!r}")
        return value
    return check_integer(value, name, minimum=INTEGER_ENTRIES[name][1])


def config_from_dict(data: dict, base_dir: str = ".", overrides=None) -> ExperimentConfig:
    """Validate a parsed JSON document into an :class:`ExperimentConfig`.

    An entry outside :data:`ENTRIES` is an error.  ``overrides`` maps run
    settings (``modes``, ``out_prefix``, integer entries) to values that
    replace the file's once its own entries pass; each goes through the
    rule of the entry it replaces.
    """
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    for key in data:
        # the retired threads entry is ignored: perfbench/workloads.py still writes it
        if key not in ENTRIES and key != "threads":
            raise ConfigError(key, f"unknown entry; options: {ENTRIES}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    S = resolve_network(data.get("network"), base_dir)
    missing = [k for k in ("memory", *URN_ENTRIES, "modes", "out_prefix") if k not in data]
    if missing:
        raise ConfigError(missing[0], "required entry is missing")
    memory = check_integer(data["memory"], "memory", minimum=1)
    try:
        raw = RawConfig(memory=memory, interaction=S, **{k: data[k] for k in URN_ENTRIES})
    except ValueError as exc:
        raise ConfigError("urns", str(exc)) from None
    if np.all(raw.reinforce_red + raw.reinforce_black == 0):
        raise ConfigError("reinforce_red", "reinforcement is zero for every urn")
    given = {"modes": data["modes"], "out_prefix": data["out_prefix"],
             **{k: data.get(k, default) for k, (default, _) in INTEGER_ENTRIES.items()}}
    settings = {name: _check_setting(name, value)
                for name, value in [*given.items(), *(overrides or {}).items()]}
    return ExperimentConfig(raw=raw, network_spec=dict(data["network"]), **settings)


def load_config(path: str, overrides=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    return config_from_dict(data, os.path.dirname(os.path.abspath(path)), overrides)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Serializable echo of a config; ``config_from_dict`` reads it back."""
    return {
        "schema_version": SCHEMA_VERSION,
        "network": dict(cfg.network_spec),
        "memory": cfg.raw.memory,
        **{k: getattr(cfg.raw, k).tolist() for k in URN_ENTRIES},
        "modes": list(cfg.modes),
        "out_prefix": cfg.out_prefix,
        **{k: getattr(cfg, k) for k in INTEGER_ENTRIES},
    }


def _admit_bytes(need: int, what: str) -> None:
    """Raise :class:`CapExceededError` when ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise CapExceededError(f"{what} need at least {need} bytes; "
                               f"the machine has {have} bytes of physical memory")


# -- routes: one entry per mode ------------------------------------------------


def _bytes(cfg: ExperimentConfig, curves: int = 0, tables: int = 0, squares: int = 0) -> int:
    """float64 (t_max, N) curves, (M + 1, N) tables and N x N matrices."""
    n = cfg.raw.n_urns
    return 8 * n * (curves * cfg.t_max + tables * (cfg.raw.memory + 1) + squares * n)


def _exact_cost(cfg: ExperimentConfig) -> int:
    """The work cap first; then a step's two distributions and the half
    of one that the marginals add into, the kernel with its row arrays
    and apply workspace, and the curve."""
    n, memory = cfg.raw.n_urns, cfg.raw.memory
    chain.check_admission(n, memory, cfg.exact_cap_bits)
    # 2**(N*M) is clipped where 16 * 2**64 bytes already exceeds any machine
    kernel = (chain.kernel_bytes(n, memory) + chain.working_bytes(n, memory)
              if n * memory <= 64 else 0)
    return (20 << min(n * memory, 64)) + kernel + _bytes(cfg, curves=1)


def _exact_trajectory(cfg: ExperimentConfig, params: NetworkParams, path: str):
    kernel = chain.build_kernel(params, cfg.raw.interaction, cap_bits=cfg.exact_cap_bits)
    mu, M = chain.point_mass(kernel, 0), params.memory
    nxt, per = np.empty_like(mu), np.zeros((cfg.t_max, params.n_urns))
    scratch = np.empty(len(mu) >> 1)  # the marginals' halving sums
    # Steps alternate two distributions.  Once a chunk ends on one equal
    # bit for bit to the one before it, every later step returns it too,
    # and the rest of the curve repeats its marginals.
    for lo, hi in meanfield._chunks(per, lambda hi: (mu, nxt)):
        for t in range(lo, hi):
            mu, nxt = kernel.apply(mu, out=nxt), mu
            per[t] = chain.lag_marginals(mu, M - 1, M, scratch)
    del kernel, mu, nxt, scratch  # not held while the CSV is written
    traj = meanfield.InfectionTrajectory(np.arange(cfg.t_max) + 1, per, per.mean(axis=1), "exact")
    return _written(meanfield.save_trajectory_csv, traj, path)


def _written(save, curve, path: str):
    save(curve, path)
    return curve.network_avg, {}


def _montecarlo_cost(cfg: ExperimentConfig) -> int:
    """The int8 draw record, the window tables (red, total and settled
    fractions, 8 bytes each per urn and window count) and two curves."""
    montecarlo.check_counts(cfg.raw, cfg.t_max)  # before any mode runs, like the exact cap
    n = cfg.raw.n_urns
    tables = 24 * n * (min(cfg.raw.memory, cfg.t_max) + 1)
    return cfg.t_max * cfg.replicates * n + tables + _bytes(cfg, curves=2)


def _montecarlo(cfg: ExperimentConfig, params: NetworkParams, path: str):
    mc = montecarlo.average_replicates(cfg.raw, cfg.t_max, cfg.replicates, cfg.master_seed)
    return _written(montecarlo.save_summary_csv, mc, path)


def _meanfield(kind: str):
    return lambda cfg, params, path: _written(meanfield.save_trajectory_csv, meanfield.iterate(
        kind, params, cfg.raw.interaction, cfg.t_max), path)


def _equilibrium(cfg: ExperimentConfig, params: NetworkParams, path: str):
    system = meanfield.build_linear_system(params, cfg.raw.interaction)
    try:
        eq = meanfield.equilibrium(system)
    except UnstableSystemError as exc:  # declined; the CLI exits 3
        write_csv(path, ("urn", "value"), "spectral_radius,%.17g\n", [([exc.radius],)])
        return None, dict(spectral_radius=exc.radius, equilibrium=None, equilibrium_declined=True)
    meanfield.save_equilibrium_csv(eq, path)
    return None, dict(spectral_radius=eq.spectral_radius, equilibrium=eq.per_urn.tolist(),
                      equilibrium_declined=False)


# A mode's ``cost(cfg)`` is the bytes of its arrays at their peak, and its
# ``run(cfg, params, path)`` writes its CSV and returns its network-average
# curve (or None) and its summary entries; runners reach library functions
# through their modules when they run.  Monte Carlo holds its int8 draws,
# the replicate sum and one replicate's running average at a time; the
# nonlinear mean field its clipped and raw rows; the linear one the N x N
# matrix A too; the equilibrium A, I - M*A and the solve's LU copy of it
# (the power iteration's nonzero arrays, 32 bytes a nonzero and at most a
# quarter of A, are freed before the solve).
ROUTES = {
    "exact": (_exact_cost, _exact_trajectory),
    "montecarlo": (_montecarlo_cost, _montecarlo),
    "meanfield-nonlinear": (lambda cfg: _bytes(cfg, curves=2, tables=2), _meanfield("nonlinear")),
    "meanfield-linear": (lambda cfg: _bytes(cfg, curves=1, tables=2, squares=1),
                         _meanfield("linear")),
    "equilibrium": (lambda cfg: _bytes(cfg, tables=2, squares=3), _equilibrium),
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute every requested mode through its :data:`ROUTES` entry;
    returns the summary dictionary.

    Artifacts land at ``{out_prefix}_{mode}.csv`` plus
    ``{out_prefix}_summary.json``.  The summary carries the config echo,
    per-mode artifact paths, the equilibrium report when requested, and
    the pairwise :func:`curve_gap` sup distance between the produced
    network-average curves.  A run over the exact-chain work cap, or
    whose modes' costs sum past physical memory, raises before any mode runs.
    """
    artifacts: dict[str, str] = {}
    curves: dict[str, np.ndarray] = {}
    summary: dict = {"config": config_to_dict(cfg), "artifacts": artifacts,
                     "spectral_radius": None, "equilibrium": None,
                     "equilibrium_declined": False, "comparisons": {}}
    params = normalize(cfg.raw)
    _admit_bytes(sum(ROUTES[mode][0](cfg) for mode in cfg.modes), "the run's arrays")
    for mode in cfg.modes:
        artifacts[mode] = f"{cfg.out_prefix}_{mode}.csv"
        curve, entries = ROUTES[mode][1](cfg, params, artifacts[mode])
        summary.update(entries)
        if curve is not None:
            curves[mode] = curve
    for a, b in itertools.combinations(sorted(curves), 2):
        summary["comparisons"][f"{a}|{b}"] = curve_gap(curves[a], curves[b]).linf
    summary_path = f"{cfg.out_prefix}_summary.json"
    write_json(summary_path, summary)
    summary["summary_path"] = summary_path
    return summary


# -- curve comparison ---------------------------------------------------------


@dataclass
class CompareReport:
    linf: float
    l1_mean: float
    final_abs_diff: float
    n_points: int


def read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and network-average values from any curve CSV, each time once."""
    times, values, line_of = [], [], {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 3 or header[0] != "time":
                raise ConfigError("curves", f"{path}: not a curve CSV (header {header})")
            for line in reader:
                if len(line) >= 3 and line[1] == "avg":
                    try:
                        time, value = int(line[0]), float(line[2])
                    except ValueError:
                        value = None
                    if value is None or not np.isfinite(value):
                        raise ConfigError(
                            "curves",
                            f"{path}: line {reader.line_num}: bad average row {line}",
                        )
                    if time in line_of:
                        raise ConfigError("curves", f"{path}: line {reader.line_num}: time "
                                                    f"{time} repeats line {line_of[time]}")
                    line_of[time] = reader.line_num
                    times.append(time)
                    values.append(value)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError("curves", f"cannot read {path}: {exc}") from None
    if not times:
        raise ConfigError("curves", f"{path}: no network-average rows found")
    order = np.argsort(times)
    return np.asarray(times)[order], np.asarray(values)[order]


def curve_gap(values_a, values_b) -> CompareReport:
    """Sup, mean-absolute and final differences of two curves' values on
    one time grid; the one evaluator of the distance between two curves."""
    diff = np.abs(values_a - values_b)
    return CompareReport(
        linf=float(diff.max()),
        l1_mean=float(diff.mean()),
        final_abs_diff=float(diff[-1]),
        n_points=len(diff),
    )


def compare_curves(path_a: str, path_b: str, t_min: int = 1) -> CompareReport:
    """:func:`curve_gap` of two average-curve files over the times >= ``t_min``.

    The two files must cover the same time grid; misaligned grids are a
    configuration error, not something to silently interpolate over.
    """
    ta, va = read_curve(path_a)
    tb, vb = read_curve(path_b)
    if ta.shape != tb.shape or np.any(ta != tb):
        raise ConfigError("curves", "time grids differ; curves are not comparable")
    window = ta >= t_min
    if not window.any():
        raise ConfigError("t_min", f"no curve time is at least {t_min}; the last is {ta[-1]}")
    return curve_gap(va[window], vb[window])


# -- figure reproductions -----------------------------------------------------

FIGURE_SEED = 1789


def figure_setup(which: str, seed: int = FIGURE_SEED) -> dict:
    """Deterministic network and per-urn counts for a figure family.

    1: 100-node preferential-attachment network, totals 25, initial red
       1..10, reinforcement 30..50 red / 15..30 black.
    2: 10-node preferential-attachment network, totals 25, initial red
       2..9, reinforcement 20..28 red / 20..29 black.
    3: same 10-node network, homogeneous urns (12 red of 25, both
       reinforcements 11, so rho = 0.48 and delta = 0.44).

    Topologies beyond the node counts are a documented convention of
    this package: preferential attachment with 2 edges per node and a
    self weight of 1 before row normalization.
    """
    if which not in ("1", "2", "3"):
        raise ConfigError("figure", f"unknown figure {which!r}; options: 1, 2, 3")
    rng = np.random.default_rng([check_integer(seed, "seed", minimum=0), int(which)])
    if which == "1":
        nodes = 100
        red = rng.integers(1, 11, nodes)
        add_red = rng.integers(30, 51, nodes)
        add_black = rng.integers(15, 31, nodes)
    elif which == "2":
        nodes = 10
        red = rng.integers(2, 10, nodes)
        add_red = rng.integers(20, 29, nodes)
        add_black = rng.integers(20, 30, nodes)
    else:
        nodes = 10
        red = np.full(nodes, 12)
        add_red = np.full(nodes, 11)
        add_black = np.full(nodes, 11)
    network = {"kind": "barabasi-albert", "nodes": nodes, "attach": 2, "seed": seed,
               "self_weight": 1.0}
    return {
        "network": network,
        "initial_red": red.tolist(),
        "initial_total": [25] * nodes,
        "reinforce_red": add_red.tolist(),
        "reinforce_black": add_black.tolist(),
    }


def figure_configs(which: str, out_prefix: str, seed: int = FIGURE_SEED, t_max: int = 1000,
                   replicates: int = 100, threads=None) -> list[ExperimentConfig]:
    """One config per memory value M = 1, 2, 3 for a figure family; the
    retired ``threads`` is ignored, as perfbench/worker.py still passes it."""
    base = figure_setup(which, seed)
    out_prefix = _check_setting("out_prefix", out_prefix)  # each memory's prefix extends it
    configs = []
    for memory in (1, 2, 3):
        data = {
            "schema_version": SCHEMA_VERSION,
            "memory": memory,
            "modes": ["montecarlo", "meanfield-nonlinear", "meanfield-linear"],
            "t_max": t_max,
            "replicates": replicates,
            "master_seed": seed * 10 + memory,
            "out_prefix": f"{out_prefix}_m{memory}",
            **base,
        }
        configs.append(config_from_dict(data))
    return configs
