"""Workload definitions: the CLI calls each workload makes and its inputs.

Every workload drives ``polyanet.cli.main`` single-process with
``--threads 1``.  Inputs are made from the workload seed alone, so the
same seed always gives the same configs and therefore the same
artifacts.  ``prepare`` writes the configs into a work directory and
returns a plan: the argv of every CLI call, the artifacts each call
must leave behind under the plan's ``outdir``, and what a fresh process
has to validate during set-up.  Every output of the CLI goes under
``outdir``, so removing it before a pass removes everything the last
pass wrote.  See NOTES.md for why each workload and size was chosen.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_SEED = 1789  # experiment.FIGURE_SEED; the stored reference uses it
NAMES = ("figure1", "figure2", "exact", "meanfield")
FIGURE_MODES = ("montecarlo", "meanfield-nonlinear", "meanfield-linear")
OUT = "out"  # subdirectory of the work directory that receives every output
# The worker's speed loop whose kind of work dominates the workload: run_s
# is scaled by it (run.py, NOTES.md).
SPEED_LOOP = {"figure1": "interpreter", "figure2": "interpreter", "exact": "array",
              "meanfield": "interpreter"}

# Input sizes.  "full" is what the benchmark measures; "tiny" only lets
# the self-test run every code path in a few seconds.
SIZES = {
    "full": {
        "figure1": {"replicates": 10, "t_max": 300},
        "figure2": {"replicates": 25, "t_max": 500},
        "exact": {"ring": (4, 4, 32), "ba": (8, 2, 4)},  # (nodes, memory, t_max)
        "meanfield": {"trajectory": (10, 3, 5000), "equilibrium": (500, 3)},
    },
    "tiny": {
        "figure1": {"replicates": 2, "t_max": 20},
        "figure2": {"replicates": 2, "t_max": 50},
        "exact": {"ring": (3, 2, 10), "ba": (4, 2, 3)},
        "meanfield": {"trajectory": (5, 3, 200), "equilibrium": (30, 3)},
    },
}


def program_seed(seed: int) -> int:
    """Map any workload seed onto the non-negative seeds the CLI accepts."""
    return seed % (1 << 32)


def _artifact(name, kind, mode, n_urns, t_max, replicates=None):
    return {
        "name": name,
        "kind": kind,
        "mode": mode,
        "n_urns": n_urns,
        "t_max": t_max,
        "replicates": replicates,
        # Linear mean-field values may legitimately leave [0, 1].
        "bounded": mode not in ("meanfield-linear", "equilibrium"),
    }


def _urn_counts(rng, nodes: int) -> dict:
    # The figure-2 ranges: every generated equilibrium config is stable
    # (spectral radius near 0.86), so no seed makes the CLI exit 3.
    return {
        "initial_red": rng.integers(2, 10, nodes).tolist(),
        "initial_total": [25] * nodes,
        "reinforce_red": rng.integers(20, 29, nodes).tolist(),
        "reinforce_black": rng.integers(20, 30, nodes).tolist(),
    }


def _config(workdir, stem, seed, rng, network, memory, modes, t_max) -> str:
    nodes = network["nodes"]
    data = {
        "schema_version": 1,
        "network": network,
        "memory": memory,
        **_urn_counts(rng, nodes),
        "modes": modes,
        "t_max": t_max,
        "replicates": 1,
        "master_seed": seed,
        "out_prefix": os.path.join(workdir, OUT, stem),
        "threads": 1,
    }
    path = os.path.join(workdir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _ba(nodes: int, seed: int) -> dict:
    return {"kind": "barabasi-albert", "nodes": nodes, "attach": 2, "seed": seed,
            "self_weight": 1.0}


def _figure_plan(which, workdir, seed, size) -> dict:
    nodes = 100 if which == "1" else 10
    R, T = size["replicates"], size["t_max"]
    stem = f"fig{which}"
    argv = ["reproduce-fig", which, "--out", os.path.join(workdir, OUT, stem),
            "--seed", str(seed), "--t-max", str(T), "--replicates", str(R),
            "--threads", "1"]
    artifacts = [
        _artifact(f"{stem}_m{m}_{mode}.csv", "montecarlo" if mode == "montecarlo" else "curve",
                  mode, nodes, T, R if mode == "montecarlo" else None)
        for m in (1, 2, 3)
        for mode in FIGURE_MODES
    ]
    setup = [{"figure": which, "seed": seed, "t_max": T, "replicates": R}]
    return {"calls": [{"argv": argv, "artifacts": artifacts}], "setup": setup}


def _exact_plan(workdir, seed, size, rng) -> dict:
    # Same state-bit count N*M, fan-out 2**N of 16 (ring) and 256 (BA).
    ring_nodes, ring_memory, ring_T = size["ring"]
    ba_nodes, ba_memory, ba_T = size["ba"]
    calls, setup = [], []
    for stem, network, memory, T in (
        ("exact_ring", {"kind": "ring", "nodes": ring_nodes}, ring_memory, ring_T),
        ("exact_ba", _ba(ba_nodes, seed), ba_memory, ba_T),
    ):
        nodes = network["nodes"]
        path = _config(workdir, stem, seed, rng, network, memory, ["exact"], T)
        calls.append({
            "argv": ["exact", "--config", path, "--threads", "1"],
            "artifacts": [_artifact(f"{stem}_exact.csv", "curve", "exact", nodes, T)],
        })
        setup.append({"config": path})
    return {"calls": calls, "setup": setup}


def _meanfield_plan(workdir, seed, size, rng) -> dict:
    nodes, memory, T = size["trajectory"]
    traj = _config(workdir, "mf", seed, rng, _ba(nodes, seed), memory,
                   ["meanfield-nonlinear", "meanfield-linear"], T)
    eq_nodes, eq_memory = size["equilibrium"]
    eq = _config(workdir, "eq", seed, rng, _ba(eq_nodes, seed), eq_memory,
                 ["equilibrium"], 1)
    calls = [
        {
            "argv": ["meanfield", "--config", traj, "--system", "both", "--threads", "1"],
            "artifacts": [
                _artifact(f"mf_{mode}.csv", "curve", mode, nodes, T)
                for mode in ("meanfield-nonlinear", "meanfield-linear")
            ],
        },
        {
            "argv": ["equilibrium", "--config", eq, "--threads", "1"],
            "artifacts": [_artifact("eq_equilibrium.csv", "equilibrium", "equilibrium",
                                    eq_nodes, None)],
        },
    ]
    return {"calls": calls, "setup": [{"config": traj}, {"config": eq}]}


def prepare(name: str, seed: int, workdir: str, scale: str = "full") -> dict:
    """Write the workload's inputs under ``workdir`` and return its plan."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; options: {NAMES}")
    os.makedirs(workdir, exist_ok=True)
    seed = program_seed(seed)
    size = SIZES[scale][name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "figure1":
        plan = _figure_plan("1", workdir, seed, size)
    elif name == "figure2":
        plan = _figure_plan("2", workdir, seed, size)
    elif name == "exact":
        plan = _exact_plan(workdir, seed, size, rng)
    else:
        plan = _meanfield_plan(workdir, seed, size, rng)
    plan.update(workload=name, seed=seed, scale=scale, workdir=workdir,
                outdir=os.path.join(workdir, OUT), speed_loop=SPEED_LOOP[name])
    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1)
    return plan


def artifacts(plan: dict) -> list[dict]:
    """Every artifact one pass over the plan's calls must leave behind."""
    return [a for call in plan["calls"] for a in call["artifacts"]]


def artifact_path(plan: dict, artifact: dict) -> str:
    return os.path.join(plan["outdir"], artifact["name"])
