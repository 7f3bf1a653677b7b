"""What a fresh interpreter loads, checked in a subprocess.

The in-process suite cannot see this: the test oracles import SciPy
themselves, so a SciPy import anywhere in the package would go
unnoticed there.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Heavy stacks that no subcommand needs at start-up.
DEFERRED = ("scipy", "multiprocessing", "concurrent.futures")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` first on the path;
    it prints one JSON document, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_deferred_stack():
    loaded = run_fresh(f"""
        import json, sys
        import polyanet, polyanet.cli
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == p or name.startswith(p + ".") for p in {DEFERRED!r})
        )))
    """)
    assert loaded == []


def write_config(tmp_path) -> str:
    """A three-urn, memory-2 config with short runs; returns its path."""
    config = {
        "schema_version": 1,
        "network": {"kind": "complete", "nodes": 3},
        "memory": 2,
        "initial_red": [5, 12, 3],
        "initial_total": [25, 25, 20],
        "reinforce_red": [11, 8, 4],
        "reinforce_black": [11, 9, 2],
        "modes": ["montecarlo"],
        "t_max": 20,
        "replicates": 6,
        "master_seed": 3,
        "out_prefix": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_threaded_run_starts_no_pool(tmp_path):
    # the retired --threads is accepted and ignored: the replicates run in-process
    path = write_config(tmp_path)
    out = run_fresh(f"""
        import contextlib, io, json, sys
        from polyanet import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", {path!r}, "--threads", "3"])
        print(json.dumps({{"code": code, "loaded": sorted(
            name for name in sys.modules
            if any(name == p or name.startswith(p + ".") for p in {DEFERRED!r})
        )}}))
    """)
    assert out == {"code": 0, "loaded": []}
    assert (tmp_path / "run_montecarlo.csv").exists()


def test_runtime_runs_with_scipy_blocked(tmp_path):
    # None in sys.modules makes every ``import scipy...`` raise ImportError
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    calls = [
        ["gen-network", "--kind", "barabasi-albert", "--nodes", "6", "--attach", "2",
         "--out", out],
        ["simulate", "--config", config, "--out", out],
        ["exact", "--config", config, "--out", out],
        ["meanfield", "--config", config, "--out", out],
        ["equilibrium", "--config", config, "--out", out],
        ["compare", out + "_exact.csv", out + "_meanfield-nonlinear.csv"],
        ["reproduce-fig", "3", "--out", out + "_fig", "--t-max", "5", "--replicates", "2"],
    ]
    result = run_fresh(f"""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        import numpy as np
        from polyanet import cli
        from polyanet.chain import build_kernel, check_irreducible_aperiodic
        from polyanet.params import NetworkParams

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in {calls!r}]
        info = check_irreducible_aperiodic(
            build_kernel(NetworkParams.homogeneous(2, 2, 0.5, 0.7), np.full((2, 2), 0.5)))
        print(json.dumps({{
            "codes": codes,
            "info": [info.irreducible, info.aperiodic, info.period, info.n_components],
            "scipy": sorted(name for name in sys.modules if name.startswith("scipy.")),
        }}))
    """)
    assert result == {
        "codes": [0] * len(calls),
        "info": [True, True, 1, 1],
        "scipy": [],
    }
    assert (tmp_path / "out_matrix.csv").exists()
    assert (tmp_path / "out_fig_m3_summary.json").exists()
