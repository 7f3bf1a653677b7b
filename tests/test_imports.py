"""What a fresh interpreter loads, checked in a subprocess.

The in-process suite cannot see this: other test modules import
``scipy.sparse`` themselves, so a module-level SciPy import in the
package, or a function-local one that no longer works, would go
unnoticed there.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Heavy stacks that no subcommand needs at start-up.
DEFERRED = ("scipy.sparse", "multiprocessing", "concurrent.futures")


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


def test_threaded_run_starts_no_pool(tmp_path):
    # --threads above 1 is accepted but runs the replicates in-process
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
    out = run_fresh(f"""
        import contextlib, io, json, sys
        from polyanet import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", {str(path)!r}, "--threads", "3"])
        print(json.dumps({{"code": code, "loaded": sorted(
            name for name in sys.modules
            if any(name == p or name.startswith(p + ".") for p in {DEFERRED!r})
        )}}))
    """)
    assert out == {"code": 0, "loaded": []}
    assert (tmp_path / "run_montecarlo.csv").exists()


def test_structural_functions_load_scipy_on_first_call(tmp_path):
    out = run_fresh(f"""
        import hashlib, json, sys
        import numpy as np
        import polyanet
        from polyanet.chain import build_kernel, save_kernel_csv
        from polyanet.params import NetworkParams

        before = "scipy.sparse" in sys.modules
        info = polyanet.check_irreducible_aperiodic(
            build_kernel(NetworkParams.homogeneous(2, 2, 0.5, 0.7), np.full((2, 2), 0.5)))
        par = NetworkParams(memory=2, rho=[0.3, 0.65, 0.5], delta_r=[0.4, 1.1, 0.25],
                            delta_b=[0.9, 0.2, 0.6])
        S = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        Q = build_kernel(par, S).to_sparse()
        path = {str(tmp_path / "kernel.csv")!r}
        save_kernel_csv(build_kernel(par, S), path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(json.dumps({{
            "before": before,
            "after": "scipy.sparse.csgraph" in sys.modules,
            "info": [info.irreducible, info.aperiodic, info.period,
                     info.n_components, info.diameter],
            "sparse": [type(Q).__name__, Q.shape[0], Q.nnz,
                       float(np.abs(Q.sum(axis=1) - 1.0).max())],
            "digest": digest,
        }}))
    """)
    assert out["before"] is False
    assert out["after"] is True
    assert out["info"] == [True, True, 1, 1, 2]
    name, n_states, nnz, row_err = out["sparse"]
    assert name == "csr_matrix"
    assert n_states == 64 and 0 < nnz <= 64 * 8
    assert row_err < 1e-12
    # the digest pinned by test_chain.py's kernel CSV test
    assert out["digest"] == "9af3015f4554bf5d2bf786f2944a818320471d5d8d18979ae4793ce0096c8e08"
