"""One pass over a workload's CLI calls, in a fresh process.

    python3 perfbench/worker.py PLAN_JSON OUT_JSON [--trace]

The plan comes from ``workloads.prepare``.  The caller starts one such
process per pass, after removing every output of the previous pass, so
no state of the package carries from one pass to the next and a pass
that writes nothing leaves its artifacts missing.

The process first sets up, untimed for the pass: it imports ``polyanet``
(with its CLI), NumPy and SciPy, validates every config of the plan,
network generation included, and records ``time.monotonic()``.  The
caller takes the same clock just before starting the process, so the
difference is the set-up time from a fresh process.  Then it times one
pass.  With ``--trace`` the wrappers of tracer.py are installed after
set-up, so the pass is traced and set-up is not.

After the pass the SHA-256 of each artifact is taken (null when it is
missing).  Timings, exit codes, digests, CPU time and the peak resident
memory of this process go to OUT_JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
from polyanet import cli, experiment  # noqa: E402

import tracer as tracing  # noqa: E402  (perfbench modules, next to this file)
import workloads  # noqa: E402
from check import sha256  # noqa: E402


def set_up(plan: dict) -> None:
    """Validate every config of the plan, as a user's first call would."""
    for item in plan["setup"]:
        if "figure" in item:
            experiment.figure_configs(
                item["figure"], os.path.join(plan["workdir"], "setup"), seed=item["seed"],
                t_max=item["t_max"], replicates=item["replicates"], threads=1,
            )
        else:
            experiment.load_config(item["config"])


def run_pass(plan: dict, main) -> dict:
    """One pass over the workload's CLI calls; returns timings and exit codes."""
    codes, call_s = [], []
    sink = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for call in plan["calls"]:
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(call["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed mode run, not a dead benchmark
            traceback.print_exc()
            code = "exception"
        call_s.append(time.perf_counter() - c0)
        codes.append(code)
        sink.seek(0)
        sink.truncate()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "call_s": call_s, "codes": codes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"polyanet imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    with open(args.plan) as fh:
        plan = json.load(fh)
    set_up(plan)
    result = {"setup_end": time.monotonic()}

    if args.trace:
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            result.update(run_pass(plan, tracer.wrap(cli.main, "cli.main", "cli")))
        result["layers"] = tracing.pass_metrics(tracer, result["wall_s"])
        result["spans"] = tracer.spans
    else:
        result.update(run_pass(plan, cli.main))
    result["digests"] = {}
    for a in workloads.artifacts(plan):
        path = workloads.artifact_path(plan, a)
        result["digests"][a["name"]] = sha256(path) if os.path.exists(path) else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
