"""polyanet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/polyanet``; the
package is imported from that checkout, never from an installed copy.
Workloads are listed in ``workloads.NAMES`` and explained in NOTES.md.

Every pass over the workload's CLI calls runs in a fresh worker process
(worker.py), after every output of the previous pass is removed.  The
first pass is a warm-up and is not counted.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over the passes of the time from starting the
worker process until it has imported the stack and validated the
workload's configs), ``run_s`` (median time of one pass) and
``peak_rss_mb`` (largest peak resident memory of a worker process).
Both times are in reference seconds (speed.py): wall seconds scaled by
a fixed speed loop timed on either side of each pass, which takes a
shared machine's changing speed out of the figures (NOTES.md says why
and how well).  The raw wall medians are in the details line.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` instead.

Every pass is checked (see check.py); a mode run that exits non-zero,
raises, leaves its artifact missing, is not byte-identical to the last
pass or fails the check counts as failed.  The last line of standard
output is the result object; the line before it carries machine facts,
provenance, artifact digests and the raw samples.  Work files live
under ``.perfbench_work`` and are removed at exit; traced runs write
their spans under ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import facts
import speed
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MIN_UNTRACED = 5  # traced passes pair with untraced ones, so as many of them
DEADLINE_S = 170  # a run must end within 180 s

# BLAS pinned to one thread: the plain single-threaded baseline, and on
# a small shared machine it keeps the scheduler out of the numbers.
CHILD_ENV = {var: "1" for var in facts.BLAS_THREAD_VARS}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "montecarlo.replicate_steps": "count",
    "montecarlo.us_per_replicate_step": "us",
    "params.clamp_probability.calls": "count",
    "params.clamp_probability.s": "s",
    "csvio.rows": "count",
    "csvio.bytes": "bytes",
    "csvio.us_per_row": "us",
    "meanfield.step_nonlinear.calls": "count",
    "meanfield.step_nonlinear.us": "us",
    "meanfield.linear.us_per_step": "us",
    "params.red_ratio_table.calls": "count",
    "params.check_interaction_matrix.calls": "count",
    "meanfield.build_linear_system.s": "s",
    "meanfield.spectral_radius.s": "s",
    "meanfield.equilibrium.self_s": "s",
    "chain.build_kernel.s": "s",
    "chain.apply.calls": "count",
    "chain.apply.ms": "ms",
    "chain.successor_evals_per_s": "1/s",
    "chain.marginal_infection.calls": "count",
    "chain.marginal_infection.us": "us",
    "networks.barabasi_albert.s": "s",
    "experiment.config_from_dict.s": "s",
    "experiment.run.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "process.cpu_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed mode run)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)  # the children put this checkout's src first
    return env


def run_pass(plan: dict, trace: bool, env: dict, deadline: float) -> dict:
    """Remove the last pass's outputs, then make one pass in a fresh worker."""
    shutil.rmtree(plan["outdir"], ignore_errors=True)
    os.makedirs(plan["outdir"])
    out = os.path.join(plan["workdir"], "worker.json")
    if os.path.exists(out):
        os.remove(out)
    args = [os.path.join(plan["workdir"], "plan.json"), out] + (["--trace"] if trace else [])
    loops = dict.fromkeys(("interpreter", plan["speed_loop"]))
    before = speed.measure(loops)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    after = speed.measure(loops)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not os.path.exists(out):
        raise HarnessError(f"worker exited with {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("setup_end") - start
    return dict(result, traced=trace, speed_before=before, speed_after=after)


def run_passes(plan: dict, seconds: float, trace: bool, env: dict) -> list[dict]:
    """A warm-up pass, then passes until ``seconds`` have gone by.

    With ``trace``, untraced and traced passes alternate, so the tracing
    overhead is measured on the same machine state.
    """
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for the speed loops and every worker: the speed of one vCPU
    # of a shared machine does not follow the other's (NOTES.md).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    passes = [dict(run_pass(plan, False, env, deadline), warmup=True)]
    start = time.monotonic()
    while True:
        untraced = sum(not p["warmup"] and not p["traced"] for p in passes)
        if time.monotonic() - start >= seconds and untraced >= MIN_UNTRACED:
            return passes
        passes.append(dict(run_pass(plan, False, env, deadline), warmup=False))
        if trace:
            passes.append(dict(run_pass(plan, True, env, deadline), warmup=False))


def load_reference(plan: dict) -> dict | None:
    """Reference entries of the plan's artifacts, if this seed has them."""
    if plan["scale"] != "full" or plan["seed"] != workloads.DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    return {a["name"]: reference[f"{plan['workload']}/{a['name']}"]
            for a in workloads.artifacts(plan)}


def check_run(plan: dict, passes: list[dict], reference: dict | None) -> dict:
    """Count attempted and failed mode runs over every pass.

    The files on disk are the last pass's.  They are checked against the
    reference (or the invariants), and every pass must have written the
    same bytes.
    """
    problems = {}
    for a in workloads.artifacts(plan):
        path = workloads.artifact_path(plan, a)
        if not os.path.exists(path):
            problems[a["name"]] = ["artifact missing"]
            continue
        errors = (check.compare(path, a, reference[a["name"]]) if reference is not None
                  else check.invariants(path, a))
        if errors:
            problems[a["name"]] = errors
    bad = set(problems)
    last = passes[-1]["digests"]
    attempted = failed = 0
    for k, p in enumerate(passes):
        for code, call in zip(p["codes"], plan["calls"]):
            for a in call["artifacts"]:
                attempted += 1
                digest = p["digests"][a["name"]]
                reason = (f"CLI exit {code}" if code != 0
                          else "artifact missing" if digest is None
                          else "not byte-identical to the last pass"
                          if digest != last[a["name"]] else None)
                if reason:
                    problems.setdefault(f"pass {k}: {a['name']}", [reason])
                failed += bool(reason) or a["name"] in bad
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "check": "reference" if reference is not None else "invariants",
            "digests": last}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_ref_s(p: dict, loop: str) -> float:
    """A pass's wall time in reference seconds; the loop ran on either side."""
    measured = (p["speed_before"][loop] + p["speed_after"][loop]) / 2
    return p["wall_s"] * speed.scale(loop, measured)


def setup_ref_s(passes: list[dict]) -> float:
    """Median set-up time in reference seconds.

    Set-up is imports and validation, interpreter work, so it is scaled
    by the interpreter loop's median over the whole run.
    """
    loop = [p[side]["interpreter"] for p in passes for side in ("speed_before", "speed_after")]
    return _median([p["setup_s"] for p in passes]) * speed.scale("interpreter", _median(loop))


def end_to_end_metrics(plan: dict, passes: list[dict]) -> dict:
    timed = [p for p in passes if not p["warmup"]]
    return {"run_s": _median([run_ref_s(p, plan["speed_loop"]) for p in timed]),
            "setup_s": setup_ref_s(timed),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in timed)}


def per_layer_metrics(plan: dict, passes: list[dict]) -> dict:
    untraced = [p for p in passes if not p["warmup"] and not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {name: _median([p["layers"][name] for p in traced]) for name in traced[0]["layers"]}
    base = _median([run_ref_s(p, plan["speed_loop"]) for p in untraced])
    metrics["process.cpu_s"] = _median([p["cpu_s"] for p in untraced])
    metrics["trace.overhead_frac"] = (
        _median([run_ref_s(p, plan["speed_loop"]) for p in traced]) / base - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (details, result)."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    env = child_env()
    try:
        plan = workloads.prepare(name, seed, workdir, scale)
        passes = run_passes(plan, seconds, trace, env)
        verdict = check_run(plan, passes, load_reference(plan))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics, units = per_layer_metrics(plan, passes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(plan, passes), END_TO_END_UNITS
    result = {
        "correct": verdict["failed"] == 0 and not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    # cli only dispatches; the question is which package layer dominates.
    layer_self = {layer: metrics[f"{layer}.self_s"] for layer in tracer.LAYERS
                  if trace and layer != "cli"}
    details = {
        "workload": name,
        "seed": seed,
        "program_seed": plan["seed"],
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "facts": facts.collect(ROOT, env),
        "check": verdict["check"],
        "problems": verdict["problems"],
        "digests": verdict["digests"],
        "passes": len(passes),
        "traced": [p["traced"] for p in passes],
        "run_wall_s": _median([p["wall_s"] for p in passes if not p["warmup"]]),
        "setup_wall_s": _median([p["setup_s"] for p in passes if not p["warmup"]]),
        "wall_s": [p["wall_s"] for p in passes],
        "call_s": [p["call_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "speed_loop": plan["speed_loop"],
        "speed_loop_s": [[p["speed_before"], p["speed_after"]] for p in passes],
        "dominant_layer": max(layer_self, key=layer_self.get) if layer_self else None,
    }
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{name}-{seed}.json"), "w") as fh:
            json.dump({"columns": ["name", "layer", "start", "end", "parent"],
                       "passes": [p["spans"] for p in passes if p["traced"]]}, fh)
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polyanet", "cli.py")):
        print(f"no src/polyanet under {ROOT}: run the benchmark from a polyanet checkout",
              file=sys.stderr)
        return 2
    try:
        details, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
