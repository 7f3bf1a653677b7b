"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:

* BENCHMARK.json names exactly the workloads and metrics run.py emits;
* reference.json covers every artifact of every full-size workload;
* every workload runs at tiny sizes, traced and untraced, passes its
  checks and emits every named metric as a number;
* the reference comparison passes on untouched artifacts and fails
  when one byte of a Monte Carlo, curve or equilibrium CSV is changed,
  or when a pass leaves an artifact missing;
* run.py exits non-zero without a result in a directory that holds
  only BENCHMARK.json and the benchmark, without the package.

Exits 0 when every check passes and prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import check
import run
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_manifest() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads are workloads.NAMES")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches run.END_TO_END_UNITS")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer matches run.PER_LAYER_UNITS")


def check_reference_coverage(scratch: str) -> None:
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for name in workloads.NAMES:
        plan = workloads.prepare(name, workloads.DEFAULT_SEED, os.path.join(scratch, name))
        missing = [a["name"] for a in workloads.artifacts(plan)
                   if f"{name}/{a['name']}" not in reference]
        expect(not missing, f"reference.json covers every {name} artifact {missing or ''}")


def check_runs() -> None:
    for name in workloads.NAMES:
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            details, result = run.run_workload(name, workloads.DEFAULT_SEED, 0.5, trace,
                                               scale="tiny")
            metrics = result["metrics"]
            label = f"{name} trace={int(trace)}"
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct, nothing failed {details['problems'] or ''}")
            expect(sorted(metrics) == sorted(units)
                   and all(metrics[k]["unit"] == u for k, u in units.items())
                   and all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                           for m in metrics.values()),
                   f"{label}: every named metric emitted as a finite number")


def _value_offset(data: bytes, near: int, field: int) -> int:
    """Offset of the first significant digit of a field of the row at ``near``."""
    at = data.rfind(b"\n", 0, near) + 1
    for _ in range(field):
        at = data.index(b",", at) + 1
    while data[at:at + 1] in (b"0", b".", b"-"):
        at += 1
    return at


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(b"7" if byte != b"7" else b"3")


def check_corruption(scratch: str) -> None:
    """Build a tiny reference, then corrupt one byte at a time."""
    env = run.child_env()
    for name, targets in (("figure2", ("fig2_m2_montecarlo.csv", "fig2_m2_meanfield-nonlinear.csv")),
                          ("meanfield", ("eq_equilibrium.csv",))):
        workdir = os.path.join(scratch, f"corrupt-{name}")
        plan = workloads.prepare(name, workloads.DEFAULT_SEED, workdir, scale="tiny")
        passes = run.run_passes(plan, 0.0, False, env)
        reference = {a["name"]: check.summarize(workloads.artifact_path(plan, a), a)
                     for a in workloads.artifacts(plan)}
        verdict = run.check_run(plan, passes, reference)
        expect(verdict["failed"] == 0, f"{name}: untouched artifacts match their reference")
        for target in targets:
            path = os.path.join(plan["outdir"], target)
            with open(path, "rb") as fh:
                original = fh.read()
            # A digit of a middle row (a per-urn value at a time that is
            # not sampled) and of the last row (the final network average
            # of a curve, the spectral radius of an equilibrium).
            field = 1 if target.startswith("eq_") else 2
            size = len(original) - 1
            for offset, where in ((_value_offset(original, size // 2, field), "middle row"),
                                  (_value_offset(original, size, field), "last row")):
                _flip_byte(path, offset)
                verdict = run.check_run(plan, passes, reference)
                expect(verdict["failed"] > 0 and target in verdict["problems"],
                       f"{name}: one corrupted byte ({where}) of {target} fails the check")
                with open(path, "wb") as fh:
                    fh.write(original)
        # A pass that writes nothing: its artifacts were removed before it ran.
        target = targets[0]
        os.remove(os.path.join(plan["outdir"], target))
        silent = dict(passes[-1], digests=dict(passes[-1]["digests"], **{target: None}))
        verdict = run.check_run(plan, [*passes, silent], reference)
        expect(verdict["problems"].get(target) == ["artifact missing"]
               and verdict["failed"] >= len(passes) + 1,
               f"{name}: a pass that leaves {target} missing fails the check")


def check_bare_directory(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package, run.py exits non-zero and prints no result")


def main() -> int:
    scratch = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        check_manifest()
        check_reference_coverage(scratch)
        check_corruption(scratch)
        check_bare_directory(scratch)
        check_runs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
