"""Write reference.json: the default-seed artifacts of every workload.

    python3 perfbench/make_reference.py

Runs each workload's CLI calls once at ``workloads.DEFAULT_SEED`` and
the full sizes, and stores per artifact its SHA-256 plus the values
check.compare needs (network averages, per-urn values at sampled
times, equilibrium values).  Regenerate only when a change is meant to
alter the artifacts, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import check
import facts
import run
import workloads


def main() -> int:
    env = run.child_env()
    env["PYTHONPATH"] = os.path.join(run.ROOT, "src")
    out = {"seed": workloads.DEFAULT_SEED, "tolerance": check.TOLERANCE,
           "source_sha256": facts.source_digest(run.ROOT)}
    for name in workloads.NAMES:
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"reference-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        plan = workloads.prepare(name, workloads.DEFAULT_SEED, workdir)
        try:
            for call in plan["calls"]:
                subprocess.run([sys.executable, "-m", "polyanet.cli", *call["argv"]],
                               env=env, cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
            for a in workloads.artifacts(plan):
                out[f"{name}/{a['name']}"] = check.summarize(workloads.artifact_path(plan, a), a)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    # One entry per line keeps the file reviewable without bloating it.
    entries = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in out.items()]
    with open(run.REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
