"""Outside-in layer tracing for the benchmark's traced run.

Nothing in the package is edited: :func:`install` replaces public
functions of the ``polyanet`` modules with timing wrappers, in every
module that holds a reference to them (``meanfield.red_ratio_table`` is
the same object as ``params.red_ratio_table``), and restores the
originals on exit.  A function or module that no longer exists is
skipped, and its metrics then read 0.

Calls that happen once per step (``hot``) are only aggregated into a
call count and a total; the rest also record a span (name, layer,
start, end, parent).  Every call adds its duration to the enclosing
call's child time, so a layer's self time excludes the layers it
calls, hot ones included.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("montecarlo", "meanfield", "chain", "csvio", "params", "networks",
          "experiment", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.calls: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.layers: dict[str, str] = {}  # name -> layer
        self.counts = defaultdict(float)
        self.written: set[str] = set()
        self._stack: list[list] = []  # open calls: [child s, span index or None]

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, agg in self.calls.items():
            out[self.layers[name]] += agg[2]
        return out

    def wrap(self, fn, name: str, layer: str, hot: bool = False, hook=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        agg = self.calls.setdefault(name, [0, 0.0, 0.0])
        self.layers[name] = layer
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if not hot:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append([name, layer, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if frame[1] is not None:
                    spans[frame[1]][2:4] = (start, start + duration)
                if hook:
                    hook(self, signature.bind(*args, **kwargs).arguments, duration - frame[0])

        return traced


# -- hooks: counters measured where the work happens -------------------------


def _replicate_steps(tracer, a, own):
    tracer.counts["montecarlo.replicate_steps"] += a["replicates"] * a["t_max"]


def _written(tracer, a, own):
    if "path" in a:
        tracer.written.add(os.path.abspath(a["path"]))


def _iterate(tracer, a, own):
    if a["kind"] == "linear":
        # Self time of a linear iterate is its J @ x + C loop.
        tracer.counts["meanfield.linear.steps"] += max(0, a["t_max"] - a["params"].memory + 1)
        tracer.counts["meanfield.linear.s"] += own


def _apply(tracer, a, own):
    kernel = a["self"]
    tracer.counts["chain.successor_evals"] += kernel.n_states << kernel.n_urns


# (module, attribute, layer, hot, hook).  The span name is
# "<module>.<attribute>", except that the save functions are named for
# the csvio layer they reach.
INSTRUMENTS = (
    ("experiment", "config_from_dict", "experiment", False, None),
    ("experiment", "run", "experiment", False, None),
    ("networks", "barabasi_albert", "networks", False, None),
    ("montecarlo", "average_replicates", "montecarlo", False, _replicate_steps),
    ("meanfield", "iterate", "meanfield", False, _iterate),
    ("meanfield", "step_nonlinear", "meanfield", True, None),
    ("meanfield", "build_linear_system", "meanfield", False, None),
    ("meanfield", "spectral_radius", "meanfield", False, None),
    ("meanfield", "equilibrium", "meanfield", False, None),
    ("chain", "build_kernel", "chain", False, None),
    ("chain", "TransitionKernel.apply", "chain", False, _apply),
    ("chain", "marginal_infection", "chain", True, None),
    ("params", "clamp_probability", "params", True, None),
    ("params", "red_ratio_table", "params", True, None),
    ("params", "check_interaction_matrix", "params", True, None),
    ("montecarlo", "save_summary_csv", "csvio", False, _written),
    ("meanfield", "save_trajectory_csv", "csvio", False, _written),
    ("meanfield", "save_equilibrium_csv", "csvio", False, _written),
    ("csvio", "write_csv", "csvio", False, _written),
)


def _span_name(module: str, attr: str, layer: str) -> str:
    if layer == "csvio" and module != "csvio":
        return f"csvio.{attr}"
    return f"{module}.{attr}"


@contextlib.contextmanager
def install(tracer: Tracer):
    """Swap every instrumented function for its traced wrapper.

    Only modules already imported are touched, so import the CLI first.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "polyanet" or name.startswith("polyanet.")]
    undo = []
    try:
        for module, attr, layer, hot, hook in INSTRUMENTS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = sys.modules.get(f"polyanet.{module}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(original, _span_name(module, attr, layer), layer, hot, hook)
            owners = [owner] if owner_name else [
                m for m in modules if getattr(m, fn_name, None) is original
            ]
            for target in owners:
                setattr(target, fn_name, wrapper)
                undo.append((target, fn_name, original))
        yield tracer
    finally:
        for target, fn_name, original in reversed(undo):
            setattr(target, fn_name, original)


def count_rows_bytes(paths) -> tuple[int, int]:
    """Data rows (lines minus the header) and bytes of the written CSVs."""
    rows = size = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        rows += max(0, data.count(b"\n") - 1)
        size += len(data)
    return rows, size


def pass_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass lasting ``wall`` seconds."""
    calls, counts, layer_self = tracer.calls, tracer.counts, tracer.layer_self()

    def n(name):
        return calls.get(name, [0])[0]

    def total(name):
        return calls.get(name, [0, 0.0])[1]

    def own(name):
        return calls.get(name, [0, 0.0, 0.0])[2]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rows, size = count_rows_bytes(sorted(tracer.written))
    steps = counts["montecarlo.replicate_steps"]
    cli_covered = total("cli.main") - own("cli.main")
    out = {
        "montecarlo.replicate_steps": steps,
        "montecarlo.us_per_replicate_step":
            per(total("montecarlo.average_replicates"), steps, 1e6),
        "params.clamp_probability.calls": n("params.clamp_probability"),
        "params.clamp_probability.s": total("params.clamp_probability"),
        "csvio.rows": rows,
        "csvio.bytes": size,
        "csvio.us_per_row": per(layer_self["csvio"], rows, 1e6),
        "meanfield.step_nonlinear.calls": n("meanfield.step_nonlinear"),
        "meanfield.step_nonlinear.us":
            per(total("meanfield.step_nonlinear"), n("meanfield.step_nonlinear"), 1e6),
        "meanfield.linear.us_per_step":
            per(counts["meanfield.linear.s"], counts["meanfield.linear.steps"], 1e6),
        "params.red_ratio_table.calls": n("params.red_ratio_table"),
        "params.check_interaction_matrix.calls": n("params.check_interaction_matrix"),
        "meanfield.build_linear_system.s": total("meanfield.build_linear_system"),
        "meanfield.spectral_radius.s": total("meanfield.spectral_radius"),
        "meanfield.equilibrium.self_s": own("meanfield.equilibrium"),
        "chain.build_kernel.s": total("chain.build_kernel"),
        "chain.apply.calls": n("chain.TransitionKernel.apply"),
        "chain.apply.ms":
            per(total("chain.TransitionKernel.apply"), n("chain.TransitionKernel.apply"), 1e3),
        "chain.successor_evals_per_s":
            per(counts["chain.successor_evals"], total("chain.TransitionKernel.apply")),
        "chain.marginal_infection.calls": n("chain.marginal_infection"),
        "chain.marginal_infection.us":
            per(total("chain.marginal_infection"), n("chain.marginal_infection"), 1e6),
        "networks.barabasi_albert.s": total("networks.barabasi_albert"),
        "experiment.config_from_dict.s": total("experiment.config_from_dict"),
        "experiment.run.self_s": own("experiment.run"),
        "trace.coverage": per(cli_covered, wall),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
