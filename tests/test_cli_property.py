"""Properties of the CLI.

``cli.main`` on an argv drawn from the subcommands, with small JSON-like
configs (N <= 4, t_max <= 5, replicates <= 3), returns 0, 2, 3 or 4 and
never raises, also when argparse refuses an option value (``--t-min x1``).
Every number drawn is small, so no draw can ask for a large allocation.

A ``--out`` or ``--seed`` value is checked like the config entry it
replaces: it exits as the same value written into the file does.
"""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyanet import cli, experiment

SMALL_INT = st.integers(-2, 6)
THREADS = st.integers(0, 3)
JUNK = st.recursive(
    st.none() | st.booleans() | SMALL_INT | st.text(max_size=3)
    | st.sampled_from([0.5, 2.5, -1.0, math.nan, math.inf]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "nodes", "x"]), inner, max_size=2),
    max_leaves=5,
)
KINDS = ["ring", "complete", "identity", "barabasi-albert", "matrix"]


@st.composite
def configs(draw, prefix):
    n = draw(st.integers(1, 4))
    counts = st.lists(st.integers(0, 30), min_size=n, max_size=n)
    total = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    kind = draw(st.sampled_from(KINDS))
    network = {"kind": kind, "nodes": n}
    if kind in ("barabasi-albert", "complete"):
        network["self_weight"] = draw(st.sampled_from([0.0, 1.0, 2.5]))
    if kind == "barabasi-albert":
        network.update(seed=draw(SMALL_INT), attach=draw(st.integers(1, max(1, n - 1))))
    if kind == "matrix":
        rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        normalize = draw(st.booleans())
        if not normalize:
            rows = [[v / (sum(row) or 1) for v in row] for row in rows]
        network = {"kind": kind, "normalize": normalize, "values": rows}
    data = {
        "schema_version": 1,
        "network": network,
        "memory": draw(st.integers(1, 3)),
        "initial_red": [draw(st.integers(0, t)) for t in total],
        "initial_total": total,
        "reinforce_red": draw(counts),
        "reinforce_black": draw(counts),
        "modes": draw(st.lists(st.sampled_from(list(experiment.ROUTES)), min_size=1, max_size=3,
                               unique=True)),
        "t_max": draw(st.integers(1, 5)),
        "replicates": draw(st.integers(1, 3)),
        "master_seed": draw(SMALL_INT),
        "threads": draw(st.integers(1, 3)),
        "out_prefix": prefix,
    }
    if draw(st.integers(0, 2)) == 2:
        data[draw(st.sampled_from(sorted(set(data) - {"out_prefix"})))] = draw(JUNK)
    return data


CURVE_LINES = st.sampled_from([
    "time,urn,value", "t,u,v", "", "1,avg,0.5", "2,avg,0.25", "1,0,0.3",
    "1.5,avg,0.3", "1,avg,nan", "x,avg,1", "3,avg",
])
VALUES = st.sampled_from(["0.125", "0.5", "1e-300"])
CURVES = st.lists(CURVE_LINES, max_size=4) | st.tuples(VALUES, VALUES).map(
    lambda v: ["time,urn,value", f"1,avg,{v[0]}", "1,0,0.5", f"2,avg,{v[1]}"])


@st.composite
def calls(draw, root):
    """An argv list, after writing any files it names under ``root``."""
    command = draw(st.sampled_from(["gen-network", "simulate", "exact", "meanfield",
                                    "equilibrium", "compare", "reproduce-fig"]))
    out = os.path.join(root, "out")
    if command == "gen-network":
        argv = [command, "--kind", draw(st.sampled_from(KINDS[:4])),
                "--nodes", str(draw(st.integers(0, 6))), "--out", out]
        # each kind refuses the options it does not read, so each is drawn
        if draw(st.booleans()):
            argv += ["--seed", str(draw(SMALL_INT))]
        if draw(st.booleans()):
            argv += ["--self-weight", draw(st.sampled_from(["0", "1", "2.5", "1", "-1", "nan"]))]
        if draw(st.booleans()):
            argv += ["--attach", str(draw(st.integers(0, 3)))]
        return argv
    if command == "compare":
        argv = [command]
        for name in "ab":
            path = os.path.join(root, f"{name}.csv")
            lines = draw(CURVES)
            if draw(st.integers(0, 9)) < 9:
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
            argv.append(path)
        if draw(st.booleans()):
            argv += ["--t-min", draw(st.sampled_from(["0", "1", "3", str(10**9), "-5", "x1"]))]
        return argv
    if command == "reproduce-fig":
        return [command, draw(st.sampled_from(["1", "2", "3"])), "--out", out,
                "--t-max", str(draw(st.integers(0, 5))),
                "--replicates", str(draw(st.integers(0, 3))),
                "--seed", str(draw(st.integers(-1, 6))), "--threads", str(draw(THREADS))]
    path = os.path.join(root, "config.json")
    if draw(st.integers(0, 4)) < 4:
        text = json.dumps(draw(configs(out)))
    else:
        text = draw(JUNK.map(json.dumps) | st.sampled_from(["", "{", "not json"]))
    if draw(st.integers(0, 9)) < 9:
        with open(path, "w") as fh:
            fh.write(text)
    argv = [command, "--config", path]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(SMALL_INT))]
    if draw(st.booleans()):
        argv += ["--threads", str(draw(THREADS))]
    if command == "meanfield" and draw(st.booleans()):
        argv += ["--system", draw(st.sampled_from(["nonlinear", "linear", "both"]))]
    return argv


@given(data=st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_main_returns_an_exit_code(data):
    with tempfile.TemporaryDirectory() as root:
        argv = data.draw(calls(root), label="argv")
        assert cli.main(argv) in (0, 2, 3, 4)


def _is_int_text(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# An integer is the same value as flag text and as a JSON number; other
# text is refused by argparse and by the entry's rule alike.
INT_OR_TEXT = st.integers() | st.text(max_size=4).filter(lambda s: not _is_int_text(s))
# No "/" or NUL, so every prefix names files in the run's own directory.
PREFIX = st.text(alphabet="ab.-_ %", max_size=6)
FLAG_ENTRIES = {"--out": ("out_prefix", PREFIX), "--seed": ("master_seed", INT_OR_TEXT)}
RUN_CONFIG = {
    "schema_version": 1, "network": {"kind": "identity", "nodes": 2}, "memory": 1,
    "initial_red": [3, 9], "initial_total": 25, "reinforce_red": 11, "reinforce_black": 7,
    "modes": ["montecarlo"], "t_max": 3, "replicates": 2, "master_seed": 1, "out_prefix": "run",
}


def _simulate(root, name, config, flags):
    """``simulate`` run in the fresh directory ``root/name``: exit code and
    the names of the files it wrote."""
    path, cwd = os.path.join(root, f"{name}.json"), os.path.join(root, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    os.mkdir(cwd)
    old = os.getcwd()
    os.chdir(cwd)
    try:
        code = cli.main(["simulate", "--config", path, *flags])
    finally:
        os.chdir(old)
    return code, sorted(os.listdir(cwd))


@given(flag=st.sampled_from(sorted(FLAG_ENTRIES)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_override_exits_like_its_entry(flag, data):
    entry, values = FLAG_ENTRIES[flag]
    value = data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as root:
        by_flag = _simulate(root, "flag", RUN_CONFIG, [f"{flag}={value}"])
        by_file = _simulate(root, "file", dict(RUN_CONFIG, **{entry: value}), [])
    assert by_flag[0] == by_file[0] in (0, 2)
    assert by_flag[1] == by_file[1]
    if by_flag[0] == 2:
        assert by_flag[1] == []
