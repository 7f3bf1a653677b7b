"""Command-line interface.

Subcommands: gen-network, simulate, exact, meanfield, equilibrium,
compare, reproduce-fig.  Exit codes: 0 success, 2 configuration error
or an output file that cannot be created, 3 numerical failure, 4
exact-chain work cap or machine memory exceeded.  The run subcommands
share one handler, :func:`_cmd_run`; artifacts are written through
``csvio.open_artifact``, JSON through ``csvio.write_json``.  A config and
an argv fix every byte; the retired ``--threads`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment, networks
from .csvio import write_json
from .errors import CapExceededError, ConfigError, ConvergenceError, UnstableSystemError

OUT_DASH_HELP = "write a value that begins with '-' as --out=VALUE"


def _cmd_run(args) -> int:
    overrides = {"modes": args.modes or [f"meanfield-{system}" for system in ("nonlinear", "linear")
                                         if args.system in (system, "both")]}
    for name, value in (("master_seed", args.seed), ("out_prefix", args.out)):
        if value is not None:
            overrides[name] = value
    cfg = experiment.load_config(args.config, overrides)
    summary = experiment.run(cfg)
    for mode, path in summary["artifacts"].items():
        print(f"{mode}: {path}")
    print(f"summary: {summary['summary_path']}")
    if "equilibrium" in cfg.modes:
        radius = summary["spectral_radius"]
        if summary["equilibrium_declined"]:
            print("spectral radius %.17g >= 1; equilibrium declined" % radius)
            return 3
        print("spectral radius %.17g" % radius)
    return 0


def _cmd_gen_network(args) -> int:
    out = experiment._check_setting("out_prefix", args.out)
    if args.kind == "barabasi-albert" and args.attach is None:
        raise ConfigError("attach", "--attach is required for barabasi-albert")
    # only the options given, so that the kind refuses those it does not read
    given = {"nodes": args.nodes, "attach": args.attach, "seed": args.seed,
             "self_weight": args.self_weight}
    flags = {k: "--" + k.replace("_", "-") for k in given}
    given = {k: v for k, v in given.items() if v is not None}
    reads = experiment.NETWORK_KINDS[args.kind]
    for name in given:
        if name not in reads:  # named by its flag, not by its config entry
            raise ConfigError("network", f"unknown option {flags[name]} for kind {args.kind!r}; "
                                         f"options: {tuple(flags[k] for k in reads)}")
    S = experiment.resolve_network({"kind": args.kind, **given})
    if args.kind in ("barabasi-albert", "complete"):
        networks.save_edge_list(S > 0, f"{out}_edges.csv")
    networks.save_matrix(S, f"{out}_matrix.csv")
    print(f"matrix: {out}_matrix.csv")
    return 0


def _cmd_compare(args) -> int:
    report = experiment.compare_curves(args.curve_a, args.curve_b, args.t_min)
    print(f"points: {report.n_points}")
    print("linf: %.17g" % report.linf)
    print("l1_mean: %.17g" % report.l1_mean)
    print("final_abs_diff: %.17g" % report.final_abs_diff)
    return 0


def _cmd_reproduce(args) -> int:
    configs = experiment.figure_configs(args.figure, args.out, seed=args.seed, t_max=args.t_max,
                                        replicates=args.replicates)
    for cfg in configs:
        write_json(f"{cfg.out_prefix}_config.json", experiment.config_to_dict(cfg))
        summary = experiment.run(cfg)
        print(f"memory {cfg.raw.memory}: {summary['summary_path']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An option given as ``--name=--`` takes the text ``--``, which
    argparse before Python 3.13 drops, passing an empty list instead."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyanet",
        description=(
            "Finite-memory interacting Polya urn networks: simulation, exact "
            "chain analysis and mean-field approximation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-network", help="generate an interaction matrix")
    g.add_argument("--kind", required=True,
                   choices=["barabasi-albert", "ring", "complete", "identity"])
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--attach", type=int, default=None,
                   help="edges per new node (barabasi-albert)")
    g.add_argument("--seed", type=int, help="generator seed (barabasi-albert; default 0)")
    g.add_argument("--self-weight", type=float, dest="self_weight",
                   help="diagonal weight (barabasi-albert, complete; default 1.0)")
    g.add_argument("--out", required=True, help=f"output path prefix; {OUT_DASH_HELP}")
    g.set_defaults(func=_cmd_gen_network)

    for name, modes, helptext in (
        ("simulate", ["montecarlo"], "Monte Carlo replicate averages"),
        ("exact", ["exact"], "exact chain transient marginals"),
        ("meanfield", None, "mean-field trajectories"),
        ("equilibrium", ["equilibrium"], "mean-field equilibrium report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None,
                       help=f"override the artifact prefix; {OUT_DASH_HELP}")
        # retired and ignored, still accepted since perfbench/workloads.py passes --threads 1
        p.add_argument("--threads", help=argparse.SUPPRESS)
        if modes is None:
            p.add_argument("--system", choices=["nonlinear", "linear", "both"], default="both")
        p.set_defaults(func=_cmd_run, modes=modes)

    c = sub.add_parser("compare", help="distances between two curve CSVs")
    c.add_argument("curve_a")
    c.add_argument("curve_b")
    c.add_argument("--t-min", type=int, default=1, dest="t_min",
                   help="compare only the times >= T_MIN (default 1, every time)")
    c.set_defaults(func=_cmd_compare)

    r = sub.add_parser(
        "reproduce-fig",
        help="rerun a figure family (memory 1..3) with documented parameters",
    )
    r.add_argument("figure", choices=["1", "2", "3"])
    r.add_argument("--out", required=True, help=f"artifact prefix; {OUT_DASH_HELP}")
    r.add_argument("--seed", type=int, default=experiment.FIGURE_SEED)
    r.add_argument("--t-max", type=int, default=1000, dest="t_max")
    r.add_argument("--replicates", type=int, default=100)
    r.add_argument("--threads", help=argparse.SUPPRESS)  # ignored; workloads.py passes it here too
    r.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # csvio.open_artifact could not create an output file
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, UnstableSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
