"""Experiment configs, run driver, curve comparison and the CLI."""

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyanet import chain, cli, experiment, meanfield
from polyanet.csvio import write_curve_csv
from polyanet.errors import CapExceededError, ConfigError
from polyanet.experiment import (
    FIGURE_SEED,
    _check_setting,
    compare_curves,
    config_from_dict,
    config_to_dict,
    figure_configs,
    figure_setup,
    load_config,
    read_curve,
    resolve_network,
    run,
)
from polyanet.networks import barabasi_albert, complete, ring, row_normalize, save_matrix


def base_config(tmp_path, **overrides):
    data = {
        "schema_version": 1,
        "network": {"kind": "matrix", "values": [[0.5, 0.5], [0.25, 0.75]]},
        "memory": 1,
        "initial_red": [5, 12],
        "initial_total": [25, 25],
        "reinforce_red": [11, 8],
        "reinforce_black": [11, 9],
        "modes": ["montecarlo", "exact", "meanfield-nonlinear",
                  "meanfield-linear", "equilibrium"],
        "t_max": 30,
        "replicates": 5,
        "master_seed": 99,
        "out_prefix": str(tmp_path / "run"),
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_happy_path(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        assert cfg.raw.n_urns == 2
        assert cfg.t_max == 30
        assert cfg.replicates == 5
        assert cfg.master_seed == 99

    def test_schema_version_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict(base_config(tmp_path, schema_version=2))

    def test_missing_key_reported_by_name(self, tmp_path):
        data = base_config(tmp_path)
        del data["reinforce_black"]
        with pytest.raises(ConfigError, match="reinforce_black"):
            config_from_dict(data)

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="modes"):
            config_from_dict(base_config(tmp_path, modes=["exact", "psychic"]))

    def test_empty_modes(self, tmp_path):
        with pytest.raises(ConfigError, match="modes"):
            config_from_dict(base_config(tmp_path, modes=[]))

    def test_repeated_mode(self, tmp_path):
        modes = ["meanfield-nonlinear", "exact", "meanfield-nonlinear"]
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, modes=modes))
        assert info.value.field == "modes"

    @pytest.mark.parametrize("value", [None, 5, ["a"], ""])
    def test_out_prefix_must_be_nonempty_text(self, tmp_path, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, out_prefix=value))
        assert info.value.field == "out_prefix"

    def test_bad_t_max(self, tmp_path):
        with pytest.raises(ConfigError, match="t_max"):
            config_from_dict(base_config(tmp_path, t_max=0))

    def test_bad_replicates(self, tmp_path):
        with pytest.raises(ConfigError, match="replicates"):
            config_from_dict(base_config(tmp_path, replicates=0))

    def test_zero_reinforcement_everywhere(self, tmp_path):
        with pytest.raises(ConfigError, match="reinforce"):
            config_from_dict(
                base_config(tmp_path, reinforce_red=[0, 0], reinforce_black=[0, 0])
            )

    def test_urn_validation_wrapped(self, tmp_path):
        with pytest.raises(ConfigError, match="urns"):
            config_from_dict(base_config(tmp_path, initial_red=[30, 5]))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"\xff{",  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the decoder recurses
    ], ids=["syntax", "not-utf8", "deep"])
    def test_load_config_bad_json(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="invalid JSON") as info:
            load_config(str(path))
        assert info.value.field == "config"

    @pytest.mark.parametrize(
        "field, value",
        [("t_max", "abc"), ("t_max", 2.5), ("replicates", None),
         ("master_seed", [1]), ("memory", "2"), ("t_max", " 7 "), ("master_seed", "-5"),
         ("exact_cap_bits", "30")],
    )
    def test_malformed_integer_reported_by_name(self, tmp_path, field, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, **{field: value}))
        assert info.value.field == field

    def test_fractional_memory_reported_as_memory(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, memory=2.5))
        assert info.value.field == "memory"

    def test_round_trip_through_dict(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        again = config_from_dict(config_to_dict(cfg))
        assert again.raw.memory == cfg.raw.memory
        assert np.array_equal(again.raw.interaction, cfg.raw.interaction)
        assert again.modes == cfg.modes
        assert again.master_seed == cfg.master_seed


class TestNetworkResolution:
    def test_ring(self):
        S = resolve_network({"kind": "ring", "nodes": 4})
        assert np.array_equal(S, ring(4))

    def test_identity(self):
        S = resolve_network({"kind": "identity", "nodes": 3})
        assert np.array_equal(S, np.eye(3))

    def test_complete_with_self_weight(self):
        S = resolve_network({"kind": "complete", "nodes": 3, "self_weight": 1.0})
        assert np.allclose(S, np.full((3, 3), 1.0 / 3.0))

    def test_barabasi_albert_deterministic(self):
        spec = {"kind": "barabasi-albert", "nodes": 12, "attach": 2, "seed": 4}
        assert np.array_equal(resolve_network(spec), resolve_network(spec))

    @pytest.mark.parametrize("kind", ["barabasi-albert", "complete"])
    def test_built_network_is_normalized_in_place(self, kind):
        # the freshly built adjacency becomes S: no second N x N array
        spec = {"kind": kind, "nodes": 1000, "self_weight": 0.5}
        if kind == "barabasi-albert":
            spec.update(attach=2, seed=3)
        tracemalloc.start()
        try:
            S = resolve_network(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * S.nbytes
        adj = barabasi_albert(1000, 2, 3) if kind == "barabasi-albert" else complete(1000)
        assert np.array_equal(S, row_normalize(adj, 0.5))

    def test_matrix_literal(self):
        S = resolve_network({"kind": "matrix", "values": [[1.0]]})
        assert S.shape == (1, 1)

    def test_matrix_normalize_flag(self):
        S = resolve_network(
            {"kind": "matrix", "values": [[2.0, 2.0], [1.0, 3.0]], "normalize": True}
        )
        assert np.allclose(S, [[0.5, 0.5], [0.25, 0.75]])

    def test_matrix_file_relative_to_config(self, tmp_path):
        save_matrix(np.eye(2), str(tmp_path / "S.csv"))
        S = resolve_network(
            {"kind": "matrix-file", "path": "S.csv"}, base_dir=str(tmp_path)
        )
        assert np.array_equal(S, np.eye(2))

    @pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_empty_matrix_file_exits_2_with_one_message(self, tmp_path, capsys, content):
        # under warnings as errors too: NumPy's warning on an empty file
        # would otherwise end the run in a traceback
        (tmp_path / "S.csv").write_text(content)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path / "out", network={"kind": "matrix-file", "path": "S.csv"})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: network: {tmp_path / 'S.csv'} holds no matrix rows\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["S.csv", "config.json"]

    @pytest.mark.parametrize("network, message", [
        ({"kind": "barabasi-albert", "nodes": 5, "attach": 2, "self_weight": "INF"},
         "row 0 has inf total weight"),
        ({"kind": "matrix", "normalize": True, "values": [[1e308, 1e308], [1, 1]]},
         "row 0 has inf total weight"),
        ({"kind": "matrix", "values": [[1e308, 1e308], [0.5, 0.5]]}, "row 0 sums to inf"),
        ({"kind": "matrix-file", "path": "S.csv"}, "row 0 sums to inf"),
    ], ids=["self-weight-1e309", "normalize", "matrix", "matrix-file"])
    def test_weights_past_the_floats_exit_2_with_one_message(self, tmp_path, capsys,
                                                             network, message):
        # JSON reads 1e309 as infinity; a row of two 1e308 sums past the floats
        (tmp_path / "S.csv").write_text("1e308,1e308\n0.5,0.5\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path / "out", network=network))
                        .replace('"INF"', "1e309"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: network: ") and message in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["S.csv", "config.json"]

    def test_gen_network_infinite_self_weight_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["gen-network", "--kind", "complete", "--nodes", "4",
                             "--self-weight", "inf", "--out", "g"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: network: row 0 has inf total weight; cannot normalize\n")
        assert not list(tmp_path.iterdir())

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve_network({"kind": "torus", "nodes": 3})

    def test_missing_entry(self):
        with pytest.raises(ConfigError, match="missing entry"):
            resolve_network({"kind": "matrix"})

    def test_not_a_dict(self):
        with pytest.raises(ConfigError, match="network"):
            resolve_network("ring")

    def test_invalid_matrix_values(self):
        with pytest.raises(ConfigError):
            resolve_network({"kind": "matrix", "values": [[0.9, 0.3], [0.5, 0.5]]})

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "barabasi-albert", "nodes": 6, "atach": 3, "seed": 9}, "atach"),
        ({"kind": "barabasi-albert", "nodes": 6, "attach": 3, "seeed": 9}, "seeed"),
        ({"kind": "ring", "nodes": 4, "seed": 1}, "seed"),
        ({"kind": "identity", "nodes": 4, "self_weight": 1.0}, "self_weight"),
        ({"kind": "complete", "nodes": 4, "attach": 2}, "attach"),
        ({"kind": "matrix", "values": [[1.0]], "nodes": 1}, "nodes"),
        ({"kind": "matrix-file", "path": "S.csv", "normalize": True}, "normalize"),
    ])
    def test_entry_its_kind_does_not_read(self, spec, key):
        with pytest.raises(ConfigError, match=f"unknown entry '{key}'") as info:
            resolve_network(spec)
        assert info.value.field == "network"

    def test_misspelled_entry_exits_2(self, tmp_path, capsys):
        # six urns, so the config is valid but for the network's typos
        network = {"kind": "barabasi-albert", "nodes": 6, "atach": 3, "seeed": 9}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, network=network, initial_red=5, initial_total=25, reinforce_red=11,
            reinforce_black=9, modes=["montecarlo"])))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: network: unknown entry 'atach'")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestRun:
    def test_all_modes_produce_artifacts(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        summary = run(cfg)
        for mode in cfg.modes:
            path = summary["artifacts"][mode]
            assert path.endswith(f"_{mode}.csv")
            assert (tmp_path / path.split("/")[-1]).exists()
        assert summary["equilibrium"] is not None
        assert 0.0 < summary["spectral_radius"] < 1.0
        assert not summary["equilibrium_declined"]
        with open(summary["summary_path"]) as fh:
            echoed = json.load(fh)
        assert echoed["config"]["master_seed"] == 99
        # every produced pair of curves is compared on the common horizon
        assert "exact|montecarlo" in summary["comparisons"]
        assert all(v >= 0 for v in summary["comparisons"].values())

    def test_curve_files_share_layout(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run(cfg)
        t_mc, v_mc = read_curve(str(tmp_path / "run_montecarlo.csv"))
        t_ex, v_ex = read_curve(str(tmp_path / "run_exact.csv"))
        assert np.array_equal(t_mc, np.arange(1, 31))
        assert np.array_equal(t_mc, t_ex)
        assert np.all((v_mc >= 0) & (v_mc <= 1))
        assert np.all((v_ex >= 0) & (v_ex <= 1))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        first = run(cfg)
        blobs = {}
        for path in list(first["artifacts"].values()) + [first["summary_path"]]:
            with open(path, "rb") as fh:
                blobs[path] = fh.read()
        second = run(cfg)
        for path, blob in blobs.items():
            with open(path, "rb") as fh:
                assert fh.read() == blob, path

    def test_equilibrium_declined(self, tmp_path):
        data = base_config(
            tmp_path,
            network={"kind": "identity", "nodes": 1},
            memory=2,
            initial_red=[1],
            initial_total=[100],
            reinforce_red=[9900],
            reinforce_black=[0],
            modes=["equilibrium"],
        )
        summary = run(config_from_dict(data))
        assert summary["equilibrium_declined"]
        assert summary["equilibrium"] is None
        assert summary["spectral_radius"] > 1.0
        text = (tmp_path / "run_equilibrium.csv").read_text()
        assert "spectral_radius" in text

    def test_settled_exact_curve_is_every_steps_curve(self, tmp_path, monkeypatch):
        # A 3-urn ring at memory 3 returns its distribution bit for bit from
        # step 155 on, so the chunk that ends at step 192 is the last one
        # stepped; with one chunk of t_max steps every step is taken.
        data = base_config(tmp_path, network={"kind": "ring", "nodes": 3}, memory=3,
                           initial_red=[5, 12, 7], initial_total=[25] * 3,
                           reinforce_red=[11, 8, 9], reinforce_black=[11, 9, 12],
                           modes=["exact"], t_max=300)
        applies, apply = [], chain.TransitionKernel.apply
        monkeypatch.setattr(chain.TransitionKernel, "apply",
                            lambda self, mu, out=None: applies.append(1) or apply(self, mu, out))
        run(config_from_dict(data))
        settled = (tmp_path / "run_exact.csv").read_bytes()
        assert len(applies) == 192
        monkeypatch.setattr(meanfield, "_CHECK_ROWS", 300)
        run(config_from_dict(data))
        assert len(applies) == 192 + 300
        assert (tmp_path / "run_exact.csv").read_bytes() == settled

    def test_exact_cap_exceeded(self, tmp_path):
        data = base_config(
            tmp_path,
            network={"kind": "identity", "nodes": 1},
            memory=30,
            initial_red=[5],
            initial_total=[25],
            reinforce_red=[11],
            reinforce_black=[11],
            modes=["exact"],
            t_max=3,
        )
        with pytest.raises(CapExceededError):
            run(config_from_dict(data))


class TestCompare:
    def test_identical_curves(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path, modes=["meanfield-nonlinear"]))
        run(cfg)
        path = str(tmp_path / "run_meanfield-nonlinear.csv")
        report = compare_curves(path, path)
        assert report.linf == 0.0
        assert report.l1_mean == 0.0
        assert report.final_abs_diff == 0.0
        assert report.n_points == 30

    def test_distance_between_modes(self, tmp_path):
        cfg = config_from_dict(
            base_config(tmp_path, modes=["exact", "meanfield-nonlinear"])
        )
        summary = run(cfg)
        report = compare_curves(
            str(tmp_path / "run_exact.csv"),
            str(tmp_path / "run_meanfield-nonlinear.csv"),
        )
        assert report.linf == pytest.approx(
            summary["comparisons"]["exact|meanfield-nonlinear"], abs=1e-15
        )
        assert report.l1_mean <= report.linf

    def test_grid_mismatch_rejected(self, tmp_path):
        a = config_from_dict(base_config(tmp_path, modes=["meanfield-linear"], t_max=10,
                                         out_prefix=str(tmp_path / "a")))
        b = config_from_dict(base_config(tmp_path, modes=["meanfield-linear"], t_max=12,
                                         out_prefix=str(tmp_path / "b")))
        run(a)
        run(b)
        with pytest.raises(ConfigError, match="grids"):
            compare_curves(
                str(tmp_path / "a_meanfield-linear.csv"),
                str(tmp_path / "b_meanfield-linear.csv"),
            )

    def test_read_curve_rejects_non_curve(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("state,probability\n0,1.0\n")
        with pytest.raises(ConfigError):
            read_curve(str(path))

    def test_read_curve_requires_avg_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("time,urn,p,system\n1,0,0.5,exact\n")
        with pytest.raises(ConfigError, match="average"):
            read_curve(str(path))


class TestFigureSetups:
    def test_parameter_ranges(self):
        one = figure_setup("1")
        assert len(one["initial_red"]) == 100
        assert all(1 <= r <= 10 for r in one["initial_red"])
        assert all(30 <= d <= 50 for d in one["reinforce_red"])
        assert all(15 <= d <= 30 for d in one["reinforce_black"])
        two = figure_setup("2")
        assert len(two["initial_red"]) == 10
        assert all(2 <= r <= 9 for r in two["initial_red"])
        assert all(20 <= d <= 28 for d in two["reinforce_red"])
        assert all(20 <= d <= 29 for d in two["reinforce_black"])
        three = figure_setup("3")
        assert set(three["initial_red"]) == {12}
        assert set(three["reinforce_red"]) == set(three["reinforce_black"]) == {11}
        assert set(three["initial_total"]) == {25}

    def test_deterministic(self):
        assert figure_setup("2", seed=5) == figure_setup("2", seed=5)
        assert figure_setup("2", seed=5) != figure_setup("2", seed=6)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            figure_setup("4")

    def test_configs_cover_memories(self, tmp_path):
        cfgs = figure_configs("3", str(tmp_path / "f3"), seed=7, t_max=50,
                              replicates=2)
        assert [c.raw.memory for c in cfgs] == [1, 2, 3]
        assert [c.master_seed for c in cfgs] == [71, 72, 73]
        assert cfgs[0].out_prefix.endswith("_m1")
        assert cfgs[1].modes == ["montecarlo", "meanfield-nonlinear",
                                 "meanfield-linear"]
        assert FIGURE_SEED == 1789


class TestCli:
    def write_config(self, tmp_path, **overrides):
        data = base_config(tmp_path, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_simulate_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path, modes=["montecarlo"])
        code = cli.main(["simulate", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "montecarlo" in out
        assert (tmp_path / "run_montecarlo.csv").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        path = self.write_config(tmp_path)
        code = cli.main([
            "simulate", "--config", path,
            "--seed", "123", "--out", str(tmp_path / "other"),
        ])
        assert code == 0
        with open(tmp_path / "other_summary.json") as fh:
            summary = json.load(fh)
        assert summary["config"]["master_seed"] == 123
        assert summary["config"]["modes"] == ["montecarlo"]

    def test_meanfield_both_systems(self, tmp_path):
        path = self.write_config(tmp_path)
        assert cli.main(["meanfield", "--config", path]) == 0
        assert (tmp_path / "run_meanfield-nonlinear.csv").exists()
        assert (tmp_path / "run_meanfield-linear.csv").exists()

    def test_meanfield_single_system(self, tmp_path):
        path = self.write_config(tmp_path)
        assert cli.main(["meanfield", "--config", path, "--system", "linear"]) == 0
        assert (tmp_path / "run_meanfield-linear.csv").exists()
        assert not (tmp_path / "run_meanfield-nonlinear.csv").exists()

    def test_exact_subcommand(self, tmp_path):
        path = self.write_config(tmp_path)
        assert cli.main(["exact", "--config", path]) == 0
        assert (tmp_path / "run_exact.csv").exists()

    def test_equilibrium_success_prints_radius(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli.main(["equilibrium", "--config", path])
        assert code == 0
        assert "spectral radius" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_equilibrium_declined_exit_code(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            network={"kind": "identity", "nodes": 1},
            memory=2,
            initial_red=[1],
            initial_total=[100],
            reinforce_red=[9900],
            reinforce_black=[0],
        )
        code = cli.main(["equilibrium", "--config", path])
        assert code == 3
        assert "declined" in capsys.readouterr().out

    def test_overflowing_linear_curve_exits_3(self, tmp_path, capsys):
        # The one-urn system above (radius 1.59) leaves the floats before
        # t = 2000: a numerical failure naming the time, before any CSV,
        # with no warning on the way.
        path = self.write_config(
            tmp_path, network={"kind": "identity", "nodes": 1}, memory=2, initial_red=[1],
            initial_total=[100], reinforce_red=[9900], reinforce_black=[0], t_max=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["meanfield", "--config", path, "--system", "linear"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the linear system is unstable")
        assert "its curve is not finite from t = 1532 on" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    UNSTABLE = {"memory": 3, "reinforce_red": [40, 40], "reinforce_black": [0, 0]}
    SUMMARY = "summary: {p}_summary.json"
    NONLINEAR = "meanfield-nonlinear: {p}_meanfield-nonlinear.csv"
    LINEAR = "meanfield-linear: {p}_meanfield-linear.csv"

    @pytest.mark.parametrize("argv, overrides, lines, code", [
        (["simulate"], {}, ["montecarlo: {p}_montecarlo.csv", SUMMARY], 0),
        (["exact"], {}, ["exact: {p}_exact.csv", SUMMARY], 0),
        (["meanfield"], {}, [NONLINEAR, LINEAR, SUMMARY], 0),
        (["meanfield", "--system", "both"], {}, [NONLINEAR, LINEAR, SUMMARY], 0),
        (["meanfield", "--system", "nonlinear"], {}, [NONLINEAR, SUMMARY], 0),
        (["meanfield", "--system", "linear"], {}, [LINEAR, SUMMARY], 0),
        (["equilibrium"], {}, ["equilibrium: {p}_equilibrium.csv", SUMMARY,
                               "spectral radius 0.27136441019375518"], 0),
        (["equilibrium"], UNSTABLE, [
            "equilibrium: {p}_equilibrium.csv", SUMMARY,
            "spectral radius 1.073427092138806 >= 1; equilibrium declined"], 3),
    ])
    def test_run_subcommand_output_pinned(self, tmp_path, capsys, argv, overrides,
                                          lines, code):
        path = self.write_config(tmp_path, **overrides)
        assert cli.main([argv[0], "--config", path, *argv[1:]]) == code
        out, err = capsys.readouterr()
        prefix = str(tmp_path / "run")
        assert out.splitlines() == [line.format(p=prefix) for line in lines]
        assert err == ""

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            network={"kind": "identity", "nodes": 1},
            memory=30,
            initial_red=[5],
            initial_total=[25],
            reinforce_red=[11],
            reinforce_black=[11],
            t_max=3,
        )
        code = cli.main(["exact", "--config", path])
        assert code == 4
        assert "cap exceeded" in capsys.readouterr().err

    def test_gen_network_ring(self, tmp_path):
        out = str(tmp_path / "net")
        assert cli.main(["gen-network", "--kind", "ring", "--nodes", "5",
                         "--out", out]) == 0
        from polyanet.networks import load_matrix

        assert np.array_equal(load_matrix(out + "_matrix.csv"), ring(5))

    def test_gen_network_barabasi_writes_edges(self, tmp_path):
        out = str(tmp_path / "net")
        code = cli.main([
            "gen-network", "--kind", "barabasi-albert", "--nodes", "12",
            "--attach", "2", "--seed", "3", "--out", out,
        ])
        assert code == 0
        assert (tmp_path / "net_edges.csv").exists()
        assert (tmp_path / "net_matrix.csv").exists()

    def test_double_dash_prefix_flag_like_entry(self, tmp_path, monkeypatch):
        # argparse before Python 3.13 turns "--out=--" into an empty list
        def simulate(name, flags, **overrides):
            path = self.write_config(tmp_path, modes=["montecarlo"], **overrides)
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            code = cli.main(["simulate", "--config", path, *flags])
            return code, sorted(p.name for p in (tmp_path / name).iterdir())

        by_flag = simulate("flag", ["--out=--"])
        by_file = simulate("file", [], out_prefix="--")
        assert by_flag == by_file == (0, ["--_montecarlo.csv", "--_summary.json"])
        assert ((tmp_path / "flag" / "--_montecarlo.csv").read_bytes()
                == (tmp_path / "file" / "--_montecarlo.csv").read_bytes())

    def test_dash_prefix_needs_the_equals_form(self, tmp_path, monkeypatch, capsys):
        # after a space argparse reads "-x" as an option: one usage error
        # line and exit 2, where "--out=-x" is the prefix "-x"
        path = self.write_config(tmp_path, modes=["montecarlo"])
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", path, "--out=-x"]) == 0
        assert (tmp_path / "-x_montecarlo.csv").exists()
        capsys.readouterr()
        assert cli.main(["simulate", "--config", path, "--out", "-x"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "polyanet simulate: error: argument --out: expected one argument"]
        assert "Traceback" not in err

    def test_reproduce_fig_double_dash_prefix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reproduce-fig", "3", "--out=--", "--t-max", "3",
                         "--replicates", "1"]) == 0
        for m in (1, 2, 3):
            with open(tmp_path / f"--_m{m}_config.json") as fh:
                assert json.load(fh)["out_prefix"] == f"--_m{m}"
            assert (tmp_path / f"--_m{m}_montecarlo.csv").exists()

    @pytest.mark.parametrize("kind", ["ring", "complete", "barabasi-albert"])
    def test_gen_network_empty_prefix_exits_2(self, tmp_path, monkeypatch, capsys, kind):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["gen-network", "--kind", kind, "--nodes", "3", "--attach", "1",
                         "--out", ""])
        assert code == 2
        assert "configuration error: out_prefix:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @given(prefix=st.text(alphabet="ab.-_ %\0", max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_gen_network_prefix_follows_the_entry_rule(self, prefix):
        # --out is accepted exactly when out_prefix would be, and names
        # the files the same way
        try:
            _check_setting("out_prefix", prefix)
            want = 0, [f"{prefix}_matrix.csv"]
        except ConfigError:
            want = 2, []
        with tempfile.TemporaryDirectory() as root:
            old = os.getcwd()
            os.chdir(root)
            try:
                code = cli.main(["gen-network", "--kind", "ring", "--nodes", "3",
                                 f"--out={prefix}"])
            finally:
                os.chdir(old)
            assert (code, sorted(os.listdir(root))) == want

    def test_gen_network_double_dash_prefix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-network", "--kind", "ring", "--nodes", "3", "--out=--"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["--_matrix.csv"]

    def test_gen_network_barabasi_requires_attach(self, tmp_path):
        code = cli.main(["gen-network", "--kind", "barabasi-albert",
                         "--nodes", "12", "--out", str(tmp_path / "net")])
        assert code == 2

    # SHA-256 of the matrix and edge CSVs, pinned from the generators'
    # output before gen-network went through resolve_network.
    GEN_NETWORK_DIGESTS = {
        ("ring", "--nodes", "5"): {
            "matrix": "6988b72c5f2cb3c38a0f214b3d9c6762d505c9bf6271c7b71d4f6ed9a2315fa0",
        },
        ("identity", "--nodes", "4"): {
            "matrix": "1071e33f72efb352764e0ea040792695cd75360b1f1b292bf9c36059cd47f18f",
        },
        ("complete", "--nodes", "6", "--self-weight", "0"): {
            "matrix": "f2b88b16d6be41dca67b2e10e4af6f14f6c46de59c83c9c734a4ce1ab3637119",
            "edges": "d263cce09088e858d53d72a3551b92dd9d7af790ac679a35ae80d2b598470f42",
        },
        ("complete", "--nodes", "6", "--self-weight", "2.5"): {
            "matrix": "4b6d97a91f0e3d6a7e6e22ce1a9e8284f7ab5fd2aa54298d90644ddf347270e3",
            "edges": "d263cce09088e858d53d72a3551b92dd9d7af790ac679a35ae80d2b598470f42",
        },
        ("barabasi-albert", "--nodes", "12", "--attach", "2", "--seed", "3"): {
            "matrix": "0c931ea60c30114ff39871c375273b23f92448f5db8a7f04296610b0ad922619",
            "edges": "7550d7eb110953ce2d784f92eac837f9b202fb071747da61efbaab2471540f8a",
        },
        ("barabasi-albert", "--nodes", "30", "--attach", "3", "--seed", "7",
         "--self-weight", "2.5"): {
            "matrix": "27a0474dce12b1d064f6af37dea01e05e81500130863653809f9f49115292513",
            "edges": "6376d562756df48118deeb12b1ddd6a8286efc9c6f65e567a803231a5ea964b9",
        },
    }

    @pytest.mark.parametrize("args", sorted(GEN_NETWORK_DIGESTS))
    def test_gen_network_bytes_pinned(self, tmp_path, args):
        out = str(tmp_path / "net")
        assert cli.main(["gen-network", "--kind", *args, "--out", out]) == 0
        want = self.GEN_NETWORK_DIGESTS[args]
        for name in ("matrix", "edges"):
            path = tmp_path / f"net_{name}.csv"
            assert path.exists() == (name in want)
            if name in want:
                assert hashlib.sha256(path.read_bytes()).hexdigest() == want[name]

    @pytest.mark.parametrize("args", [
        ["--kind", "ring", "--nodes", "1"],
        ["--kind", "barabasi-albert", "--nodes", "3", "--attach", "5"],
        ["--kind", "complete", "--nodes", "4", "--self-weight", "-1"],
        ["--kind", "complete", "--nodes", "4", "--self-weight", "nan"],
        # options that the kind does not read
        ["--kind", "ring", "--nodes", "4", "--seed", "5", "--self-weight", "nan"],
        ["--kind", "complete", "--nodes", "4", "--attach", "3"],
    ])
    def test_gen_network_bad_arguments_exit_2(self, tmp_path, capsys, args):
        out = str(tmp_path / "net")
        assert cli.main(["gen-network", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: network:")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    # an option that the kind does not read is named by its flag, with the
    # flags that the kind reads
    @pytest.mark.parametrize("args, message", [
        (["--kind", "ring", "--nodes", "4", "--self-weight", "2"],
         "unknown option --self-weight for kind 'ring'; options: ('--nodes',)"),
        (["--kind", "complete", "--nodes", "4", "--attach", "3"],
         "unknown option --attach for kind 'complete'; options: ('--nodes', '--self-weight')"),
        (["--kind", "identity", "--nodes", "4", "--seed", "5", "--self-weight", "1"],
         "unknown option --seed for kind 'identity'; options: ('--nodes',)"),
    ], ids=["ring-self-weight", "complete-attach", "identity-seed"])
    def test_gen_network_names_the_unread_flag(self, tmp_path, capsys, args, message):
        assert cli.main(["gen-network", *args, "--out", str(tmp_path / "net")]) == 2
        assert capsys.readouterr().err == f"configuration error: network: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_compare_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path, modes=["meanfield-nonlinear"])
        cli.main(["meanfield", "--config", path, "--system", "nonlinear"])
        curve = str(tmp_path / "run_meanfield-nonlinear.csv")
        code = cli.main(["compare", curve, curve])
        out = capsys.readouterr().out
        assert code == 0
        assert "linf: 0" in out
        assert "points: 30" in out

    def test_compare_t_min_matches_masked_sup(self, tmp_path, capsys):
        # reproduce-fig 2 then compare --t-min: the late-window Monte Carlo
        # vs nonlinear mean-field gap, per memory, as the masked sup of the
        # curves read back from their CSVs
        out = str(tmp_path / "f2")
        assert cli.main(["reproduce-fig", "2", "--out", out, "--t-max", "40",
                         "--replicates", "3", "--seed", "35"]) == 0
        for memory in (1, 2, 3):
            mc, mf = (f"{out}_m{memory}_{mode}.csv"
                      for mode in ("montecarlo", "meanfield-nonlinear"))
            capsys.readouterr()
            assert cli.main(["compare", "--t-min", "10", mc, mf]) == 0
            lines = capsys.readouterr().out.splitlines()
            times, v_mc = read_curve(mc)
            _, v_mf = read_curve(mf)
            window = times >= 10
            assert lines[0] == "points: 31"
            assert float(lines[1].removeprefix("linf: ")) == float(
                np.max(np.abs(v_mc[window] - v_mf[window])))

    def test_compare_t_min_past_last_time_exits_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, modes=["meanfield-nonlinear"])
        cli.main(["meanfield", "--config", path, "--system", "nonlinear"])
        curve = str(tmp_path / "run_meanfield-nonlinear.csv")
        capsys.readouterr()
        assert cli.main(["compare", "--t-min", "31", curve, curve]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: t_min:")
        assert captured.out == ""

    @pytest.mark.parametrize("how", ["env", "flag", "entry"])
    def test_retired_threads_change_no_byte(self, tmp_path, monkeypatch, how):
        # $POLYANET_THREADS, --threads and a config's threads entry are not
        # read: a run given one writes the bytes of a run without it
        runs = {}
        for name in ("plain", how):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            extra = {"threads": "many"} if name == "entry" else {}
            path = self.write_config(tmp_path / name, modes=["montecarlo"], replicates=4,
                                     out_prefix="run", **extra)
            if name == "env":
                monkeypatch.setenv("POLYANET_THREADS", "7")
            flags = ["--threads", "9"] if name == "flag" else []
            assert cli.main(["simulate", "--config", path, *flags]) == 0
            runs[name] = [(tmp_path / name / f"run_{suffix}").read_bytes()
                          for suffix in ("montecarlo.csv", "summary.json")]
        assert runs[how] == runs["plain"]
        assert "threads" not in json.loads(runs["plain"][1])["config"]

    def test_benchmark_threads_shapes_accepted(self, tmp_path):
        # the shapes perfbench/ still passes: threads=1 to figure_configs,
        # and --threads 1 beside a config holding "threads": 1
        configs = figure_configs("3", str(tmp_path / "f"), t_max=5, replicates=1, threads=1)
        assert [cfg.raw.memory for cfg in configs] == [1, 2, 3]
        assert cli.main(["reproduce-fig", "3", "--out", str(tmp_path / "fig"), "--t-max", "5",
                         "--replicates", "1", "--threads", "1"]) == 0
        assert "threads" not in json.loads((tmp_path / "fig_m1_config.json").read_text())
        path = self.write_config(tmp_path, threads=1, memory=2)
        for argv in (["exact"], ["meanfield", "--system", "both"], ["equilibrium"]):
            assert cli.main([*argv, "--config", path, "--threads", "1"]) == 0

    @pytest.mark.parametrize("overrides", [{"t_max": "abc"}, {"replicates": None},
                                           {"t_max": "7"}, {"replicates": "2"}])
    def test_malformed_config_exits_2(self, tmp_path, capsys, overrides):
        path = self.write_config(tmp_path, modes=["montecarlo"], **overrides)
        assert cli.main(["simulate", "--config", path]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"out_prefix": None}, {"out_prefix": 5}, {"out_prefix": ["a"]}, {"out_prefix": ""},
        {"modes": ["meanfield-nonlinear", "meanfield-nonlinear"]},
    ])
    def test_bad_prefix_or_repeated_mode_writes_nothing(self, tmp_path, monkeypatch,
                                                         capsys, overrides):
        path = self.write_config(tmp_path, **overrides)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["meanfield", "--config", path]) == 2
        field = next(iter(overrides))
        assert f"configuration error: {field}:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_reproduce_fig_negative_seed_rejected(self, tmp_path, capsys):
        assert cli.main(["reproduce-fig", "2", "--out", str(tmp_path / "f"),
                         "--t-max", "5", "--replicates", "1", "--seed", "-1"]) == 2
        assert "seed: must be at least 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_boundary_equilibrium_declined(self, tmp_path, capsys):
        # M * rho(A) = 1 exactly: the N x N solve is singular
        path = self.write_config(
            tmp_path, modes=["equilibrium"], memory=3,
            network={"kind": "matrix", "values": [[0, 0, 1], [0, 0, 1], [0, 0.5, 0.5]]},
            initial_red=[0, 0, 0], initial_total=[1, 1, 1],
            reinforce_red=[0, 0, 2], reinforce_black=[0, 0, 0])
        assert cli.main(["equilibrium", "--config", path]) == 3
        assert "spectral radius 1 >= 1; equilibrium declined" in capsys.readouterr().out

    def test_reproduce_fig_small(self, tmp_path):
        out = str(tmp_path / "fig3")
        code = cli.main([
            "reproduce-fig", "3", "--out", out,
            "--t-max", "40", "--replicates", "2",
        ])
        assert code == 0
        for m in (1, 2, 3):
            assert (tmp_path / f"fig3_m{m}_config.json").exists()
            assert (tmp_path / f"fig3_m{m}_summary.json").exists()
            assert (tmp_path / f"fig3_m{m}_montecarlo.csv").exists()


def ring10_config(tmp_path, **overrides):
    """Ten-urn ring with memory 2: 20 state bits but 30 work bits."""
    return base_config(
        tmp_path,
        network={"kind": "ring", "nodes": 10},
        memory=2,
        initial_red=12,
        initial_total=25,
        reinforce_red=11,
        reinforce_black=11,
        **overrides,
    )


class TestExactAdmission:
    def test_rejected_before_any_mode_runs(self, tmp_path):
        cfg = config_from_dict(ring10_config(tmp_path, modes=["montecarlo", "exact"]))
        with pytest.raises(CapExceededError, match="30 work bits"):
            run(cfg)
        assert not (tmp_path / "run_montecarlo.csv").exists()

    def test_cli_exits_4_within_a_second(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(ring10_config(tmp_path, modes=["exact"])))
        start = time.perf_counter()
        code = cli.main(["exact", "--config", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 4
        assert elapsed < 1.0
        err = capsys.readouterr().err
        assert "20 state bits" in err and "30 work bits" in err

    def test_raised_cap_admits(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path, modes=["exact"], t_max=3,
                                           exact_cap_bits=4))
        run(cfg)
        cfg = dataclasses.replace(cfg, exact_cap_bits=3)
        with pytest.raises(CapExceededError):
            run(cfg)


class TestMemoryAdmission:
    # Each case asks for at least 2**63 bytes, so without the admission
    # NumPy refuses its first array outright instead of allocating.
    @pytest.mark.parametrize("command, overrides", [
        ("simulate", {"t_max": 2**62}),
        ("exact", {"t_max": 2**62}),
        ("meanfield", {"t_max": 2**62}),
        ("simulate", {"replicates": 2**62}),
        ("simulate", {"t_max": 1e300}),
        ("meanfield", {"memory": 2**62}),
        ("equilibrium", {"memory": 2**62}),
        ("exact", {"network": {"kind": "complete", "nodes": 10}, "memory": 7,
                   "initial_red": 12, "initial_total": 25, "reinforce_red": 11,
                   "reinforce_black": 11, "exact_cap_bits": 80}),
    ])
    def test_oversized_run_exits_4_before_any_mode(self, tmp_path, capsys,
                                                   command, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, **overrides)))
        assert cli.main([command, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: the run's arrays need at least ")
        assert "bytes of physical memory" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_exact_counts_what_its_kernel_keeps(self, tmp_path, capsys, monkeypatch):
        # Physical memory just above the two distributions and the curve,
        # but below them plus the kernel's index arrays and class tables:
        # refused before the kernel or any artifact is made.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, memory=4, t_max=3, modes=["exact"])))
        distributions, curve = 16 << 8, 8 * 3 * 2
        sysconf = os.sysconf
        have = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": distributions + curve + 1}
        monkeypatch.setattr(os, "sysconf", lambda name: have.get(name) or sysconf(name))
        monkeypatch.setattr(chain, "build_kernel", lambda *a, **k: pytest.fail("kernel built"))
        assert cli.main(["exact", "--config", str(path)]) == 4
        assert "the run's arrays need at least" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]
        assert chain.kernel_bytes(2, 4) >= 16 << 8  # every state's source and successor

    def test_equilibrium_counts_its_matrices(self, tmp_path, capsys, monkeypatch):
        # Physical memory just above the (M + 1, N) table, but below the
        # N x N matrices the solve holds: refused before A is built.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, modes=["equilibrium"])))
        sysconf = os.sysconf
        have = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 8 * 2 * 2 + 1}
        monkeypatch.setattr(os, "sysconf", lambda name: have.get(name) or sysconf(name))
        monkeypatch.setattr(meanfield, "build_linear_system", lambda *a: pytest.fail("A built"))
        assert cli.main(["equilibrium", "--config", str(path)]) == 4
        assert "the run's arrays need at least" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    # Each route on a config that costs at least 16 MiB: the traced peak
    # of the run stays within its cost plus 2 MiB for the CSV writer's
    # chunks.  The equilibrium's cost also counts the LU copy the solve
    # makes, which tracemalloc does not see.
    @pytest.mark.parametrize("mode, overrides", [
        ("exact", {"network": {"kind": "ring", "nodes": 6}, "memory": 3, "t_max": 3}),
        ("montecarlo", {"network": {"kind": "ring", "nodes": 100}, "t_max": 8000,
                        "replicates": 8}),
        ("meanfield-nonlinear", {"network": {"kind": "ring", "nodes": 100}, "t_max": 10500}),
        ("meanfield-linear", {"network": {"kind": "ring", "nodes": 1500}, "t_max": 10}),
        ("equilibrium", {"network": {"kind": "complete", "nodes": 1000}}),
        ("equilibrium", {"network": {"kind": "barabasi-albert", "nodes": 1000, "attach": 2,
                                     "seed": 7}}),
    ])
    def test_route_peak_within_its_cost(self, tmp_path, mode, overrides):
        urns = {"memory": 2, "initial_red": 12, "initial_total": 25, "reinforce_red": 11,
                "reinforce_black": 11}
        cfg = config_from_dict(base_config(tmp_path, **{**urns, **overrides}, modes=[mode]))
        cost = experiment.ROUTES[mode][0](cfg)
        assert cost >= 16 << 20
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cost + (2 << 20)

    # The exact route's cost counts the kernel's row arrays and an apply's
    # block workspace too.  These chains write CSVs of 140, 60 and 180 rows,
    # so their traced peaks get 256 KiB of slack, not the CSV writer's
    # 2 MiB.  The rings keep full tables, the Barabasi-Albert chain halves.
    @pytest.mark.parametrize("nodes, memory, network", [
        pytest.param(6, 3, {"kind": "ring"}, id="6-3"),
        pytest.param(2, 9, {"kind": "ring"}, id="2-9"),
        pytest.param(8, 2, {"kind": "barabasi-albert", "attach": 2, "seed": 1789}, id="ba-8-2"),
    ])
    def test_exact_peak_within_its_cost(self, tmp_path, nodes, memory, network):
        cfg = config_from_dict(base_config(
            tmp_path, network={**network, "nodes": nodes}, memory=memory, initial_red=12,
            initial_total=25, reinforce_red=11, reinforce_black=11, t_max=20, modes=["exact"]))
        cost = experiment.ROUTES["exact"][0](cfg)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cost + (256 << 10)

    # 10**9 urns need 1.6e19 bytes of N x N arrays: refused before any is built
    def test_huge_network_config_exits_4(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, network={"kind": "complete", "nodes": 10**9})))
        assert cli.main(["simulate", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: the network's two N x N float64 arrays need "
                              "at least 16000000000000000000 bytes")
        assert list(tmp_path.iterdir()) == [path]

    def test_huge_gen_network_exits_4(self, tmp_path, capsys):
        argv = ["gen-network", "--kind", "ring", "--nodes", str(10**9),
                "--out", str(tmp_path / "net")]
        assert cli.main(argv) == 4
        assert "the network's two N x N float64 arrays" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fractional_nodes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(
            tmp_path, network={"kind": "complete", "nodes": 2.7})))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: network: nodes: must be an integer, got 2.7\n")
        assert list(tmp_path.iterdir()) == [path]


class TestCompareBadRows:
    @pytest.mark.parametrize("row", ["1.5,avg,0.3", "1,avg,nan_x", "x,avg,0.3"])
    def test_bad_average_row_is_config_error(self, tmp_path, row):
        path = tmp_path / "x.csv"
        path.write_text(f"time,urn,p,system\n1,avg,0.5,exact\n{row},exact\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_curve(str(path))

    @pytest.mark.parametrize("row", ["1.5,avg,0.3", "1,avg,nan_x"])
    def test_cli_compare_exits_2(self, tmp_path, capsys, row):
        good = tmp_path / "good.csv"
        good.write_text("time,urn,p,system\n1,avg,0.5,exact\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,urn,p,system\n{row},exact\n")
        assert cli.main(["compare", str(good), str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        b"2,avg,0.3\xff,exact",  # not UTF-8
        b"2,avg,0.3," + b"x" * 200_000,  # a field past csv's length limit
    ], ids=["not-utf8", "long-field"])
    def test_unreadable_curve_exits_2(self, tmp_path, capsys, row):
        good = tmp_path / "good.csv"
        good.write_text("time,urn,p,system\n1,avg,0.5,exact\n2,avg,0.25,exact\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,urn,p,system\n1,avg,0.5,exact\n" + row + b"\n")
        with pytest.raises(ConfigError, match=f"cannot read {bad}") as info:
            read_curve(str(bad))
        assert info.value.field == "curves"
        assert cli.main(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: curves: cannot read {bad}: ")


    def test_repeated_time_exits_2(self, tmp_path, capsys):
        # no curve the program writes repeats a time, and a pairing of
        # repeated times would be arbitrary: refused, naming file and line
        paths = []
        for name in ("a.csv", "b.csv"):
            paths.append(tmp_path / name)
            paths[-1].write_text("time,urn,p,system\n1,avg,0.5,exact\n1,0,0.5,exact\n"
                                 "1,avg,0.25,exact\n")
        with pytest.raises(ConfigError, match=r"a\.csv: line 4: time 1 repeats line 2"):
            read_curve(str(paths[0]))
        assert cli.main(["compare", *map(str, paths)]) == 2
        captured = capsys.readouterr()
        assert "points" not in captured.out
        assert captured.err == (f"configuration error: curves: {paths[0]}: line 4: "
                                "time 1 repeats line 2\n")


class TestNonFiniteAverages:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_read_curve_rejects(self, tmp_path, value):
        path = tmp_path / "x.csv"
        path.write_text(f"time,urn,p,system\n1,avg,0.5,exact\n2,avg,{value},exact\n")
        with pytest.raises(ConfigError, match=r"x\.csv: line 3") as info:
            read_curve(str(path))
        assert info.value.field == "curves"

    def test_cli_compare_exits_2(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("time,urn,p,system\n1,avg,0.5,exact\n2,avg,0.25,exact\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,urn,p,system\n1,avg,0.5,exact\n2,avg,nan,exact\n")
        assert cli.main(["compare", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "linf" not in captured.out
        assert "bad.csv: line 3" in captured.err


URN_FIELDS = ("initial_red", "initial_total", "reinforce_red", "reinforce_black")


class TestMalformedEntries:
    @pytest.mark.parametrize("field", URN_FIELDS)
    @pytest.mark.parametrize("value", [{}, [{}, 1], {"a": 1}, [10**400, 12]])
    def test_malformed_vector_is_urns_error(self, tmp_path, field, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, **{field: value}))
        assert info.value.field == "urns"

    @pytest.mark.parametrize("field", URN_FIELDS)
    @pytest.mark.parametrize("value", [True, [True, False], [True, 2], "3", ["1", "2"]])
    def test_boolean_or_string_count_is_urns_error(self, tmp_path, field, value):
        # Red counts of 1 keep the coerced values (1, [1, 2], 3) a valid
        # config, so only the type of the entry is at fault.
        data = base_config(tmp_path, **{"initial_red": [1, 1], field: value})
        with pytest.raises(ConfigError, match="must hold integers") as info:
            config_from_dict(data)
        assert info.value.field == "urns"

    @pytest.mark.parametrize("field, text", [
        ("initial_red", "true"), ("initial_total", "[true, 2]"),
        ("reinforce_red", '"3"'), ("reinforce_black", '["1", "2"]'),
    ])
    def test_boolean_or_string_count_exits_2(self, tmp_path, capsys, field, text):
        data = base_config(tmp_path, modes=["meanfield-linear"], initial_red=[1, 1])
        data[field] = "PLACEHOLDER"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', text))
        assert cli.main(["meanfield", "--config", str(path), "--system", "linear"]) == 2
        err = capsys.readouterr().err
        assert f"urns: {field} must hold integers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", URN_FIELDS)
    @pytest.mark.parametrize("count", [float("inf"), float("-inf"), float("nan"), 1e300,
                                       -1e300, 2.0**64, 2**63, 2**53 + 1])
    def test_out_of_range_count_rejected_before_cast(self, tmp_path, field, count):
        data = base_config(tmp_path, **{field: [count, 12]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite counts") as info:
                config_from_dict(data)
        assert info.value.field == "urns"

    def test_largest_count_admitted(self, tmp_path):
        big = 2**53 - 1
        cfg = config_from_dict(base_config(
            tmp_path, initial_red=[5, big], initial_total=[25, big]
        ))
        assert cfg.raw.initial_total.tolist() == [25, big]

    def test_montecarlo_counts_that_would_wrap_exit_2_before_any_mode(self, tmp_path, capsys):
        # each count passes the 2**53 rule, but a window of 1100 additions
        # takes the total to about 9.9e18, past the int64 counts
        big = 2**53 - 1
        data = base_config(tmp_path, network={"kind": "identity", "nodes": 2}, memory=1100,
                           initial_red=2**52, initial_total=big, reinforce_red=big,
                           reinforce_black=big, t_max=1100,
                           modes=["meanfield-nonlinear", "montecarlo"])
        with pytest.raises(ConfigError, match="urn 0's ball total can reach") as info:
            run(config_from_dict(data))
        assert info.value.field == "urns"
        assert not list(tmp_path.iterdir())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: urns: urn 0's ball total can reach ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]
        # the mean field forms no counts, so the same config runs there
        assert cli.main(["meanfield", "--config", str(path), "--system", "nonlinear"]) == 0

    @pytest.mark.parametrize("text, message", [
        ("{}", "must hold integers"),
        ("[Infinity, 12]", "must hold finite counts"),
        ("[1e300, 12]", "must hold finite counts"),
    ])
    def test_cli_exits_2(self, tmp_path, capsys, text, message):
        doc = json.dumps(base_config(tmp_path, modes=["meanfield-linear"]))
        path = tmp_path / "config.json"
        path.write_text(doc.replace('"initial_total": [25, 25]', f'"initial_total": {text}'))
        assert cli.main(["meanfield", "--config", str(path), "--system", "linear"]) == 2
        assert f"urns: initial_total {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "ring", "nodes": None}, {"kind": "ring", "nodes": []},
         {"kind": "matrix", "values": {}}, {"kind": "matrix-file", "path": None},
         {"kind": "barabasi-albert", "nodes": 5, "attach": None},
         {"kind": "matrix", "values": [[float("nan")]]},
         {"kind": "complete", "nodes": 2.7}, {"kind": "ring", "nodes": "3"},
         {"kind": "identity", "nodes": True},
         {"kind": "barabasi-albert", "nodes": 5, "attach": 2.9},
         {"kind": "barabasi-albert", "nodes": 5, "attach": 2, "seed": "1"},
         {"kind": "complete", "nodes": 3, "self_weight": "2.5"},
         {"kind": "complete", "nodes": 3, "self_weight": True},
         {"kind": "complete", "nodes": 3, "self_weight": None},
         {"kind": "barabasi-albert", "nodes": 5, "attach": 2, "self_weight": b"1"},
         {"kind": "matrix", "values": [["1", "0"], ["0", "1"]]},
         {"kind": "matrix", "values": [[True, False], [False, True]]},
         {"kind": "matrix", "values": [[1.0, 0.0], [0.0, 1.0]], "normalize": "no"},
         {"kind": "matrix", "values": [[1.0, 0.0], [0.0, 1.0]], "normalize": 0},
         {"kind": "matrix", "values": [[10**400]]},
         {"kind": "complete", "nodes": 3, "self_weight": 10**400}],
    )
    def test_malformed_network_entry(self, spec):
        with pytest.raises(ConfigError) as info:
            resolve_network(spec)
        assert info.value.field == "network"


class TestRouteTable:
    def test_scratch_route_needs_only_its_entry(self, tmp_path, monkeypatch):
        def scratch(cfg, params, path):
            curve = np.full(cfg.t_max, 0.25)
            write_curve_csv(path, ("time", "urn", "p", "system"), np.arange(1, cfg.t_max + 1),
                            np.full((cfg.t_max, params.n_urns), 0.25), curve, "scratch")
            return curve, {}

        monkeypatch.setitem(experiment.ROUTES, "scratch", (lambda cfg: 1 << 20, scratch))
        cfg = config_from_dict(base_config(tmp_path, modes=["scratch", "meanfield-nonlinear"]))
        summary = run(cfg)
        assert np.array_equal(read_curve(summary["artifacts"]["scratch"])[1], np.full(30, 0.25))
        nonlinear = read_curve(summary["artifacts"]["meanfield-nonlinear"])[1]
        gap = summary["comparisons"]["meanfield-nonlinear|scratch"]
        assert gap == np.abs(nonlinear - 0.25).max() > 0
        # admitted on its cost: 1 MiB on a machine with half of that
        for path in tmp_path.iterdir():
            path.unlink()
        sysconf = os.sysconf
        have = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1 << 19}
        monkeypatch.setattr(os, "sysconf", lambda name: have.get(name) or sysconf(name))
        need = (1 << 20) + experiment.ROUTES["meanfield-nonlinear"][0](cfg)
        with pytest.raises(CapExceededError, match=f"the run's arrays need at least {need} bytes"):
            run(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_routes_share_no_state(self, tmp_path):
        """A mode's CSV has the same bytes alone, in the five-mode run and
        with the modes reversed."""
        modes = list(experiment.ROUTES)
        runs = {"all": modes, "reversed": modes[::-1], **{m: [m] for m in modes}}
        for name, order in runs.items():
            run(config_from_dict(base_config(tmp_path, modes=order,
                                             out_prefix=str(tmp_path / name))))
        for mode in modes:
            alone = (tmp_path / f"{mode}_{mode}.csv").read_bytes()
            for name in ("all", "reversed"):
                assert (tmp_path / f"{name}_{mode}.csv").read_bytes() == alone, (name, mode)

    def test_run_subcommands_cover_the_routes(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        seen = []

        def record(cfg):
            seen.extend(cfg.modes)
            return {"artifacts": {}, "summary_path": "", "spectral_radius": 0.5,
                    "equilibrium_declined": False}

        monkeypatch.setattr(experiment, "run", record)
        subcommands = next(a.choices for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        for name, parser in subcommands.items():
            if parser.get_default("func") is cli._cmd_run:
                assert cli.main([name, "--config", str(path)]) == 0
        assert sorted(seen) == sorted(experiment.ROUTES)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
VALID = base_config(pathlib.Path("unused"))


@given(field=st.sampled_from(sorted(VALID)), value=JSON_VALUES)
@settings(max_examples=300)
def test_any_field_any_json_value(field, value):
    """One field of a valid config replaced by any JSON-like value gives a
    config or a ConfigError, never another exception."""
    try:
        config_from_dict({**VALID, field: value})
    except ConfigError:
        pass


class TestOneRulePerEntry:
    @pytest.mark.parametrize("key", ["t_maxx", "mode"])
    def test_unknown_entry_refused(self, tmp_path, key):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, **{key: 5}))
        assert info.value.field == key

    @pytest.mark.parametrize("key", ["t_maxx", "mode"])
    def test_unknown_entry_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, modes=["montecarlo"], **{key: 5})))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert f"configuration error: {key}: unknown entry" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("overrides, field", [
        ({"out_prefix": ""}, "out_prefix"), ({"out_prefix": None}, "out_prefix"),
        ({"master_seed": "3"}, "master_seed"),
        ({"modes": ["exact", "exact"]}, "modes"), ({"modes": []}, "modes"),
    ])
    def test_override_checked_like_its_entry(self, tmp_path, overrides, field):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path), overrides=overrides)
        assert info.value.field == field

    def test_file_entry_checked_before_its_override(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_config(tmp_path, master_seed="2"), overrides={"master_seed": 1})
        assert info.value.field == "master_seed"

    def test_overrides_replace_entries(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path), overrides={
            "modes": ["exact"], "master_seed": 5, "out_prefix": "x"})
        assert (cfg.modes, cfg.master_seed, cfg.out_prefix) == (["exact"], 5, "x")
        assert cfg.t_max == 30

    def test_config_is_frozen(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.out_prefix = ""

    def test_empty_out_on_meanfield_writes_nothing(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["meanfield", "--config", str(path), "--out", ""]) == 2
        assert "configuration error: out_prefix:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_empty_out_on_reproduce_fig_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reproduce-fig", "3", "--out", "", "--t-max", "2",
                         "--replicates", "1"]) == 2
        assert "configuration error: out_prefix:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestUnwritableOutput:
    """An output prefix that no file can be created under exits 2 with a
    one-line message, before or instead of a traceback."""

    def test_nul_in_out_prefix_refused(self, tmp_path):
        for data, overrides in ((base_config(tmp_path, out_prefix=str(tmp_path / "a\0b")), None),
                                (base_config(tmp_path), {"out_prefix": "a\0b"})):
            with pytest.raises(ConfigError) as info:
                config_from_dict(data, overrides=overrides)
            assert info.value.field == "out_prefix"

    @pytest.mark.parametrize("flags", [[], ["--out", "run\0x"]])
    def test_nul_in_out_prefix_exits_2(self, tmp_path, capsys, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, out_prefix=str(tmp_path / "run\0x"))))
        assert cli.main(["meanfield", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: out_prefix:") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv", [
        ["meanfield", "--config", "CONFIG"],
        ["reproduce-fig", "3", "--t-max", "2", "--replicates", "1"],
        ["gen-network", "--kind", "ring", "--nodes", "3"],
    ])
    def test_out_under_regular_file_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        argv = [str(path) if a == "CONFIG" else a for a in argv]
        assert cli.main([*argv, "--out", str(path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
