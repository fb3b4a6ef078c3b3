import contextlib
import hashlib
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokit import (GeometricBrownian, OrnsteinUhlenbeck, cli, csvio, errors,
                    growth_rates, preasymptotic_report, processes, quantile_fan,
                    simulate, summary_curves)
from stokit.cli import _dispatch_targets, main
from stokit.csvio import read_ensemble_csv


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateCommand:
    def test_reference_shape(self, tmp_path):
        out = tmp_path / "bm.csv"
        code = run(["simulate", "brownian", "--drift", 0, "--scale", 1,
                    "--t", 3, "--dt", 0.01, "--n", 240, "--seed", 7,
                    "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 302  # header + 301 grid rows
        assert lines[0].split(",") == ["time"] + [f"inst_{i}" for i in range(240)]
        assert all(len(line.split(",")) == 241 for line in lines[1:])

    def test_noiseless_line_rows(self, tmp_path):
        out = tmp_path / "line.csv"
        code = run(["simulate", "brownian", "--scale", 0, "--drift", 1,
                    "--t", 1, "--dt", 0.5, "--n", 1, "--seed", 0, "--out", out])
        assert code == 0
        assert out.read_text() == "time,inst_0\n0,0\n0.5,0.5\n1,1\n"

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "glevy", "--alpha", 1.55, "--beta", 0.2,
                "--scale", 0.35, "--loc", 0.02, "--t", 1, "--dt", 0.01,
                "--n", 12, "--seed", 5]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert sha256(a) == sha256(b)

    def test_missing_required_flag_exits_2(self, tmp_path):
        code = run(["simulate", "gbm", "--t", 1, "--dt", 0.1, "--n", 2,
                    "--out", tmp_path / "x.csv"])  # no --mu/--sigma
        assert code == 2

    def test_bad_parameter_exits_2(self, tmp_path):
        code = run(["simulate", "levy", "--alpha", 2.5, "--beta", 0,
                    "--scale", 1, "--t", 1, "--dt", 0.1, "--n", 2,
                    "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_skewed_alpha_at_the_s1_pole_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["simulate", "levy", "--alpha", "1.0000000001", "--beta", 0.5,
                    "--scale", 1, "--t", 1, "--dt", 0.1, "--n", 2, "--out", out])
        assert code == 2
        assert "S1 pole" in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", "levy", "--alpha", 1, "--beta", 0.5, "--scale", 1,
                    "--t", 1, "--dt", 0.1, "--n", 2, "--out", out]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "nan"), ("--sigma", "inf"), ("--t", "nan"), ("--t", "inf"),
        ("--dt", "nan")])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, flag, value):
        flags = {"--mu": 0.05, "--sigma": 0.2, "--t": 1, "--dt": 0.1, "--n": 2,
                 flag: value}
        out = tmp_path / "x.csv"
        assert run(["simulate", "gbm", *sum(flags.items(), ()), "--out", out]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", [1e-300, 1], ids=["inf_steps", "1e300_steps"])
    def test_step_count_past_an_array_index_exits_2(self, tmp_path, capsys, dt):
        """Sizes the grid refuses before numpy allocates anything."""
        code = run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 1e300,
                    "--dt", dt, "--n", 2, "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon 1e+300 over dt=")
        assert err.endswith(" steps, more than an array can index\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_values_past_an_array_exit_2(self, tmp_path, capsys):
        """Refused before anything is allocated."""
        code = run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 1,
                    "--dt", 0.5, "--n", 2 ** 62, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {2 ** 62} instances of 3 timepoints are more values than "
            "an array can hold\n")
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_without_a_message_reads_out_of_memory(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with mock.patch.object(processes, "simulate", side_effect=MemoryError):
            code = run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 1,
                        "--dt", 0.5, "--n", 2, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()

    def test_poisson_slot_block_past_its_bound_exits_2(self, tmp_path, capsys):
        """A round of 1.5e9 slots, refused before anything is allocated."""
        out = tmp_path / "x.csv"
        assert run(["simulate", "poisson", "--rate", 1e9, "--t", 1, "--dt", 0.1,
                    "--n", 2, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: rate 1000000000.0 over horizon 1.0 needs 1.5e+09 Poisson slots "
            "per round of draws, more than 16777216\n")
        assert not out.exists()

    def test_gbm_sigma_past_the_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", "gbm", "--mu", 0.05, "--sigma", 1e200, "--t", 1,
                    "--dt", 0.1, "--n", 2, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: sigma 1e+200 puts the log drift mu - sigma**2/2 "
            "past the float range\n")
        assert not out.exists()

    def test_gbm_drift_line_past_the_exponent_clip_exits_2(self, tmp_path, capsys):
        """Every value would be exp(700), the clip, not the process."""
        out = tmp_path / "x.csv"
        assert run(["simulate", "gbm", "--mu", 1e308, "--sigma", 0.2, "--t", 1,
                    "--dt", 0.1, "--n", 2, "--seed", 1, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: log drift mu - sigma**2/2 = 1e+308 over horizon 1 "
            "reaches the exponent clip 700\n")
        assert not out.exists()

    def test_partial_step_horizon_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["simulate", "brownian", "--t", 1, "--dt", 0.3, "--n", 2,
                    "--out", out])
        assert code == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not out.exists()


class TestDiagnoseCommand:
    @pytest.fixture
    def gbm_csv(self, tmp_path):
        out = tmp_path / "gbm.csv"
        run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 2,
             "--dt", 0.01, "--n", 50, "--seed", 11, "--out", out])
        return out

    def test_round_trip_matches_in_process(self, gbm_csv, tmp_path):
        prefix = tmp_path / "diag"
        code = run(["diagnose", "--in", gbm_csv, "--fan", "--summary",
                    "--growth", "--out-prefix", prefix])
        assert code == 0
        ens = simulate(GeometricBrownian(0.05, 0.2), 2.0, 0.01, 50, 11)
        fan = quantile_fan(ens)
        got = np.genfromtxt(f"{prefix}_fan.csv", delimiter=",", skip_header=1)
        np.testing.assert_allclose(got[:, 1:], fan.curves.T, rtol=1e-12)
        rates = growth_rates(ens)
        lines = Path(f"{prefix}_growth.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(
            rates.time_average, rel=1e-12)
        assert float(lines[2].split(",")[1]) == pytest.approx(
            rates.ensemble_average, rel=1e-12)
        summary = summary_curves(ens)
        got = np.genfromtxt(f"{prefix}_summary.csv", delimiter=",", skip_header=1)
        np.testing.assert_allclose(got[:, 1], summary.arithmetic_mean, rtol=1e-12)

    def test_fan_and_summary_sort_once(self, gbm_csv, tmp_path):
        """``--fan --summary`` writes the bytes that ``--fan`` and
        ``--summary`` write alone."""
        both, fan, summary = tmp_path / "both", tmp_path / "fan", tmp_path / "summary"
        assert run(["diagnose", "--in", gbm_csv, "--fan", "--summary",
                    "--out-prefix", both]) == 0
        assert run(["diagnose", "--in", gbm_csv, "--fan", "--out-prefix", fan]) == 0
        assert run(["diagnose", "--in", gbm_csv, "--summary",
                    "--out-prefix", summary]) == 0
        for prefix, kind in ((fan, "fan"), (summary, "summary")):
            assert (Path(f"{both}_{kind}.csv").read_bytes()
                    == Path(f"{prefix}_{kind}.csv").read_bytes())

    def test_constant_ensemble_fan_columns_equal(self, tmp_path):
        src = tmp_path / "const.csv"
        run(["simulate", "brownian", "--drift", 0, "--scale", 0, "--x0", 2.5,
             "--t", 1, "--dt", 0.25, "--n", 4, "--seed", 1, "--out", src])
        prefix = tmp_path / "c"
        assert run(["diagnose", "--in", src, "--fan", "--out-prefix", prefix]) == 0
        rows = Path(f"{prefix}_fan.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")[1:]
            assert len(set(cells)) == 1

    def test_unsorted_levels_exit_2(self, gbm_csv, tmp_path):
        code = run(["diagnose", "--in", gbm_csv, "--fan-levels", "0.9,0.1",
                    "--out-prefix", tmp_path / "x"])
        assert code == 2

    def test_fan_levels_name_their_columns_in_percent(self, gbm_csv, tmp_path):
        prefix = tmp_path / "f"
        assert run(["diagnose", "--in", gbm_csv, "--fan-levels", "0.025,0.5",
                    "--out-prefix", prefix]) == 0
        assert Path(f"{prefix}_fan.csv").read_text().splitlines()[0] == "time,q2.5,q50"

    @pytest.mark.parametrize("argv, message", [
        (["--in", "{csv}", "--fan-levels", "0.5,x"], "bad --fan-levels value"),
        (["--fan"], "no input: pass --in FILE or a process family"),
        (["--family", "gbm", "--mu", 0.05, "--sigma", 0.2, "--dt", 0.01, "--n", 5,
          "--fan"], "--t is required when simulating inline"),
    ], ids=["levels_not_numbers", "no_input", "inline_without_t"])
    def test_usage_fault_exits_2(self, gbm_csv, tmp_path, capsys, argv, message):
        argv = [str(a).format(csv=gbm_csv) for a in argv]
        assert run(["diagnose", *argv, "--out-prefix", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [gbm_csv]  # nothing written

    @pytest.mark.parametrize("argv, message", [
        ([], "request at least one diagnostic"),
        (["--fan-levels", "0.5,x"], "bad --fan-levels value"),
    ], ids=["no_diagnostic", "levels_not_numbers"])
    def test_usage_fault_exits_2_before_reading_input(self, tmp_path, capsys,
                                                      argv, message):
        """A usage fault is found before the input is opened: a missing file
        would exit 1."""
        assert run(["diagnose", "--in", tmp_path / "missing.csv", *argv,
                    "--out-prefix", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--fan-levels", "0.9,0.1"], "levels must be strictly increasing"),
        (["--fan-levels", "0.5,1"], "levels must lie in (0, 1)"),
        (["--preasym", "--tail-fraction", 0], "tail_fraction must lie in (0, 1]"),
        (["--preasym", "--preasym-window", 1], "window must be >= 2, got 1"),
    ], ids=["levels_unsorted", "level_one", "tail_fraction_zero", "window_one"])
    @pytest.mark.parametrize("source", [
        ["--in", "{tmp}/missing.csv"],
        ["--family", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 1, "--dt", 0.1,
         "--n", 3],
    ], ids=["missing_file", "inline"])
    def test_option_out_of_domain_exits_2_before_any_data(
            self, tmp_path, capsys, monkeypatch, argv, message, source):
        """The diagnostics' own option check runs before the input is read or
        simulated: a missing file would exit 1."""
        monkeypatch.setattr(processes, "simulate", None)  # a call would raise
        argv = [str(a).format(tmp=tmp_path) for a in [*source, *argv]]
        assert run(["diagnose", *argv, "--out-prefix", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("svg", [[], ["--svg"]], ids=["csv", "svg"])
    def test_failing_run_writes_no_file(self, tmp_path, capsys, svg):
        """The fan of a signed ensemble is computed, but its summary needs
        positive values: the run exits 1 and writes neither."""
        src = tmp_path / "signed.csv"
        assert run(["simulate", "brownian", "--t", 1, "--dt", 0.1, "--n", 8,
                    "--seed", 2, "--out", src]) == 0
        assert run(["diagnose", "--in", src, "--fan", "--summary", *svg,
                    "--out-prefix", tmp_path / "d"]) == 1
        assert "geometric mean requires strictly positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_positivity_error_exits_1(self, tmp_path):
        src = tmp_path / "signed.csv"
        run(["simulate", "brownian", "--drift", 0, "--scale", 1, "--t", 1,
             "--dt", 0.1, "--n", 8, "--seed", 2, "--out", src])
        code = run(["diagnose", "--in", src, "--growth",
                    "--out-prefix", tmp_path / "g"])
        assert code == 1

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,inst_0\n0,1\n0.1,two\n")
        assert run(["diagnose", "--in", bad, "--summary",
                    "--out-prefix", tmp_path / "x"]) == 2

    def test_byte_that_is_not_utf8_exits_2_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,inst_0\n0,1\n0.1,\xff\n")
        assert run(["diagnose", "--in", bad, "--fan",
                    "--out-prefix", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: bad value '\\udcff' in column 'inst_0'\n")

    def test_inline_simulation(self, tmp_path):
        prefix = tmp_path / "inline"
        code = run(["diagnose", "--family", "gbm", "--mu", 0.05, "--sigma",
                    0.2, "--t", 2, "--dt", 0.01, "--n", 50, "--seed", 11,
                    "--growth", "--out-prefix", prefix])
        assert code == 0
        ens = simulate(GeometricBrownian(0.05, 0.2), 2.0, 0.01, 50, 11)
        rates = growth_rates(ens)
        lines = Path(f"{prefix}_growth.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(
            rates.time_average, rel=1e-12)

    def test_no_diagnostic_requested_exits_2(self, gbm_csv, tmp_path):
        assert run(["diagnose", "--in", gbm_csv,
                    "--out-prefix", tmp_path / "x"]) == 2

    def test_preasym_output_shape(self, gbm_csv, tmp_path):
        prefix = tmp_path / "p"
        code = run(["diagnose", "--in", gbm_csv, "--preasym",
                    "--preasym-window", 20, "--out-prefix", prefix])
        assert code == 0
        lines = Path(f"{prefix}_preasym.csv").read_text().splitlines()
        assert lines[0] == "time,distance,fluctuation"
        assert len(lines) == 202
        # first `window` rows carry no fluctuation value
        assert lines[1].endswith(",nan")
        assert not lines[-1].endswith("nan")

    def test_svg_outputs(self, gbm_csv, tmp_path):
        prefix = tmp_path / "s"
        code = run(["diagnose", "--in", gbm_csv, "--fan", "--svg",
                    "--out-prefix", prefix])
        assert code == 0
        svg = Path(f"{prefix}_fan.svg").read_text()
        assert svg.count("<polyline") == 5

    def test_inline_run_writes_the_bytes_of_its_csv_round_trip(self, tmp_path):
        """Every table and chart of an inline run equals that of the same
        ensemble written by 'simulate' and read back with --in."""
        spec = ["--mu", 0.05, "--sigma", 0.2, "--t", 2, "--dt", 0.01, "--n", 50,
                "--seed", 11]
        wanted = ["--fan", "--summary", "--preasym", "--preasym-window", 20, "--svg"]
        ensemble = tmp_path / "e.csv"
        assert run(["simulate", "gbm", *spec, "--out", ensemble]) == 0
        assert run(["diagnose", "--family", "gbm", *spec, *wanted,
                    "--out-prefix", tmp_path / "inline"]) == 0
        assert run(["diagnose", "--in", ensemble, *wanted,
                    "--out-prefix", tmp_path / "read"]) == 0
        outputs = [f"_{name}.{suffix}" for name in ("fan", "summary", "preasym")
                   for suffix in ("csv", "svg")]
        for output in outputs:
            inline = (tmp_path / f"inline{output}").read_bytes()
            assert inline == (tmp_path / f"read{output}").read_bytes(), output
        svgs = [(tmp_path / f"inline{output}").read_text() for output in outputs[1::2]]
        assert [svg.count("<polyline") for svg in svgs] == [5, 3, 2]


class TestSpdeCommand:
    def test_zero_everything_yields_zero_field(self, tmp_path):
        prefix = tmp_path / "z"
        code = run(["spde", "--kappa", 0.1, "--sigma", 0, "--L", 1,
                    "--dx", 0.125, "--dt", 0.01, "--t", 0.1, "--init", "zero",
                    "--out-prefix", prefix])
        assert code == 0
        data = np.genfromtxt(f"{prefix}_field.csv", delimiter=",", skip_header=1)
        assert np.all(data[:, 1:] == 0.0)

    def test_sine_decay_matches_analytic(self, tmp_path):
        prefix = tmp_path / "sine"
        code = run(["spde", "--kappa", 0.1, "--sigma", 0, "--L", 1,
                    "--dx", 1.0 / 128, "--dt", 2e-5, "--t", 0.5,
                    "--out-prefix", prefix])
        assert code == 0
        prof = np.genfromtxt(f"{prefix}_profiles.csv", delimiter=",",
                             skip_header=1)
        x, final = prof[:, 0], prof[:, 2]
        exact = np.exp(-0.1 * np.pi**2 * 0.5) * np.sin(np.pi * x)
        assert np.max(np.abs(final - exact)) < 1e-3

    def test_stability_violation_names_ratio(self, tmp_path, capsys):
        # kappa*dt/dx^2 = 0.6
        code = run(["spde", "--kappa", 0.6, "--sigma", 0, "--L", 1,
                    "--dx", 0.1, "--dt", 0.01, "--t", 0.1,
                    "--out-prefix", tmp_path / "u"])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.6" in err and "0.5" in err

    def test_neumann_and_svg(self, tmp_path):
        prefix = tmp_path / "n"
        code = run(["spde", "--kappa", 0.1, "--sigma", 0.2, "--L", 2,
                    "--dx", 0.125, "--dt", 0.01, "--t", 0.5, "--boundary",
                    "neumann", "--init", "bump", "--seed", 3, "--svg",
                    "--out-prefix", prefix])
        assert code == 0
        assert (tmp_path / "n_field.svg").exists()
        assert (tmp_path / "n_profiles.svg").exists()

    def test_dirichlet_values_pin_the_ends(self, tmp_path):
        prefix = tmp_path / "d"
        code = run(["spde", "--kappa", 0.1, "--sigma", 0.2, "--L", 1,
                    "--dx", 0.125, "--dt", 0.01, "--t", 0.2, "--boundary",
                    "dirichlet:1.5,-2", "--init", "zero", "--svg",
                    "--out-prefix", prefix])
        assert code == 0
        field = np.genfromtxt(f"{prefix}_field.csv", delimiter=",", skip_header=1)
        assert np.all(field[:, 1] == 1.5) and np.all(field[:, -1] == -2.0)
        assert np.any(field[1:, 2:-1] != 0.0)  # the noise reaches the interior
        assert (tmp_path / "d_field.svg").exists()
        assert (tmp_path / "d_profiles.svg").exists()

    def test_non_finite_dx_exits_2(self, tmp_path, capsys):
        code = run(["spde", "--kappa", 0.1, "--sigma", 0, "--L", 1,
                    "--dx", "nan", "--dt", 0.01, "--t", 0.1,
                    "--out-prefix", tmp_path / "u"])
        assert code == 2
        assert "dx must be finite" in capsys.readouterr().err

    def test_bad_boundary_exits_2(self, tmp_path, capsys):
        code = run(["spde", "--kappa", 0.1, "--L", 1, "--dx", 0.125, "--dt",
                    0.01, "--t", 0.1, "--boundary", "dirichlet:1",
                    "--out-prefix", tmp_path / "b"])
        assert code == 2
        assert "dirichlet:LEFT,RIGHT" in capsys.readouterr().err


    @pytest.mark.parametrize("boundary, message", [
        ("dirichlet:a,0", "bad --boundary value: could not convert"),
        ("robin", "use dirichlet, dirichlet:LEFT,RIGHT, or neumann"),
        ("dirichlet:nan,0", "left boundary value must be finite, got nan"),
        ("dirichlet:0,-inf", "right boundary value must be finite, got -inf"),
    ], ids=["not_a_number", "robin", "left_nan", "right_minus_inf"])
    def test_malformed_boundary_exits_2(self, tmp_path, capsys, boundary, message):
        code = run(["spde", "--kappa", 0.1, "--L", 1, "--dx", 0.125, "--dt",
                    0.01, "--t", 0.1, "--boundary", boundary,
                    "--out-prefix", tmp_path / "b"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("length, dx", [(1e300, 1e-300), (1e20, 1)],
                             ids=["inf_nodes", "1e20_nodes"])
    def test_node_count_past_an_array_index_exits_2(self, tmp_path, capsys,
                                                    length, dx):
        """Sizes the grid refuses before numpy allocates anything."""
        code = run(["spde", "--kappa", 0.1, "--L", length, "--dx", dx, "--dt", 0.1,
                    "--t", 0.3, "--out-prefix", tmp_path / "s"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: length {float(length)} over dx={float(dx)} is ")
        assert err.endswith(" nodes, more than an array can index\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sigma", [0, 0.1], ids=["noiseless", "noisy"])
    def test_negative_seed_exits_2_writing_nothing(self, tmp_path, capsys, sigma):
        """The seed is checked even when a noiseless run draws nothing."""
        code = run(["spde", "--kappa", 0.1, "--sigma", sigma, "--L", 1, "--dx", 0.1,
                    "--dt", 0.001, "--t", 0.01, "--seed", -5,
                    "--out-prefix", tmp_path / "s"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed must be a 64-bit unsigned integer, got -5\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("svg", [[], ["--svg"]], ids=["csv", "svg"])
    def test_non_finite_field_exits_2_writing_nothing(self, tmp_path, capsys, svg):
        code = run(["spde", "--kappa", 0.1, "--sigma", 1e308, "--L", 1, "--dx", 0.25,
                    "--dt", 0.1, "--t", 0.3, *svg, "--out-prefix", tmp_path / "s"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the field leaves the float range at step 2 (t=0.2)\n")
        assert list(tmp_path.iterdir()) == []

    def test_bare_dirichlet_is_zero_at_both_ends(self, tmp_path):
        argv = ["spde", "--kappa", 0.1, "--sigma", 0.2, "--L", 1, "--dx", 0.125,
                "--dt", 0.01, "--t", 0.2, "--seed", 4, "--boundary"]
        assert run([*argv, "dirichlet", "--out-prefix", tmp_path / "bare"]) == 0
        assert run([*argv, "dirichlet:0,0", "--out-prefix", tmp_path / "zero"]) == 0
        for name in ("field", "profiles"):
            assert ((tmp_path / f"bare_{name}.csv").read_bytes()
                    == (tmp_path / f"zero_{name}.csv").read_bytes())


class TestEvolveCommand:
    def test_zero_mutation_reports_constant(self, tmp_path, capsys):
        out = tmp_path / "evo.csv"
        code = run(["evolve", "--mu", 0.05, "--sigma", 0.2, "--agents", 8,
                    "--generations", 4, "--mutation-sd", 0, "--t", 5,
                    "--paths", 5, "--initial-fraction", 0.7, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "generation,best_fraction,best_fitness"
        assert len(lines) == 5
        assert all(line.split(",")[1] == "0.69999999999999996"
                   for line in lines[1:])
        assert capsys.readouterr().out.strip() == "0.69999999999999996"

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evolve", "--mu", 0.05, "--sigma", 0.2, "--agents", 6,
                "--generations", 3, "--t", 2, "--paths", 4, "--seed", 9]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert sha256(a) == sha256(b)

    def test_workers_change_no_byte(self, tmp_path, capsys):
        """CI's floored glevy run, at 1 and 3 scoring threads."""
        argv = ["evolve", "--family", "glevy", "--alpha", 1.5, "--beta", 0,
                "--scale", 0.2, "--loc", 0.02, "--agents", 10, "--generations", 3,
                "--t", 10, "--dt", 0.01, "--paths", 10, "--f-max", 3, "--seed", 7]
        outputs = []
        for workers in (1, 3):
            out = tmp_path / f"evolve_{workers}.csv"
            assert run(argv + ["--workers", workers, "--out", out]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_default_to_the_usable_cores(self, tmp_path, monkeypatch, affinity):
        """Up to 2, and 1 where 2 groups would have fewer than 500 columns."""
        seen = []
        monkeypatch.setattr("stokit.agents.evolutionary_optimize",
                            lambda config, spec, workers: seen.append(workers)
                            or (0.5, []))
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        if affinity:  # 1 usable core of 6
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        argv = ["evolve", "--mu", 0.05, "--sigma", 0.2, "--out", tmp_path / "x.csv"]
        assert run(argv) == 0  # 40 x 50 columns
        assert run(argv + ["--workers", 5]) == 0
        for paths in (99, 100):
            assert run(argv + ["--agents", 10, "--paths", paths]) == 0
        assert seen == [1, 5, 1, 1] if affinity else seen == [2, 5, 1, 2]

    def test_paths_past_an_array_exit_2(self, tmp_path, capsys):
        """Refused before anything is allocated."""
        assert run(["evolve", "--mu", 0.05, "--sigma", 0.2, "--paths", 2 ** 62,
                    "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: 40 agents x {2 ** 62} paths are more scores "
                       "than an array can hold\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_exits_2(self, tmp_path):
        code = run(["evolve", "--mu", 0.05, "--sigma", 0.2, "--agents", 1,
                    "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_non_finite_drift_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["evolve", "--mu", "nan", "--sigma", 0.2, "--agents", 4,
                    "--generations", 2, "--t", 1, "--paths", 2, "--out", out])
        assert code == 2
        assert capsys.readouterr() == ("", "error: mu must be finite, got nan\n")
        assert not out.exists()


    @pytest.mark.parametrize("flag", ["--f-min", "--f-max", "--mutation-sd"])
    def test_non_finite_pool_number_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        code = run(["evolve", "--mu", 0.05, "--sigma", 0.2, "--agents", 4,
                    "--generations", 2, "--t", 1, "--paths", 2, flag, "nan",
                    "--out", out])
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr() == ("", f"error: {name} must be finite, got nan\n")
        assert not out.exists()


class TestReplicateCommand:
    def test_produces_five_figures_and_manifest(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run(["replicate", "--outdir", outdir, "--seed", 1]) == 0
        csvs = sorted(p.name for p in outdir.glob("*.csv"))
        svgs = sorted(p.name for p in outdir.glob("*.svg"))
        assert csvs == [f"fig{i}.csv" for i in range(1, 6)]
        assert svgs == [f"fig{i}.svg" for i in range(1, 6)]
        manifest = (outdir / "manifest.txt").read_text().splitlines()
        digests = [line for line in manifest if not line.startswith("#")]
        assert len(digests) == 10
        for line in digests:
            name, digest = line.split("\t")
            assert digest == sha256(outdir / name)

    def test_manifest_names_environment(self, tmp_path):
        outdir = tmp_path / "figs"
        assert run(["replicate", "--outdir", outdir, "--seed", 1]) == 0
        comments = [line for line in (outdir / "manifest.txt").read_text().splitlines()
                    if line.startswith("#")]
        assert f"# numpy {np.__version__}" in comments
        assert f"# dispatch {' '.join(_dispatch_targets()) or 'none'}" in comments

    def test_round_trip_parses_as_ensemble(self, tmp_path):
        out = tmp_path / "e.csv"
        run(["simulate", "ou", "--theta", 1, "--mean", 0, "--scale", 0.5,
             "--x0", 1, "--t", 1, "--dt", 0.1, "--n", 3, "--seed", 2,
             "--out", out])
        ens = read_ensemble_csv(out)
        direct = simulate(OrnsteinUhlenbeck(1.0, 0.0, 0.5, 1.0), 1.0, 0.1, 3, 2)
        np.testing.assert_array_equal(ens.values, direct.values)


def traced_diagnose(monkeypatch, argv):
    """Run the `diagnose` argv ``argv`` under a started tracemalloc; return
    the peak of what its handler allocated beyond what was allocated before
    it, so that the argument parser built before it is not counted."""
    handler, peak = cli.cmd_diagnose, []

    def traced(args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        code = handler(args)
        peak.append(tracemalloc.get_traced_memory()[1] - before)
        return code

    monkeypatch.setattr(cli, "cmd_diagnose", traced)
    assert run(argv) == 0
    return peak[0]


def test_csv_io_memory_is_one_piece_not_the_file(tmp_path, monkeypatch):
    """`simulate --out` and `read_ensemble_csv` add less than a quarter of
    the file's size to what the ensemble array itself takes, and a whole
    `diagnose --in` run (read, diagnostics and outputs) less than a quarter
    of the file's size: none holds the file's text or a second full-size
    table, and `diagnose --in` holds no ensemble array."""
    monkeypatch.setattr(csvio, "_PIECE_CELLS", 2048)  # 6-row pieces here
    added = {}

    def simulate_then_mark(*args, **kwargs):
        ensemble = simulate(*args, **kwargs)
        tracemalloc.reset_peak()
        added["before_write"] = tracemalloc.get_traced_memory()[0]
        return ensemble

    monkeypatch.setattr(processes, "simulate", simulate_then_mark)
    out = tmp_path / "e.csv"
    diagnose = ["diagnose", "--in", out, "--growth", "--out-prefix", tmp_path / "d"]
    importlib.import_module("stokit.figures")  # and what it imports, before tracing
    tracemalloc.start()
    try:
        assert run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 2,
                    "--dt", 0.01, "--n", 300, "--seed", 5, "--out", out]) == 0
        added["write"] = tracemalloc.get_traced_memory()[1] - added["before_write"]
        added["diagnose"] = traced_diagnose(monkeypatch, diagnose)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        values = csvio.read_ensemble_csv(out).values
        added["read"] = tracemalloc.get_traced_memory()[1] - before - values.nbytes
    finally:
        tracemalloc.stop()
    quarter = out.stat().st_size / 4
    assert added["write"] < quarter
    assert added["diagnose"] < quarter
    assert added["read"] < quarter


def test_diagnose_in_of_a_large_file_stays_small(tmp_path, monkeypatch):
    """Every diagnostic and chart of a 1000 x 1001 file (19 MB of text, 8 MB
    of values) peaks under 6 MB."""
    out = tmp_path / "e.csv"
    assert run(["simulate", "gbm", "--mu", 0.05, "--sigma", 0.2, "--t", 10,
                "--dt", 0.01, "--n", 1000, "--seed", 5, "--out", out]) == 0
    every = ["diagnose", "--in", out, "--fan", "--summary", "--growth", "--preasym",
             "--svg", "--out-prefix", tmp_path / "d"]
    assert run(every) == 0  # the first run imports modules and builds tables
    tracemalloc.start()
    try:
        peak = traced_diagnose(monkeypatch, every)
    finally:
        tracemalloc.stop()
    assert peak < 6e6


# --- diagnose --in on faulty files, at piece edges ----------------------------

EVERY_DIAGNOSTIC = ["--fan", "--summary", "--growth", "--preasym", "--preasym-window", "3"]
FAULTS = ["none", "bad", "short", "nonuniform", "offset", "single", "blank", "cr",
          "crlf", "utf8"]


@st.composite
def faulty_files(draw):
    """``(fault, bytes of the file, bytes of the file without it)``: a few
    rows of positive values, maybe one non-positive value, and one fault."""
    n_inst, n_rows = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    cells = [[repr(0.25 * r)] + [repr(draw(st.floats(0.125, 8.0))) for _ in range(n_inst)]
             for r in range(n_rows)]
    if draw(st.booleans()):
        cells[draw(st.integers(0, n_rows - 1))][draw(st.integers(1, n_inst))] = "-1.5"
    fault, r = draw(st.sampled_from(FAULTS)), draw(st.integers(0, n_rows - 1))
    clean = ["time," + ",".join(f"inst_{i}" for i in range(n_inst))]
    clean += [",".join(row) for row in cells]
    lines, end = list(clean), "\n"
    if fault == "bad":
        lines[1 + r] = lines[1 + r].rsplit(",", 1)[0] + "," + draw(
            st.sampled_from(["x", "nan", "-inf", "1e999", "", "1_0"]))
    elif fault == "short":
        lines[1 + r] = lines[1 + r].rsplit(",", 1)[0]
    elif fault == "nonuniform":
        lines[1 + r] = repr(0.25 * r + 0.125) + "," + lines[1 + r].split(",", 1)[1]
    elif fault == "offset":
        lines[1:] = [repr(0.25 * k + 0.5) + "," + line.split(",", 1)[1]
                     for k, line in enumerate(lines[1:])]
    elif fault == "single":
        lines = lines[:2]
    elif fault == "blank":
        lines.insert(1 + r, "")
    elif fault in ("cr", "crlf"):
        end = {"cr": "\r", "crlf": "\r\n"}[fault]
    elif fault == "utf8":
        lines[1 + r] += "\udcff"
    data = "".join(line + end for line in lines).encode("utf-8", "surrogateescape")
    return fault, data, "".join(line + "\n" for line in clean).encode()


def matrix_outcome(path):
    """Exit code and message of `diagnose --in path` with `EVERY_DIAGNOSTIC`,
    as reading the whole ensemble first and then running each diagnostic in
    order gives them."""
    try:
        ensemble = read_ensemble_csv(path)
        quantile_fan(ensemble)
        summary_curves(ensemble)
        growth_rates(ensemble)
        preasymptotic_report(ensemble.values[0], ensemble.grid, window=3)
    except errors.StokitError as exc:
        return exc.exit_code, f"error: {exc}\n"
    return 0, ""


def outputs(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()
            if path.name.startswith("d_")}


@settings(max_examples=80, deadline=None)
@given(faulty_files(), st.integers(1, 3), st.integers(1, 2))
@example(("blank", b"time,inst_0,inst_1\n\n0,1,1\n0.25,1,1\n",
          b"time,inst_0,inst_1\n0,1,1\n0.25,1,1\n"), 1, 1)  # a piece of one blank line
def test_streamed_diagnose_fails_as_the_matrix_path(case, read_cells, run_cells):
    """Whatever piece and kernel-run edge a fault falls at, `diagnose --in`
    gives the exit code and one-line message of reading the whole file and
    then running each diagnostic in turn (parse errors, then grid errors,
    then fan, summary, growth and preasym), writes no file when it fails and
    the clean file's bytes when it does not, and leaves no file open."""
    fault, data, clean = case
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "e.csv").write_bytes(data)
        (tmp / "clean.csv").write_bytes(clean)
        code, message = matrix_outcome(tmp / "e.csv")
        stderr = io.StringIO()
        with mock.patch.multiple(csvio, _PIECE_CELLS=read_cells, _SLICE_CELLS=run_cells), \
                mock.patch.object(csvio, "open", tracked_open, create=True), \
                contextlib.redirect_stderr(stderr):
            got = run(["diagnose", "--in", tmp / "e.csv", *EVERY_DIAGNOSTIC,
                       "--out-prefix", tmp / "d"])
        assert (got, stderr.getvalue()) == (code, message), fault
        assert opened and all(fh.closed for fh in opened)
        written = outputs(tmp)
        if code:
            assert written == {}
        else:
            (tmp / "clean").mkdir()
            assert run(["diagnose", "--in", tmp / "clean.csv", *EVERY_DIAGNOSTIC,
                        "--out-prefix", tmp / "clean" / "d"]) == 0
            assert written == outputs(tmp / "clean")


def test_a_parse_error_late_in_the_file_comes_before_an_early_diagnostic_error(
        tmp_path, capsys):
    lines = ["time,inst_0,inst_1"] + [f"{0.25 * r!r},1.5,2.5" for r in range(900)]
    lines[2] = "0.25,-1.5,2.5"  # line 3: no summary, no growth
    lines[899] = "224.5,1.5,x"  # line 900
    path = tmp_path / "e.csv"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.multiple(csvio, _PIECE_CELLS=8, _SLICE_CELLS=4):
        assert run(["diagnose", "--in", path, *EVERY_DIAGNOSTIC,
                    "--out-prefix", tmp_path / "d"]) == 2
    message = f"{path}:900: bad value 'x' in column 'inst_1'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["e.csv"]


@pytest.mark.parametrize("argv", [
    ["simulate", "brownian", "--t", 1, "--dt", 0.1, "--n", 2, "--out", "{tmp}/x.csv"],
    ["diagnose", "--family", "brownian", "--t", 1, "--dt", 0.1, "--n", 2,
     "--growth", "--out-prefix", "{tmp}/x"],
    ["replicate", "--outdir", "{tmp}/figs"],
    ["evolve", "--mu", 0.05, "--sigma", 0.2, "--agents", 4, "--generations", 2,
     "--t", 1, "--paths", 2, "--out", "{tmp}/x.csv"],
])
@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_exit_2(tmp_path, capsys, argv, workers):
    argv = [str(a).format(tmp=tmp_path) for a in argv] + ["--workers", workers]
    assert run(argv) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_start_up_imports_no_url_or_thread_pool_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl;
    # concurrent.futures is needed only by runs with --workers > 1.
    src = Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, stokit, stokit.cli; "
             "print(sorted({'urllib.request', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def _loaded_after(code: str) -> set[str]:
    """The stokit submodules, and hashlib, that a fresh interpreter holds
    after running `code`."""
    src = Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    probe = (f"import sys\n{code}\nprint(*(m for m in sys.modules "
             "if m.startswith('stokit.') or m == 'hashlib'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return set(done.stdout.split())


def test_start_up_loads_only_what_the_command_runs(tmp_path):
    assert _loaded_after("import stokit") == set()
    unused = {f"stokit.{name}" for name in ("agents", "csvio", "diagnostics", "figures",
                                            "fitting", "spde", "svgplot")} | {"hashlib"}
    assert not _loaded_after("import stokit.cli; stokit.cli.build_parser()") & unused
    argv = ["simulate", "gbm", "--mu", "0.05", "--sigma", "0.2", "--t", "1",
            "--dt", "0.1", "--n", "3", "--out", str(tmp_path / "x.csv")]
    assert _loaded_after(f"import stokit.cli; assert stokit.cli.main({argv!r}) == 0") == {
        "stokit.cli", "stokit.csvio", "stokit.errors", "stokit.processes", "stokit.rng",
        "stokit.specs"}


@pytest.mark.parametrize("code, exit_code", [
    ("import stokit.cli; stokit.cli.build_parser()", 0),
    ("import stokit.cli; stokit.cli.main(['--version'])", 0),
    ("import stokit.cli; stokit.cli.main(['--help'])", 0),
    ("import stokit.cli; stokit.cli.main(['simulate', 'gbm', '--help'])", 0),
    ("import stokit.cli; stokit.cli.main(['simulate', 'gbm', '--mu', '0'])", 2),
    ("import stokit; stokit.Brownian", 0),
], ids=["build_parser", "version", "help", "subcommand_help", "missing_flag",
        "spec_class"])
def test_parsing_loads_no_numpy(code, exit_code):
    """Parsing, the help and version texts, usage errors and the spec classes
    load neither numpy nor dataclasses: only a command's handler imports
    numpy, and the spec classes become dataclasses at the first construction."""
    src = Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    probe = (f"import sys\ntry:\n    {code}\nfinally:\n"
             "    print(sorted({'numpy', 'dataclasses'} & set(sys.modules)), "
             "file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == exit_code
    assert done.stderr.splitlines()[-1] == "[]"


def readme_exit_codes():
    """{error class name: exit code}, from the README's table of exit codes."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\d)` \|[^|]*\|([^|]*)\|$", readme, re.MULTILINE)
    return {name: int(code) for code, names in rows
            for name in re.findall(r"`(\w+)`", names)}


ERRORS = [value for value in vars(errors).values()
          if isinstance(value, type) and issubclass(value, errors.StokitError)]


def test_readme_names_every_error_once():
    assert sorted(readme_exit_codes()) == sorted(
        e.__name__ for e in [*ERRORS, OSError, MemoryError])


@pytest.mark.parametrize("error", [*ERRORS, OSError, MemoryError],
                         ids=lambda error: error.__name__)
def test_each_error_exits_with_its_readme_code(tmp_path, capsys, error):
    code = readme_exit_codes()[error.__name__]
    if error not in (OSError, MemoryError):
        assert error.exit_code == code
    with mock.patch.object(cli, "cmd_simulate", side_effect=error("boom")):
        assert run(["simulate", "gbm", "--mu", 0, "--sigma", 0, "--t", 1, "--dt", 0.1,
                    "--n", 1, "--out", tmp_path / "x.csv"]) == code
    assert capsys.readouterr().err == "error: boom\n"
