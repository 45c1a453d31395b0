import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlczsim import chain_sim, cli, experiments, fitters
from dlczsim.config_io import ChainParams, format_cell, parse_config
from dlczsim.errors import ParameterError, StalledChainError, field_spec
from dlczsim.fitters import FitResult
from dlczsim.rate import swap_chain

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(argv):
    return cli.main([str(a) for a in argv])


def write_chain_config(tmp_path, **overrides) -> Path:
    fields = dict(l0_km=63.0, l_att_km=22.0, n_levels=4, fiber_speed_km_s=2e5,
                  eta_fc=0.46, eta_td=0.9, chi=0.01, mode_count=100,
                  r0=0.8, tau0_s=16.0, swap_intrinsic_factor=1.0)
    fields.update(overrides)
    body = "[chain]\n" + "\n".join(f"{k} = {v}" for k, v in fields.items())
    body += "\n[sim]\ntrials = 50\nseed = 11\nmax_sim_time_s = 3600.0\n"
    path = tmp_path / "chain.ini"
    path.write_text(body)
    return path


def write_link_config(tmp_path, link_lines="", storage_times="1.0", mode_counts="1, 2",
                      window_budget=100000) -> Path:
    """The calibrated [link] plus ``link_lines``, at seed 5 with small scan budgets."""
    path = tmp_path / "link.ini"
    path.write_text(
        (CONFIGS / "link_calibrated.ini").read_text().split("[sim]")[0] + link_lines
        + "[sim]\nseed = 5\n"
        f"[experiment]\nstorage_times_us = {storage_times}\nmode_counts = {mode_counts}\n"
        f"trains = 20000\nwindow_budget = {window_budget}\n"
        "fringe_phases = 12\nfringe_shots = 2000\n")
    return path


class TestRate:
    def test_projection_reports_rate_above_one_hz(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["rate", "--config", CONFIGS / "projection.ini", "--out-dir", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rate_hz" in stdout
        report = json.loads((out / "rate.json").read_text())
        assert report["rate_hz"] >= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "rate"
        assert str(out / "rate.json") in manifest["outputs"]

    def test_single_mode_collapses_multiplexing(self, tmp_path, capsys):
        config = write_chain_config(tmp_path, mode_count=1)
        out = tmp_path / "out"
        assert run(["rate", "--config", config, "--out-dir", out]) == 0
        report = json.loads((out / "rate.json").read_text())
        assert report["p0_multiplexed"] == pytest.approx(report["p0"], abs=1e-15)

    def test_zero_chi_warns_and_reports_zero_rate(self, tmp_path, capsys):
        config = write_chain_config(tmp_path, chi=0.0)
        assert run(["rate", "--config", config]) == 0
        captured = capsys.readouterr()
        assert "stalled" in captured.err
        assert "rate_hz 0" in captured.out

    def test_missing_config_is_a_parse_error(self, tmp_path):
        assert run(["rate", "--config", tmp_path / "none.ini"]) == 2

    def test_domain_violation_exits_three(self, tmp_path):
        config = write_chain_config(tmp_path, chi=1.5)
        assert run(["rate", "--config", config]) == 3

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "latin.ini"
        config.write_bytes(b"[chain]\nl0_km = 63\n# \xff\xfe\n")
        out = tmp_path / "out"
        assert run(["rate", "--config", config, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {config}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("l0_km", "1e-308"),   # T_cc subnormal: rate = .../T_cc overflows
        ("eta_td", "0.05"),    # P_4 subnormal: t_4 = t_3/P_4 overflows
    ])
    def test_overflow_exits_three(self, tmp_path, capsys, key, value):
        config = tmp_path / "overflow.ini"
        text = (CONFIGS / "projection.ini").read_text()
        lines = [f"{key} = {value}" if line.startswith(f"{key} ") else line
                 for line in text.splitlines()]
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["rate", "--config", config, "--out-dir", out]) == 3
        captured = capsys.readouterr()
        assert "rate_hz" not in captured.out
        assert not (out / "rate.json").exists()


    @pytest.mark.parametrize("key, bad", [
        ("max_sim_time_s", "nan"), ("trials", "-5"), ("seed", "-7"),
    ])
    def test_out_of_range_sim_value_exits_three(self, tmp_path, capsys, key, bad):
        config = tmp_path / "bad_sim.ini"
        text = (CONFIGS / "projection.ini").read_text()
        lines = [f"{key} = {bad}" if line.startswith(f"{key} ") else line
                 for line in text.splitlines()]
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["rate", "--config", config, "--out-dir", out]) == 3
        assert "rate_hz" not in capsys.readouterr().out
        assert not (out / "manifest.json").exists()


class TestSimulate:
    def test_elementary_mode_matches_analytic(self, tmp_path, capsys):
        config = write_chain_config(tmp_path)
        out = tmp_path / "out"
        code = run(["simulate", "--config", config, "--elementary",
                    "--trials", 100000, "--out-dir", out])
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        p = trace["analytic_success"]
        sigma = (p * (1 - p) / 100000) ** 0.5
        assert abs(trace["empirical_success"] - p) < 3 * sigma

    def test_deterministic_outputs_across_runs_and_workers(self, tmp_path):
        config = write_chain_config(tmp_path)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        assert run(["simulate", "--config", config, "--out-dir", outs[0]]) == 0
        assert run(["simulate", "--config", config, "--out-dir", outs[1]]) == 0
        assert run(["simulate", "--config", config, "--out-dir", outs[2],
                    "--workers", 2]) == 0
        trace_bytes = [(o / "trace.json").read_bytes() for o in outs]
        latency_bytes = [(o / "latency.csv").read_bytes() for o in outs]
        assert trace_bytes[0] == trace_bytes[1] == trace_bytes[2]
        assert latency_bytes[0] == latency_bytes[1] == latency_bytes[2]

    @pytest.mark.parametrize("max_sim_time", ["inf", "nan"])
    def test_non_finite_max_sim_time_exits_three_before_any_trial(
            self, tmp_path, monkeypatch, max_sim_time):
        config = write_chain_config(tmp_path)
        body = config.read_text().replace("max_sim_time_s = 3600.0",
                                          f"max_sim_time_s = {max_sim_time}")
        config.write_text(body)
        started = []
        monkeypatch.setattr(cli, "simulate_chain", lambda *a, **k: started.append(a))
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out-dir", out]) == 3
        assert started == []
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("workers", [0, -5])
    def test_non_positive_workers_exits_two(self, tmp_path, capsys, workers):
        config = write_chain_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--config", config, "--workers", workers])
        assert exc.value.code == 2
        assert (f"argument --workers: must be finite and >= 1, got {workers}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("n_levels", [21, 64])
    def test_too_deep_chain_exits_three_before_any_trial(
            self, tmp_path, monkeypatch, capsys, n_levels):
        config = write_chain_config(tmp_path, n_levels=n_levels)
        drawn = []
        monkeypatch.setattr(chain_sim, "substream", lambda *a: drawn.append(a))
        assert run(["simulate", "--config", config]) == 3
        assert drawn == []
        assert "n_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--elementary"]])
    def test_too_many_trials_exits_three_before_any_trial(
            self, tmp_path, monkeypatch, capsys, mode):
        config = write_chain_config(tmp_path)
        drawn = []
        monkeypatch.setattr(chain_sim, "substream", lambda *a: drawn.append(a))
        assert run(["simulate", "--config", config, *mode,
                    "--trials", 1_000_000_000_000]) == 3
        assert drawn == []
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("n_levels = 4", "n_levels = 25", "n_levels"),
        ("max_sim_time_s = 3600.0", "max_sim_time_s = 0.0001", "max_sim_time"),
    ])
    def test_chain_limits_bind_only_the_chain_mode(self, tmp_path, monkeypatch, capsys,
                                                   old, new, field):
        # the depth and the time guard bound the chain Monte Carlo; the
        # elementary link draws neither
        config = write_chain_config(tmp_path)
        config.write_text(config.read_text().replace(old, new))
        assert run(["simulate", "--config", config, "--elementary"]) == 0
        capsys.readouterr()
        drawn = []
        monkeypatch.setattr(chain_sim, "substream", lambda *a: drawn.append(a))
        assert run(["simulate", "--config", config]) == 3
        assert drawn == []
        assert field in capsys.readouterr().err

    def test_chain_rate_calls_stalled_exits_three_before_any_trial(
            self, tmp_path, monkeypatch, capsys):
        config = write_chain_config(tmp_path, n_levels=10, swap_intrinsic_factor=0.05)

        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(chain_sim, "_round", no_trial)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--trials", 1, "--out-dir", out]) == 3
        assert "stalled" in capsys.readouterr().err
        assert not (out / "trace.json").exists()
        assert not (out / "manifest.json").exists()

    def test_trial_over_the_round_budget_exits_three(self, tmp_path, monkeypatch, capsys):
        # a 6-level trial fits a 64-link round only if all 63 swaps succeed at once
        monkeypatch.setattr(chain_sim, "MAX_ROUND_LINKS", 64)
        config = write_chain_config(tmp_path, n_levels=6)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out-dir", out]) == 3
        assert "MAX_ROUND_LINKS = 64" in capsys.readouterr().err
        assert not (out / "trace.json").exists()

    def test_timeout_dominated_run_exits_four(self, tmp_path):
        config = write_chain_config(tmp_path, chi=1e-5)
        body = config.read_text().replace("max_sim_time_s = 3600.0", "max_sim_time_s = 0.05")
        config.write_text(body)
        assert run(["simulate", "--config", config]) == 4

    @pytest.mark.parametrize("mode", [[], ["--elementary"]])
    def test_no_out_dir_builds_no_result_text(self, tmp_path, monkeypatch, capsys, mode):
        # trace.json holds one number a delivery or success: a run that writes
        # nothing must not build it
        config = write_chain_config(tmp_path)
        assert run(["simulate", "--config", config, *mode]) == 0
        printed = capsys.readouterr().out
        monkeypatch.setattr(cli, "canonical_json", lambda *a: pytest.fail("a text was built"))
        assert run(["simulate", "--config", config, *mode]) == 0
        assert capsys.readouterr().out == printed


class TestLinkExperiment:
    def test_emits_scan_files(self, tmp_path):
        config = tmp_path / "link.ini"
        config.write_text(
            "[link]\nchi = 0.01\nmode_count = 12\n"
            "detection_eff = 0.1848\neta_td = 0.1239\ncrosstalk_eps = 0.6664\n"
            "retrieval_eff_zero = 0.707\nmemory_lifetime_s = 0.0003\n"
            "[sim]\nseed = 5\n"
            "[experiment]\nstorage_times_us = 1.0\nmode_counts = 1, 12\n"
            "trains = 60000\nwindow_budget = 200000\n"
            "fringe_phases = 12\nfringe_shots = 2000\n")
        out = tmp_path / "out"
        assert run(["link-experiment", "--config", config, "--out-dir", out]) == 0
        storage = (out / "storage_scan.csv").read_text().splitlines()
        assert storage[0] == "storage_time_us,C,C_stderr,V,eta"
        assert len(storage) == 2
        modes = (out / "mode_scan.csv").read_text().splitlines()
        assert modes[0] == "mode_count,P_D,C"
        assert len(modes) == 3

    def test_flat_fringe_writes_an_infinite_concurrence_error(self, tmp_path):
        # no fringe shots: every fringe count is 0, so V = 0 with no error bar
        path = write_link_config(tmp_path, storage_times="1.0, 150.0")
        path.write_text(path.read_text().replace("fringe_shots = 2000", "fringe_shots = 0"))
        out = tmp_path / "out"
        assert run(["link-experiment", "--config", path, "--out-dir", out]) == 0
        rows = [line.split(",") for line in (out / "storage_scan.csv").read_text().splitlines()]
        assert rows[0] == ["storage_time_us", "C", "C_stderr", "V", "eta"]
        assert [(row[2], row[3]) for row in rows[1:]] == [("inf", "0"), ("inf", "0")]

    def test_negative_seed_exits_three(self, tmp_path):
        config = tmp_path / "link.ini"
        config.write_text("[link]\nchi = 0.01\n[experiment]\nstorage_times_us = 1.0\n"
                          "mode_counts = 1\ntrains = 100\nwindow_budget = 100\n")
        assert run(["link-experiment", "--config", config, "--seed", -3]) == 3

    def test_too_few_fringe_phases_exits_two_before_any_trial(self, tmp_path, monkeypatch):
        config = tmp_path / "link.ini"
        config.write_text("[link]\nchi = 0.01\n[experiment]\nstorage_times_us = 1.0\n"
                          "mode_counts = 1\ntrains = 100\nwindow_budget = 100\n"
                          "fringe_phases = 3\n")
        started = []
        monkeypatch.setattr(experiments, "run_link_trials", lambda *a, **k: started.append(a))
        assert run(["link-experiment", "--config", config]) == 2
        assert started == []

    def test_slot_budget_over_the_cap_exits_three_before_any_draw(self, tmp_path, monkeypatch,
                                                                  capsys):
        config = tmp_path / "link.ini"
        config.write_text((CONFIGS / "link_calibrated.ini").read_text()
                          .replace("trains = 1500000", "trains = 1000000000000"))

        def no_draw(*args, **kwargs):
            raise AssertionError("a scan point was drawn")
        monkeypatch.setattr(experiments, "_point", no_draw)
        out = tmp_path / "out"
        assert run(["link-experiment", "--config", config, "--out-dir", out]) == 3
        assert f"more than {experiments.MAX_LINK_SLOTS}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edits, code", [
        # one train of 10^6 + 1 modes: under the slot cap
        ({"mode_count = 12": "mode_count = 1000001", "trains = 1500000": "trains = 1"}, 3),
        ({"mode_counts = 1, 2,": "mode_counts = 1000001, 2,"}, 2),
        ({"fringe_shots = 4000": "fringe_shots = 100000000000000000000"}, 2),
    ])
    def test_oversize_link_exits_before_any_scan(self, tmp_path, monkeypatch, edits, code):
        text = (CONFIGS / "link_calibrated.ini").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "link.ini"
        config.write_text(text)

        def no_scan(*args, **kwargs):
            raise AssertionError("a scan ran")
        monkeypatch.setattr(cli, "storage_time_scan", no_scan)
        monkeypatch.setattr(cli, "mode_count_scan", no_scan)
        assert run(["link-experiment", "--config", config]) == code

    def test_zero_detection_efficiency_exits_three_before_any_trial(self, tmp_path,
                                                                    monkeypatch):
        config = tmp_path / "link.ini"
        config.write_text("[link]\nchi = 0.01\ndetection_eff = 0\n")
        started = []
        monkeypatch.setattr(experiments, "run_link_trials", lambda *a, **k: started.append(a))
        assert run(["link-experiment", "--config", config]) == 3
        assert started == []

    def test_trials_flag_is_rejected(self, tmp_path):
        # --trials overrides the chain trial count, so only simulate takes it
        config = tmp_path / "link.ini"
        config.write_text("[link]\nchi = 0.01\n")
        with pytest.raises(SystemExit) as exc:
            run(["link-experiment", "--config", config, "--trials", 5])
        assert exc.value.code == 2

    def test_zero_heralds_exits_four(self, tmp_path):
        config = tmp_path / "link.ini"
        config.write_text(
            "[link]\nchi = 0.0\n"
            "[experiment]\nstorage_times_us = 1.0\nmode_counts = 1\n"
            "trains = 100\nwindow_budget = 100\n")
        assert run(["link-experiment", "--config", config]) == 4


    def test_zero_heralds_at_a_mode_point_exits_four(self, tmp_path, capsys):
        # the storage point draws 20000 trains and heralds; the N = 1 mode
        # point draws 10 trains and, at this seed, none of them heralds
        config = write_link_config(tmp_path, mode_counts="1", window_budget=10)
        out = tmp_path / "out"
        assert run(["link-experiment", "--config", config, "--out-dir", out]) == 4
        assert "N=1" in capsys.readouterr().err
        assert not (out / "storage_scan.csv").exists()
        assert not (out / "mode_scan.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_unconverged_fringe_fit_warns_once_per_point(self, tmp_path, monkeypatch,
                                                          capsys):
        # the scans report the fit's flag; the exit code and the CSVs stay as
        # for a converged fit
        config = write_link_config(tmp_path, storage_times="1.0, 150.0", mode_counts="1, 12")
        assert run(["link-experiment", "--config", config, "--out-dir", tmp_path / "a"]) == 0
        assert "warning" not in capsys.readouterr().err

        fit_sinusoid = experiments.fit_sinusoid
        monkeypatch.setattr(experiments, "fit_sinusoid", lambda samples: dataclasses.replace(
            fit_sinusoid(samples), converged=False))
        assert run(["link-experiment", "--config", config, "--out-dir", tmp_path / "b"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: the fringe fit did not converge at storage time {t} us, N = {n}"
            for t, n in ((1, 12), (150, 12), (1, 1), (1, 12))]
        for name in ("storage_scan.csv", "mode_scan.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_thirty_modes_run(self, tmp_path):
        # no write-pulse timing is declared, so no train length caps N
        config = write_link_config(tmp_path)
        config.write_text(config.read_text().replace("mode_count = 12", "mode_count = 30"))
        assert run(["link-experiment", "--config", config]) == 0

    @pytest.mark.parametrize("key", ["pulse_interval_s", "train_duration_s", "phase_s_rad",
                                     "phase_as_rad", "fringe_offset_rad"])
    def test_retired_link_keys_exit_two(self, tmp_path, capsys, key):
        config = write_link_config(tmp_path, f"{key} = 0.5\n")
        assert run(["link-experiment", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "[link] has unknown keys" in err and key in err

    def test_multi_excitation_warning_is_one_warning_line(self, tmp_path, capsys):
        config = write_link_config(tmp_path)
        config.write_text(config.read_text().replace("chi = 0.01", "chi = 0.2"))
        assert run(["link-experiment", "--config", config, "--out-dir", tmp_path / "a"]) == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "chi^3" in line] == [
            "warning: chi = 0.2 > 0.1: each mode's photon-number law drops the mass "
            "chi^3 = 0.008 of 3 or more excitations"]
        assert "UserWarning" not in err
        # the warning changes neither the exit code nor a result file
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["link-experiment", "--config", config,
                        "--out-dir", tmp_path / "b"]) == 0
        assert "warning" not in capsys.readouterr().err
        for name in ("storage_scan.csv", "mode_scan.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()



class TestResultLayouts:
    """The exact keys and columns of every result file, which cli lays out."""

    def test_scan_rows_are_the_scan_points(self, tmp_path):
        path = write_link_config(tmp_path, storage_times="1.0, 150.0", mode_counts="1, 12")
        out = tmp_path / "out"
        assert run(["link-experiment", "--config", path, "--out-dir", out]) == 0

        config = parse_config(path)
        storage = experiments.storage_time_scan(config)
        modes = experiments.mode_count_scan(config)
        assert [p.mode_count for p in storage] == [12, 12]
        assert [(p.storage_time, p.mode_count) for p in modes] == [(1e-6, 1), (1e-6, 12)]

        def cells(name):
            return [line.split(",") for line in (out / name).read_text().splitlines()]
        assert cells("storage_scan.csv") == [["storage_time_us", "C", "C_stderr", "V", "eta"]] + [
            [format_cell(v) for v in (p.storage_time * 1e6, p.concurrence,
                                      p.concurrence_stderr, p.visibility, p.efficiency)]
            for p in storage]
        assert cells("mode_scan.csv") == [["mode_count", "P_D", "C"]] + [
            [format_cell(v) for v in (p.mode_count, p.detection_probability, p.concurrence)]
            for p in modes]

    def test_rate_json_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run(["rate", "--config", CONFIGS / "projection.ini", "--out-dir", out]) == 0
        assert set(json.loads((out / "rate.json").read_text())) == {
            "p0", "p0_multiplexed", "p0_linear", "t_cc_s", "t0_s",
            "level_success", "level_time_s", "p_pr", "rate_hz"}

    def test_stalled_rate_json_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run(["rate", "--config", write_chain_config(tmp_path, chi=0.0),
                    "--out-dir", out]) == 0
        assert json.loads((out / "rate.json").read_text()) == {
            "rate_hz": 0, "stalled_level": 0}

    def test_chain_trace_json_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_chain_config(tmp_path), "--trials", 20,
                    "--out-dir", out]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert set(trace) == {
            "trials", "seed", "delivered", "timeouts", "swap_attempts", "swap_successes",
            "readout_attempts", "readout_successes", "empirical_rate_hz",
            "rate_stderr_hz", "analytic_rate_hz", "mean_delivery_time_s",
            "delivery_times_s"}
        assert (trace["trials"], trace["seed"]) == (20, 11)

    def test_elementary_trace_json_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_chain_config(tmp_path), "--elementary",
                    "--out-dir", out]) == 0
        assert set(json.loads((out / "trace.json").read_text())) == {
            "mode", "intervals", "successes", "empirical_success", "analytic_success",
            "waiting_times_tcc"}


class TestFit:
    def test_exponential_reference_fit(self, tmp_path, capsys):
        t = np.linspace(0.0, 1e-3, 15)
        y = 0.707 * np.exp(-t / 3e-4)
        csv = tmp_path / "decay.csv"
        csv.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)))
        out = tmp_path / "out"
        assert run(["fit", csv, "--model", "exp", "--out-dir", out]) == 0
        result = json.loads((out / "fit.json").read_text())
        assert result["params"]["r0"] == pytest.approx(0.707, rel=1e-6)
        assert result["params"]["tau0"] == pytest.approx(3e-4, rel=1e-6)

    def test_linear_reference_fit(self, tmp_path):
        rows = "\n".join(f"{n},{2.5e-3 * n}" for n in range(1, 13))
        csv = tmp_path / "modes.csv"
        csv.write_text("x,y\n" + rows)
        out = tmp_path / "out"
        assert run(["fit", csv, "--model", "linear", "--out-dir", out]) == 0
        result = json.loads((out / "fit.json").read_text())
        assert result["params"]["slope"] == pytest.approx(2.5e-3, rel=1e-9)

    def test_two_point_linear_is_exact(self, tmp_path):
        csv = tmp_path / "two.csv"
        csv.write_text("x,y\n1.0,0.3\n2.0,0.6\n")
        out = tmp_path / "out"
        assert run(["fit", csv, "--model", "linear", "--out-dir", out]) == 0
        result = json.loads((out / "fit.json").read_text())
        assert result["params"]["slope"] == pytest.approx(0.3, rel=1e-12)

    def test_malformed_csv_exits_two(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        assert run(["fit", csv, "--model", "linear"]) == 2

    @pytest.mark.parametrize("model", ["exp", "linear"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv_value_exits_three(self, tmp_path, model, column, bad):
        rows = [[0.0, 0.7, 1.0], [1e-4, 0.5, 1.0], [2e-4, 0.36, 1.0], [3e-4, 0.26, 1.0]]
        rows[1][column] = bad
        csv = tmp_path / "data.csv"
        csv.write_text("x,y,weight\n" + "\n".join(",".join(map(str, r)) for r in rows))
        assert run(["fit", csv, "--model", model]) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows, model", [
        ("1e200,1e200\n2e200,2e200\n3e200,3e200", "linear"),           # slope and rss NaN
        ("0,1e300\n1,1e300\n2,1e300\n3,1e300\n4,1e300", "sinusoid"),  # amplitude ** 2
        ("1e-200,1\n2e-200,2\n3e-200,3", "exp"),                       # the seed's SVD
        ("0,1e300\n1,5e299\n2,2e299\n3,1e299", "exp"),                # rss overflows
        ("0,1e300\n1,5e299\n2,2e299\n3,1e299", "linear"),
    ])
    def test_finite_values_without_a_finite_fit_exit_three(self, tmp_path, rows, model):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n" + rows + "\n")
        out = tmp_path / "out"
        assert run(["fit", csv, "--model", model, "--out-dir", out]) == 3
        assert not out.exists()

    def test_overflowing_fit_prints_only_its_error_line(self, tmp_path, capsys):
        # numpy's overflow warnings would reach stderr ahead of the error line
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1e200,1e200\n2e200,2e200\n3e200,3e200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["fit", csv, "--model", "linear", "--out-dir", tmp_path / "out"]) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(model=st.sampled_from(["exp", "linear", "sinusoid"]),
           rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=2, max_size=12))
    def test_any_finite_csv_exits_0_3_or_5_with_no_nan(self, tmp_path_factory, model, rows):
        path = tmp_path_factory.mktemp("fit")
        csv = path / "data.csv"
        csv.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
        code = run(["fit", csv, "--model", model, "--out-dir", path / "out"])
        assert code in (0, 3, 5)
        if code != 3:
            assert "NaN" not in (path / "out" / "fit.json").read_text()

    def test_non_convergence_exits_five(self, tmp_path, monkeypatch):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1.0,1.0\n2.0,2.0\n")
        stuck = FitResult(model="linear_origin", params={"slope": 1.0},
                          stderr={"slope": 0.0}, rss=0.0, converged=False, iterations=200)
        monkeypatch.setitem(cli._FIT_DISPATCH, "linear", lambda samples: stuck)
        assert run(["fit", csv, "--model", "linear"]) == 5


class TestManifest:
    """manifest.json is written on success, on a stalled rate, on simulate's
    exit 4 and on fit's exit 5, and never when a command raises."""

    def test_written_for_stalled_rate(self, tmp_path):
        out = tmp_path / "out"
        assert run(["rate", "--config", write_chain_config(tmp_path, chi=0.0),
                    "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "rate.json")]

    def test_written_for_stalled_rate_as_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run(["rate", "--config", write_chain_config(tmp_path, chi=0.0),
                    "--format", "csv", "--out-dir", out]) == 0
        assert (out / "rate.csv").read_text() == (
            "level,p_i,t_i_s\n# rate_hz 0\n# stalled_level 0\n")
        assert not (out / "rate.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "rate.csv")]

    def test_written_for_timeout_exit(self, tmp_path):
        config = write_chain_config(tmp_path, chi=1e-5)
        body = config.read_text().replace("max_sim_time_s = 3600.0", "max_sim_time_s = 0.05")
        config.write_text(body)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out-dir", out]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "latency.csv"), str(out / "trace.json")]

    def test_written_for_non_convergence_exit(self, tmp_path, monkeypatch):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1.0,1.0\n2.0,2.0\n")
        stuck = FitResult(model="linear_origin", params={"slope": 1.0},
                          stderr={"slope": 0.0}, rss=0.0, converged=False, iterations=200)
        monkeypatch.setitem(cli._FIT_DISPATCH, "linear", lambda samples: stuck)
        out = tmp_path / "out"
        assert run(["fit", csv, "--model", "linear", "--out-dir", out]) == 5
        assert json.loads((out / "manifest.json").read_text())["command"] == "fit"

    def test_fit_records_seed_zero(self, tmp_path):
        # a fit draws nothing, so it takes no --seed
        out = tmp_path / "out"
        csv = Path(__file__).parent / "data" / "fit_linear.csv"
        assert run(["fit", csv, "--model", "linear", "--out-dir", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0

    def test_absent_after_an_error_exit(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "link.ini"
        config.write_text("[link]\nchi = 0.0\n[experiment]\nstorage_times_us = 1.0\n"
                          "mode_counts = 1\ntrains = 100\nwindow_budget = 100\n")
        assert run(["link-experiment", "--config", config, "--out-dir", out]) == 4
        assert run(["rate", "--config", write_chain_config(tmp_path, chi=1.5),
                    "--out-dir", out]) == 3
        assert not (out / "manifest.json").exists()


PROJECTION_CHAIN = parse_config(CONFIGS / "projection.ini").chain
# a link this short gives a subnormal T_cc part-way up a fiber_speed grid,
# where the recursion's rate overflows before a later point's T_cc is 0
TINY_LINK_CHAIN = dataclasses.replace(PROJECTION_CHAIN, l0=1e-300)
SWEEP_EDGES = [0.0, -1.0, 1e-320, 0.5, 1.0, 1.25, 4.0, 10000.0, 20000.0, 2e23, 1e24,
               -1.7e308, 1.7e308]
SWEEP_OVERFLOW = "the grid from --min to --max overflows a float: narrow it"


def sweep_point_by_point(chain, param, low, high, steps, total) -> tuple[int, str]:
    """Exit code and stderr of a sweep that builds every grid point through
    ChainParams before its rate, as the oracle of `cmd_sweep`'s one check. A
    grid with a point beyond the float range fails before any point is checked."""
    is_int = dict((name, cast) for name, cast, *_ in field_spec(ChainParams))[param] is int
    values = [low + (high - low) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):
        return cli.EXIT_DOMAIN, f"error: {SWEEP_OVERFLOW}\n"
    for value in values:
        value = int(round(value)) if is_int else value
        fields = {param: value}
        if total is not None and value > 0:
            fields["n_levels"] = max(0, round(math.log2(total) - math.log2(value)))
        try:
            swap_chain(dataclasses.replace(chain, **fields))
        except StalledChainError:
            pass
        except ParameterError as exc:
            return cli.EXIT_DOMAIN, f"error: {exc}\n"
    return cli.EXIT_OK, ""


class TestSweep:
    def test_mode_count_sweep_is_strictly_increasing(self, tmp_path):
        config = write_chain_config(tmp_path)
        out = tmp_path / "out"
        assert run(["sweep", "--config", config, "--param", "mode_count",
                    "--min", 1, "--max", 100, "--steps", 12, "--out-dir", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[-1] == "# monotonicity: non-decreasing"
        rates = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_r0_sweep_increases(self, tmp_path):
        config = write_chain_config(tmp_path)
        out = tmp_path / "out"
        assert run(["sweep", "--config", config, "--param", "r0",
                    "--min", 0.1, "--max", 0.9, "--steps", 9, "--out-dir", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rates = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_fixed_total_l0_sweep_reports_interior_maximum(self, tmp_path):
        # with the 1/2 Bell-measurement factor the best link length at a fixed
        # total distance is neither the shortest nor the longest on the grid
        config = write_chain_config(tmp_path, swap_intrinsic_factor=0.5)
        out = tmp_path / "out"
        assert run(["sweep", "--config", config, "--param", "l0",
                    "--min", 7.875, "--max", 504.0, "--steps", 64,
                    "--fixed-total-km", 1008.0, "--out-dir", out]) == 0
        trailer = (out / "sweep.csv").read_text().splitlines()[-1]
        assert "interior-maximum" in trailer

    def test_unknown_parameter_exits_two(self, tmp_path):
        config = write_chain_config(tmp_path)
        assert run(["sweep", "--config", config, "--param", "bogus",
                    "--min", 0, "--max", 1]) == 2

    @pytest.mark.parametrize("grid, flag", [
        (["--param", "l0", "--min", 8, "--max", 504, "--fixed-total-km", 0], "--fixed-total-km"),
        (["--param", "l0", "--min", 8, "--max", 504, "--fixed-total-km", -5], "--fixed-total-km"),
        (["--param", "l0", "--min", 8, "--max", 504, "--fixed-total-km", "inf"],
         "--fixed-total-km"),
        (["--param", "l0", "--min", 8, "--max", 504, "--fixed-total-km", "nan"],
         "--fixed-total-km"),
        (["--param", "n_levels", "--min", 0, "--max", "inf"], "--max"),
        (["--param", "mode_count", "--min", 1, "--max", "1e400"], "--max"),
    ])
    def test_non_finite_or_non_positive_bounds_exit_two(self, capsys, grid, flag):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--config", CONFIGS / "projection.ini", *grid])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [1, 10**17])
    def test_out_of_range_steps_exit_two_before_the_config_is_read(self, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--config", "/nonexistent.ini", "--param", "l0",
                 "--min", 8, "--max", 504, "--steps", steps])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --steps" in err and "nonexistent" not in err

    def test_fixed_total_far_beyond_the_link_length_stays_finite(self, tmp_path):
        # the span ratio 1e300 / 1e-300 overflows a float; its log does not
        out = tmp_path / "out"
        assert run(["sweep", "--config", CONFIGS / "projection.ini", "--param", "l0",
                    "--min", "1e-300", "--max", 1, "--steps", 3,
                    "--fixed-total-km", "1e300", "--out-dir", out]) == 0
        assert (out / "sweep.csv").exists()

    def test_deepest_derivable_depth_is_in_range(self, tmp_path):
        # log2(max float) - log2(min subnormal) = 1024 + 1074 levels, under
        # the 10000 the [chain] section allows
        config = write_chain_config(tmp_path, fiber_speed_km_s=1.0)
        out = tmp_path / "out"
        assert run(["sweep", "--config", config, "--param", "l0",
                    "--min", "5e-324", "--max", 1, "--steps", 2,
                    "--fixed-total-km", sys.float_info.max, "--out-dir", out]) == 0
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("low", [0, -5])
    def test_fixed_total_with_a_non_positive_l0_names_l0(self, tmp_path, capsys, low):
        out = tmp_path / "out"
        assert run(["sweep", "--config", CONFIGS / "projection.ini", "--param", "l0",
                    "--min", low, "--max", 100, "--fixed-total-km", 1000,
                    "--out-dir", out]) == 3
        assert capsys.readouterr().err == f"error: l0 must be finite and > 0, got {low:.1f}\n"
        assert not out.exists()


    @pytest.mark.parametrize("param, low, high, steps, extra, message", [
        # the first failing point is an interior one, not --max
        ("chi", 0.5, 1.5, 5, [], "chi must be finite and in [0, 1], got 1.25"),
        ("mode_count", 0, 5, 6, [], "mode_count must be finite and >= 1, got 0"),
        ("n_levels", 0, 20000, 3, [], "n_levels must be finite and in [0, 10000], got 20000"),
        ("fiber_speed", "1e-320", 1, 3, [],
         "T_cc = l0/fiber_speed = inf s is not a positive finite time"),
        # the span, or a multiple of it on the way to a point, overflows a float
        ("n_levels", "-1.7e308", "1.7e308", 3, [], SWEEP_OVERFLOW),
        ("r0", "-1.7e308", "1.7e308", 3, [], SWEEP_OVERFLOW),
        ("l0", 1, "1e308", 3, ["--fixed-total-km", "1e-300"], SWEEP_OVERFLOW),
    ], ids=["chi-interior", "mode_count-first", "n_levels-last", "t_cc-first",
            "int-span-overflows", "float-span-overflows", "point-overflows"])
    def test_first_failing_point_words_the_error(self, tmp_path, capsys, param, low, high,
                                                 steps, extra, message):
        out = tmp_path / "out"
        assert run(["sweep", "--config", CONFIGS / "projection.ini", "--param", param,
                    f"--min={low}", f"--max={high}", "--steps", steps, *extra,
                    "--out-dir", out]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @given(param=st.sampled_from([name for name, *_ in field_spec(ChainParams)]),
           ends=st.lists(st.one_of(st.sampled_from(SWEEP_EDGES), st.floats(-2.0, 2.0),
                                   st.floats(1e-12, 1e12)),
                         min_size=2, max_size=2, unique=True).map(sorted),
           steps=st.integers(2, 9), total=st.sampled_from([None, 1008.0, 1e300]),
           chain=st.sampled_from([PROJECTION_CHAIN, TINY_LINK_CHAIN]))
    @example(param="fiber_speed", ends=[1e20, 1e24], steps=2, total=None,
             chain=TINY_LINK_CHAIN)        # the rate overflows at --min, T_cc is 0 at --max
    @settings(max_examples=150, deadline=None)
    def test_outcome_is_that_of_checking_every_point(self, tmp_path_factory, param, ends,
                                                     steps, total, chain):
        if total is not None:
            param = "l0"
        low, high = ends
        expected = sweep_point_by_point(chain, param, low, high, steps, total)
        path = tmp_path_factory.mktemp("sweep") / "chain.ini"
        path.write_text("[chain]\n" + "".join(
            f"{name}{unit} = {getattr(chain, name)!r}\n"
            for name, _, _, unit in field_spec(ChainParams)))
        argv = ["sweep", "--config", path, "--param", param, f"--min={low!r}",
                f"--max={high!r}", "--steps", steps]
        if total is not None:
            argv += ["--fixed-total-km", total]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        assert (code, stderr.getvalue()) == expected
        if code == 0:
            assert len(stdout.getvalue().splitlines()) == steps + 1


class TestArgumentTypes:
    """A non-numeric flag value is reported against the flag, in plain words."""

    @pytest.mark.parametrize("argv, flag, kind", [
        (["sweep", "--param", "l0", "--min", "abc", "--max", 504], "--min", "a number"),
        (["sweep", "--param", "l0", "--min", 8, "--max", 504, "--steps", "abc"],
         "--steps", "an integer"),
        (["sweep", "--param", "l0", "--min", 8, "--max", 504, "--fixed-total-km", "abc"],
         "--fixed-total-km", "a number"),
        (["simulate", "--workers", "abc"], "--workers", "an integer"),
    ])
    def test_non_numeric_value_names_the_flag_not_the_parser(self, capsys, argv, flag, kind):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--config", CONFIGS / "projection.ini"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {kind}, got 'abc'" in err
        assert re.search(r"(?<![\w])_[a-z]", err) is None


class TestMissingSection:
    @pytest.mark.parametrize("argv, section", [
        (["rate"], "chain"),
        (["simulate"], "chain"),
        (["simulate", "--elementary"], "chain"),
        (["sweep", "--param", "r0", "--min", 0.1, "--max", 0.9], "chain"),
        (["link-experiment"], "link"),
    ])
    def test_names_the_command_and_section(self, tmp_path, capsys, argv, section):
        path = tmp_path / "sim.ini"
        path.write_text("[sim]\nseed = 3\n")
        assert run([*argv, "--config", path, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {argv[0]} requires a [{section}] section\n"
        assert not (tmp_path / "out").exists()


class TestUnreadFlags:
    """A flag a command never reads is an argparse error, not a silent no-op."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", CONFIGS / "projection.ini", "--format", "csv"],
        ["link-experiment", "--config", CONFIGS / "link_calibrated.ini", "--format", "csv"],
        ["fit", "data.csv", "--model", "linear", "--format", "csv"],
        ["sweep", "--config", CONFIGS / "projection.ini", "--param", "r0",
         "--min", 0.1, "--max", 0.9, "--format", "csv"],
        ["fit", "data.csv", "--model", "linear", "--config", "/nonexistent.ini"],
        ["fit", "data.csv", "--model", "linear", "--seed", 1],
    ])
    def test_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_rate_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run(["rate", "--config", CONFIGS / "projection.ini", "--format", "csv",
                    "--out-dir", out]) == 0
        lines = (out / "rate.csv").read_text().splitlines()
        assert lines[0] == "level,p_i,t_i_s"
        assert not (out / "rate.json").exists()


class TestOutDir:
    """An --out-dir that cannot hold the results exits 2, not with a traceback."""

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_file_in_the_path_exits_two_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                          below):
        config = write_chain_config(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        monkeypatch.setattr(cli, "swap_chain", lambda *a: pytest.fail("the rate ran"))
        monkeypatch.setattr(cli, "parse_config", lambda *a: pytest.fail("the config was read"))
        out = blocker / below if below else blocker
        assert run(["rate", "--config", config, "--out-dir", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out-dir {out}: {blocker} is not a directory\n"
        assert captured.out == ""
        assert blocker.read_text() == "kept\n"

    def test_simulate_runs_no_trial_into_a_file(self, tmp_path, monkeypatch, capsys):
        config = write_chain_config(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        monkeypatch.setattr(cli, "simulate_chain", lambda *a: pytest.fail("a trial ran"))
        assert run(["simulate", "--config", config, "--out-dir", blocker]) == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_result_file_that_cannot_be_written_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "rate.json").mkdir(parents=True)
        assert run(["rate", "--config", CONFIGS / "projection.ini", "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'rate.json'}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["rate.json"]


def _results(out: Path) -> dict:
    """Every file a run wrote, with the manifest's time stamps and paths taken out."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("created_unix", "duration_s"):
        del manifest[key]
    manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
    return {**files, "manifest.json": manifest}


class TestParserCache:
    """The parser is built once per process, and every call still parses afresh."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        code = "import dlczsim.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self.ENV, check=True)
        assert done.stdout.strip() == "0"

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        config = write_chain_config(tmp_path)
        calls = [["simulate", "--trials", "5"], ["simulate"], ["rate", "--format", "csv"],
                 ["rate", "--format", "xml"], ["rate"], ["simulate", "--seed", "9"],
                 ["simulate"]]
        fresh = {}
        for k, argv in enumerate(calls):
            argv = [*argv, "--config", str(config)]
            if "xml" in argv:
                with pytest.raises(SystemExit) as exc:
                    run(argv)
                assert exc.value.code == 2
                capsys.readouterr()
                continue
            assert run([*argv, "--out-dir", tmp_path / f"in{k}"]) == 0
            if tuple(argv) not in fresh:
                out = tmp_path / f"fresh{k}"
                done = subprocess.run([sys.executable, "-m", "dlczsim.cli", *argv,
                                       "--out-dir", out], capture_output=True, text=True,
                                      env=self.ENV, check=True)
                fresh[tuple(argv)] = done.stdout, _results(out)
            assert (capsys.readouterr().out, _results(tmp_path / f"in{k}")) == fresh[tuple(argv)]


class TestImportGraph:
    """Every module of the package is reached from the command."""

    def test_cli_reaches_every_module(self):
        # follow `from .x import ...` and `from . import x`, at module level and
        # inside functions, so a lazily imported module still counts as reached
        package = Path(cli.__file__).parent
        modules = {path.stem for path in package.glob("*.py")}
        reached, todo = {"__init__", "cli"}, ["cli"]
        while todo:
            tree = ast.parse((package / f"{todo.pop()}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    names = ([node.module] if node.module
                             else [alias.name for alias in node.names])
                    for name in set(names) & modules - reached:
                        reached.add(name)
                        todo.append(name)
        assert modules - reached == set()


# every module that imports numpy, and numpy itself
NUMPY_MODULES = {"numpy", *(f"dlczsim.{name}" for name in (
    "chain_sim", "experiments", "fitters", "link_physics", "metrics", "streams"))}

# in a fresh interpreter: import the CLI, run argv (JSON, or null for none) and
# print the exit code and every loaded module as the last line
LOADED = """\
import json, sys
import dlczsim.cli
argv, code = json.loads(sys.argv[1]), None
if argv is not None:
    try:
        code = dlczsim.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestLazyImports:
    """`rate`, `sweep` and the parser's own exits never import numpy; every
    other command loads only its own kernel modules."""

    ENV = TestParserCache.ENV

    def loaded(self, argv) -> tuple:
        done = subprocess.run([sys.executable, "-c", LOADED,
                               json.dumps(None if argv is None else [str(a) for a in argv])],
                              capture_output=True, text=True, env=self.ENV, check=True)
        code, modules = json.loads(done.stdout.splitlines()[-1])
        return code, NUMPY_MODULES & set(modules)

    @pytest.mark.parametrize("argv, code", [
        (None, None),
        (["rate", "--config", CONFIGS / "projection.ini", "--out-dir", "{out}"], 0),
        (["rate", "--config", CONFIGS / "projection.ini", "--format", "csv",
          "--out-dir", "{out}"], 0),
        (["sweep", "--config", CONFIGS / "projection.ini", "--param", "l0", "--min", "8",
          "--max", "504", "--steps", "64", "--fixed-total-km", "1008", "--out-dir", "{out}"],
         0),
        (["--version"], 0),
        (["rate", "--format", "xml"], 2),
    ], ids=["import", "rate-json", "rate-csv", "sweep-64", "version", "argparse-exit"])
    def test_loads_no_numpy(self, tmp_path, argv, code):
        if argv is not None:
            argv = [tmp_path / "out" if a == "{out}" else a for a in argv]
        assert self.loaded(argv) == (code, set())

    @pytest.mark.parametrize("elementary", [[], ["--elementary"]])
    def test_simulate_loads_no_link_kernels(self, tmp_path, elementary):
        config = write_chain_config(tmp_path)
        code, modules = self.loaded(["simulate", "--config", config, *elementary])
        assert code == 0
        assert "dlczsim.chain_sim" in modules
        assert modules & {"dlczsim.experiments", "dlczsim.fitters"} == set()

    def test_fit_loads_no_chain_or_scan(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1.0,2.0\n2.0,4.1\n3.0,5.9\n")
        code, modules = self.loaded(["fit", csv, "--model", "linear"])
        assert code == 0
        assert "dlczsim.fitters" in modules
        assert modules & {"dlczsim.chain_sim", "dlczsim.experiments"} == set()


class PatchCalled(Exception):
    """Raised by a patched kernel, so a test sees that the patch ran."""


class TestPatchPoints:
    """`cli.<name>` is the one patch point of every lazily bound kernel: a
    patch made before the first command is what the command calls."""

    LAZY = {"simulate_chain": (chain_sim, "simulate_chain"),
            "simulate_elementary_link": (chain_sim, "simulate_elementary_link"),
            "storage_time_scan": (experiments, "storage_time_scan"),
            "mode_count_scan": (experiments, "mode_count_scan"),
            "Samples": (fitters, "Samples")}

    @pytest.fixture
    def unbound(self, monkeypatch):
        """``cli`` as a fresh import leaves it: no lazy name bound yet."""
        for name in (*self.LAZY, "_FIT_DISPATCH"):
            monkeypatch.delitem(vars(cli), name, raising=False)
        return monkeypatch

    def test_getattr_binds_the_defining_modules_object(self, unbound):
        for name, (module, attr) in self.LAZY.items():
            assert getattr(cli, name) is getattr(module, attr)
        assert cli._FIT_DISPATCH == {"exp": fitters.fit_exponential,
                                     "linear": fitters.fit_linear_origin,
                                     "sinusoid": fitters.fit_sinusoid}

    def test_unknown_name_is_an_attribute_error_naming_the_module(self):
        assert not hasattr(cli, "no_such_name")
        with pytest.raises(AttributeError, match="'dlczsim.cli' has no attribute 'no_such_name'"):
            cli.no_such_name

    @staticmethod
    def patched(*args):
        raise PatchCalled

    def test_simulate_calls_the_patch(self, tmp_path, unbound):
        unbound.setattr(cli, "simulate_chain", self.patched)
        with pytest.raises(PatchCalled):
            run(["simulate", "--config", write_chain_config(tmp_path)])

    def test_link_experiment_calls_the_patch(self, tmp_path, unbound):
        unbound.setattr(cli, "storage_time_scan", self.patched)
        with pytest.raises(PatchCalled):
            run(["link-experiment", "--config", write_link_config(tmp_path)])

    def test_fit_calls_the_patched_table(self, tmp_path, unbound):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1.0,1.0\n2.0,2.0\n")
        stuck = FitResult(model="linear_origin", params={"slope": 1.0},
                          stderr={"slope": 0.0}, rss=0.0, converged=False, iterations=200)
        unbound.setattr(cli, "_FIT_DISPATCH", {"linear": lambda samples: stuck})
        assert run(["fit", csv, "--model", "linear"]) == 5
