"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s or read the
captured output) and enforces its runtime budget. Criterion 6's second clause
is expected to fail: the faithful discard-on-failure Monte Carlo pays the
max-of-two-children waiting cost at every nesting level and lands near a
quarter of the mean-time recursion's rate, far outside the required 50%; the
test asserts the stated bound anyway and reports the measured gap.
"""

import dataclasses
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from dlczsim.chain_sim import simulate_chain, simulate_elementary_link
from dlczsim.cli import main as cli_main
from dlczsim.config_io import ChainParams, RunConfig
from dlczsim.experiments import mode_count_scan, storage_time_scan
from dlczsim.fitters import Samples, fit_exponential, fit_linear_origin
from dlczsim.link_physics import expected_window_detection, run_link_trials
from dlczsim.metrics import PmnTable, concurrence, intrinsic_efficiency, visibility
from dlczsim.rate import multiplexed_success, swap_chain
from dlczsim.streams import substream

from conftest import CALIBRATED_LINK

SEED = 20240817

PROJECTION = ChainParams(l0=63.0, l_att=22.0, n_levels=4, fiber_speed=2e5,
                         eta_fc=0.46, eta_td=0.9, chi=0.01, mode_count=100,
                         r0=0.8, tau0=16.0, swap_intrinsic_factor=1.0)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_multiplexed_success_oracle():
    """Monte Carlo interval success matches 1-(1-P0)^N on a 3x3 grid."""
    with Stopwatch() as clock:
        failures = []
        for i, p0 in enumerate((1e-4, 1e-3, 1e-2)):
            for j, n_modes in enumerate((1, 12, 100)):
                chain = ChainParams(l0=63.0, l_att=1e18, eta_fc=1.0, eta_td=1.0,
                                    chi=p0, mode_count=n_modes)
                trace = simulate_elementary_link(chain, 100_000, seed=SEED + 10 * i + j)
                expected = multiplexed_success(p0, n_modes)
                sigma = math.sqrt(expected * (1 - expected) / trace.intervals)
                if abs(trace.empirical_success - expected) >= 3 * sigma:
                    failures.append((p0, n_modes, trace.empirical_success, expected))
    ok = not failures and clock.elapsed < 5.0
    check("criterion 1 (generation oracle grid)", ok,
          f"9 grid points within 3 sigma={not failures}, runtime {clock.elapsed:.2f}s < 5s")


def mode_scaling(seed):
    """Criterion 2's P_D^(N) scan on substreams (seed, 2, index) and its three checks."""
    params = dataclasses.replace(CALIBRATED_LINK, crosstalk_eps=0.0)
    window_budget = 4_000_000
    probes = []
    for index, n in enumerate(range(1, 13)):
        scan = dataclasses.replace(params, mode_count=n)
        tally = run_link_trials(scan, 1e-6, window_budget // n,
                                substream(seed, 2, index))
        p_d = tally.detection_probability
        stderr = math.sqrt(p_d / tally.trains)
        probes.append((n, p_d, stderr))
    x = np.array([p[0] for p in probes], dtype=float)
    y = np.array([p[1] for p in probes])
    w = np.array([1.0 / p[2] ** 2 for p in probes])
    fit = fit_linear_origin(Samples(x, y, w))
    slope, slope_err = fit.params["slope"], fit.stderr["slope"]
    configured = expected_window_detection(params)

    ratio = probes[11][1] / probes[0][1]
    ratio_err = ratio * math.sqrt((probes[11][2] / probes[11][1]) ** 2
                                  + (probes[0][2] / probes[0][1]) ** 2)
    slope_ok = abs(slope - configured) <= slope_err
    ratio_ok = abs(ratio - 12.0) <= 2 * ratio_err
    # the reference measurement of the 12-mode gain was 11.79 +/- 0.35
    bracket_ok = ratio - 2 * ratio_err <= 11.79 + 0.35 and ratio + 2 * ratio_err >= 11.79 - 0.35
    return SimpleNamespace(slope=slope, slope_err=slope_err, configured=configured,
                           ratio=ratio, ratio_err=ratio_err, slope_ok=slope_ok,
                           ratio_ok=ratio_ok, bracket_ok=bracket_ok,
                           ok=slope_ok and ratio_ok and bracket_ok)


def test_criterion_2_mode_scaling():
    """P_D^(N) is linear through the origin; P_D^(12)/p_D is 12 +/- error."""
    with Stopwatch() as clock:
        r = mode_scaling(SEED)
    ok = r.ok and clock.elapsed < 30.0
    check("criterion 2 (mode scaling)", ok,
          f"slope {r.slope:.4e} vs configured {r.configured:.4e} (stderr {r.slope_err:.1e}), "
          f"ratio {r.ratio:.2f} +/- {r.ratio_err:.2f} vs 12 and 11.79 +/- 0.35, "
          f"runtime {clock.elapsed:.1f}s < 30s")


def test_criterion_3_retrieval_decay_fit():
    """Exponential fit recovers R0 = 0.707 and tau0 = 0.3 ms from noisy data."""
    with Stopwatch() as clock:
        rng = substream(SEED, 3)
        t = np.linspace(0.0, 1e-3, 20)
        clean = 0.707 * np.exp(-t / 0.3e-3)
        y = clean * (1.0 + 0.05 * rng.standard_normal(t.size))
        fit = fit_exponential(Samples(t, y, 1.0 / (0.05 * clean) ** 2))
        r0_err = abs(fit.params["r0"] - 0.707) / 0.707
        tau_err = abs(fit.params["tau0"] - 0.3e-3) / 0.3e-3
    ok = fit.converged and r0_err < 0.05 and tau_err < 0.05 and clock.elapsed < 1.0
    check("criterion 3 (retrieval decay fit)", ok,
          f"r0 off by {r0_err:.2%}, tau0 off by {tau_err:.2%} (< 5%), "
          f"runtime {clock.elapsed:.2f}s < 1s")


def concurrence_calibration(seed):
    """Criterion 4's two storage points, at roots seed + 4 and seed + 40, and its checks."""
    params = CALIBRATED_LINK
    short = storage_time_scan(params, [1e-6], trains=1_500_000, seed=seed + 4,
                              phases=12, shots_per_phase=50_000)[0]
    long = storage_time_scan(params, [150e-6], trains=12_000_000, seed=seed + 40,
                             phases=12, shots_per_phase=50_000)[0]
    c1_ok = abs(short.concurrence - 0.040) <= 0.02
    c150_ok = long.concurrence <= 0.01
    v1_ok = abs(short.visibility - 0.795) <= 3 * short.visibility_stderr
    v150_ok = abs(long.visibility - 0.700) <= 0.024 + 3 * long.visibility_stderr
    return SimpleNamespace(short=short, long=long, c1_ok=c1_ok, c150_ok=c150_ok,
                           v1_ok=v1_ok, v150_ok=v150_ok,
                           ok=c1_ok and c150_ok and v1_ok and v150_ok)


def test_criterion_4_concurrence_calibration():
    """Calibrated pipeline reproduces C(1us) = 0.040(2)e1 and C(150us) <= 0.01."""
    with Stopwatch() as clock:
        r = concurrence_calibration(SEED)
    short, long = r.short, r.long
    ok = r.ok and clock.elapsed < 60.0
    check("criterion 4 (concurrence calibration)", ok,
          f"C(1us) {short.concurrence:.4f} +/- {short.concurrence_stderr:.4f} in 0.040 +/- 0.02, "
          f"C(150us) {long.concurrence:.4f} <= 0.01, "
          f"V(1us) {short.visibility:.4f}, V(150us) {long.visibility:.4f}, "
          f"runtime {clock.elapsed:.1f}s < 60s")


def crosstalk_monotonicity(seed):
    """Criterion 5's two mode scans, at roots seed + 5 and seed + 50, and its checks."""
    t = 1e-6
    budget = 6_000_000
    with_xt = mode_count_scan(CALIBRATED_LINK, range(1, 13), t,
                              budget, seed + 5, phases=12, shots_per_phase=20_000)
    without = mode_count_scan(dataclasses.replace(CALIBRATED_LINK, crosstalk_eps=0.0),
                              range(1, 13), t, budget, seed + 50,
                              phases=12, shots_per_phase=20_000)

    def step_sigma(a, b):
        return math.sqrt(a.concurrence_stderr ** 2 + b.concurrence_stderr ** 2)

    monotone = all(b.concurrence <= a.concurrence + 3 * step_sigma(a, b)
                   for a, b in zip(with_xt, with_xt[1:]))
    drop = with_xt[0].concurrence - with_xt[-1].concurrence
    drop_sig = drop > 3 * step_sigma(with_xt[0], with_xt[-1])
    mean_c = float(np.mean([p.concurrence for p in without]))
    flat = all(abs(p.concurrence - mean_c) <= 3 * p.concurrence_stderr
               for p in without)
    return SimpleNamespace(drop=drop, monotone=monotone, drop_sig=drop_sig, flat=flat,
                           ok=monotone and drop_sig and flat)


def test_criterion_5_crosstalk_monotonicity():
    """Estimated concurrence falls with mode count when crosstalk is on."""
    with Stopwatch() as clock:
        r = crosstalk_monotonicity(SEED)
    ok = r.ok and clock.elapsed < 60.0
    check("criterion 5 (crosstalk monotonicity)", ok,
          f"noise-aware non-increase={r.monotone}, total drop {r.drop:.4f} "
          f"significant={r.drop_sig}, crosstalk-free flat={r.flat}, "
          f"runtime {clock.elapsed:.1f}s < 60s")


def test_criterion_6a_projection_rate_at_least_one_hz():
    """The analytic engine's long-distance projection clears 1 Hz."""
    report = swap_chain(PROJECTION)
    check("criterion 6a (projection rate)", report.rate_hz >= 1.0,
          f"analytic rate {report.rate_hz:.2f} Hz >= 1 Hz "
          f"(chi=0.01, swap factor 1.0 defaults)")


def test_criterion_6b_monte_carlo_agrees_with_recursion():
    """EXPECTED RED: the faithful Monte Carlo is ~4x slower than the recursion.

    Discarding both child segments on swap failure and waiting for the slower
    child at each of the 4 levels compounds to roughly (3/2)^n, so the
    empirical rate lands near 16 Hz against the recursion's 64 Hz. The 50%
    agreement bound cannot hold under these (specified) semantics; the bound
    is asserted as stated and the measured gap is reported.
    """
    with Stopwatch() as clock:
        trace = simulate_chain(RunConfig(chain=PROJECTION, trials=1000, seed=SEED + 6))
    gap = abs(trace.empirical_rate - trace.analytic_rate)
    ok = gap <= 0.5 * trace.analytic_rate and clock.elapsed < 120.0
    check("criterion 6b (Monte Carlo vs recursion)", ok,
          f"empirical {trace.empirical_rate:.2f} Hz vs analytic {trace.analytic_rate:.2f} Hz "
          f"(ratio {trace.empirical_rate / trace.analytic_rate:.3f}, bound 0.5), "
          f"runtime {clock.elapsed:.1f}s < 120s")


def test_criterion_7_estimator_identities():
    """Bounds, scaling invariance and monotonicity over 1e4 random inputs each."""
    with Stopwatch() as clock:
        rng = substream(SEED, 7)
        cases = 10_000
        raw = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=cases) * rng.uniform(
            0.05, 1.0, size=(cases, 1))
        vs = rng.uniform(0.0, 1.0, size=cases)
        scales = rng.uniform(0.05, 1.0, size=cases)

        bounds_ok = scaling_ok = True
        for cells, v, k in zip(raw, vs, scales):
            table = PmnTable(*cells)
            c = concurrence(table, v)
            if not 0.0 <= c <= 1.0:
                bounds_ok = False
                break
            scaled = concurrence(PmnTable(*(k * cells)), v)
            if abs(scaled - c) > 1e-9:
                scaling_ok = False
                break

        mono_ok = True
        deltas = rng.uniform(0.0, 0.02, size=(cases, 3))
        for cells, v, d in zip(raw, vs, deltas):
            headroom = 1.0 - cells.sum()
            base = concurrence(PmnTable(*cells), v)
            dv = min(d[0], 1.0 - v)
            if concurrence(PmnTable(*cells), v + dv) < base - 1e-12:
                mono_ok = False
                break
            bump = min(d[1], headroom)
            worse11 = cells + np.array([0.0, 0.0, 0.0, bump])
            if concurrence(PmnTable(*worse11), v) > base + 1e-12:
                mono_ok = False
                break
            bump = min(d[2], headroom)
            worse00 = cells + np.array([bump, 0.0, 0.0, 0.0])
            if concurrence(PmnTable(*worse00), v) > base + 1e-12:
                mono_ok = False
                break

        vis_ok = True
        mx = rng.uniform(1e-6, 1e6, size=cases)
        frac = rng.uniform(0.0, 1.0, size=cases)
        for m, f in zip(mx, frac):
            value = visibility(m, m * f)
            if not 0.0 <= value <= 1.0 + 1e-12:
                vis_ok = False
                break
            if abs(value - (m - m * f) / (m + m * f)) > 1e-12:
                vis_ok = False
                break

        eff_ok = True
        heralds = rng.integers(10, 10_000, size=cases)
        splits = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=cases)
        eta_ds = rng.uniform(0.05, 1.0, size=cases)
        for h, split, eta_d in zip(heralds, splits, eta_ds):
            cells = np.round(split * h).astype(int)
            if cells.sum() == 0:
                continue
            table = PmnTable.from_counts(*cells)
            eta = intrinsic_efficiency(table, float(eta_d))
            if not 0.0 <= eta <= 1.0 / eta_d + 1e-9:
                eff_ok = False
                break
    ok = all((bounds_ok, scaling_ok, mono_ok, vis_ok, eff_ok)) and clock.elapsed < 10.0
    check("criterion 7 (estimator identities)", ok,
          f"bounds={bounds_ok} scaling={scaling_ok} monotonicity={mono_ok} "
          f"visibility={vis_ok} efficiency={eff_ok}, 1e4 cases each, "
          f"runtime {clock.elapsed:.1f}s < 10s")


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Identical config+seed give byte-identical numeric outputs, any workers."""
    with Stopwatch() as clock:
        config = tmp_path / "run.ini"
        config.write_text(
            "[chain]\nl0_km = 63.0\nl_att_km = 22.0\nn_levels = 4\n"
            "fiber_speed_km_s = 200000.0\neta_fc = 0.46\neta_td = 0.9\n"
            "chi = 0.01\nmode_count = 100\nr0 = 0.8\ntau0_s = 16.0\n"
            "swap_intrinsic_factor = 1.0\n"
            "[sim]\ntrials = 60\nseed = 4242\nmax_sim_time_s = 3600.0\n")
        outs = [tmp_path / f"o{i}" for i in range(3)]
        assert cli_main(["simulate", "--config", str(config), "--out-dir", str(outs[0])]) == 0
        assert cli_main(["simulate", "--config", str(config), "--out-dir", str(outs[1])]) == 0
        assert cli_main(["simulate", "--config", str(config), "--out-dir", str(outs[2]),
                         "--workers", "2"]) == 0
        traces = [(o / "trace.json").read_bytes() for o in outs]
        latencies = [(o / "latency.csv").read_bytes() for o in outs]
        sim_ok = traces[0] == traces[1] == traces[2] and latencies[0] == latencies[1] == latencies[2]

        rate_outs = [tmp_path / f"r{i}" for i in range(2)]
        for out in rate_outs:
            assert cli_main(["rate", "--config", str(config), "--out-dir", str(out)]) == 0
        rate_ok = ((rate_outs[0] / "rate.json").read_bytes()
                   == (rate_outs[1] / "rate.json").read_bytes())

        csv = tmp_path / "fitme.csv"
        t = np.linspace(0.0, 1e-3, 12)
        csv.write_text("x,y\n" + "\n".join(
            f"{a},{0.7 * math.exp(-a / 3e-4)}" for a in t))
        fit_outs = [tmp_path / f"f{i}" for i in range(2)]
        for out in fit_outs:
            assert cli_main(["fit", str(csv), "--model", "exp", "--out-dir", str(out)]) == 0
        fit_ok = ((fit_outs[0] / "fit.json").read_bytes()
                  == (fit_outs[1] / "fit.json").read_bytes())

        link_config = tmp_path / "link.ini"
        link_config.write_text(
            "[link]\nchi = 0.01\nmode_count = 12\n"
            "detection_eff = 0.1848\neta_td = 0.1239\ncrosstalk_eps = 0.6664\n"
            "retrieval_eff_zero = 0.707\nmemory_lifetime_s = 0.0003\n"
            "[sim]\nseed = 99\n"
            "[experiment]\nstorage_times_us = 1.0\nmode_counts = 1, 12\n"
            "trains = 40000\nwindow_budget = 120000\n"
            "fringe_phases = 12\nfringe_shots = 2000\n")
        link_outs = [tmp_path / f"l{i}" for i in range(2)]
        for out in link_outs:
            assert cli_main(["link-experiment", "--config", str(link_config),
                             "--out-dir", str(out)]) == 0
        link_ok = all(
            (link_outs[0] / name).read_bytes() == (link_outs[1] / name).read_bytes()
            for name in ("storage_scan.csv", "mode_scan.csv"))
    ok = sim_ok and rate_ok and fit_ok and link_ok
    check("criterion 8 (byte-identical reruns)", ok,
          f"simulate(x2 + workers=2)={sim_ok}, rate={rate_ok}, fit={fit_ok}, "
          f"link-experiment={link_ok}, runtime {clock.elapsed:.1f}s")
