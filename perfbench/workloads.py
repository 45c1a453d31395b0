"""The four benchmark workloads: generated inputs, CLI commands and output checks.

A workload run is a fixed plan of repetitions ("reps"). Rep ``k`` of a run
with benchmark seed ``s`` writes an INI derived from a committed config with
``[sim] seed = s * 1000000 + k`` and calls ``dlczsim.cli.main`` on it, so the
same seed always gives the same inputs. The plan depends only on the seed and
``--seconds``: every commit measured with the same arguments does the same
work.

A check is ``(name, ok, detail)``. References are arguments, so the self-test
can hand a check a deliberately wrong one and see it fail.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

BASELINE = json.loads((Path(__file__).with_name("baseline.json")).read_text())

# Upper tail of chi-squared with 1, 2 and 3 degrees of freedom at p = 5.73e-7,
# the two-sided tail of a 5-sigma normal deviation.
CHI2_5SIGMA = {1: 25.00, 2: 28.74, 3: 31.81}
# Cells expected to hold fewer counts are pooled: the chi-squared tail is only
# trustworthy this far out when every cell expects enough counts.
CHI2_MIN_EXPECTED = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                      # committed INI, relative to the repo root
    overrides: dict                  # section -> key -> value for the generated INI
    rep_s: float                     # nominal duration of one rep on the reference box
    commands: tuple                  # argv lists; "{ini}" and "{out}" are filled in
    reference: str                   # reference kernel that rescales its times
    check: object                    # (out_dir, captured, refs) -> RepCheck
    check_run: object                # (data of every rep, refs) -> checks
    refs: object                     # () -> dict, called once dlczsim is importable

    def reps(self, seconds: float) -> int:
        return max(1, round(seconds / self.rep_s))

    def write_ini(self, root: Path, path: Path, seed: int) -> Path:
        parser = configparser.ConfigParser()
        parser.read(root / self.config)
        for section, values in self.overrides.items():
            for key, value in values.items():
                parser[section][key] = str(value)
        parser["sim"]["seed"] = str(seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            parser.write(fh)
        return path

    def argvs(self, ini: Path, out: Path) -> list[list[str]]:
        return [[arg.format(ini=ini, out=out) for arg in cmd] for cmd in self.commands]


def program_seed(seed: int, rep: int) -> int:
    return seed * 1_000_000 + rep


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class RepCheck:
    units: int                  # operations of the rep (trials, scan points, rates)
    failed: int                 # operations that failed
    checks: list                # (name, ok, detail)
    work: float = 1.0           # nominal work / the rep's work; scales its wall time
    data: object = None         # handed to the workload's run-level check


def check_chain_rep(out: Path, captured, refs) -> RepCheck:
    """Every trial delivers. The rep's work is its simulated time: a rep at
    rate r simulated ``r_ref / r`` times the reference time per trial."""
    trace = json.loads((out / "trace.json").read_text())
    rate = trace["empirical_rate_hz"]
    checks = [("all_delivered", trace["timeouts"] == 0 and trace["delivered"] == trace["trials"],
               f"{trace['delivered']}/{trace['trials']} delivered, {trace['timeouts']} timeouts")]
    return RepCheck(trace["trials"], trace["timeouts"], checks,
                    work=rate / refs["rate_hz"] if rate > 0 else 1.0,
                    data=trace["delivery_times_s"])


def check_chain_run(datas, refs) -> list:
    """The rate over all of the run's trials agrees with the reference within
    5 combined standard errors and stays below the mean-time recursion."""
    times = [t for rep in datas for t in rep]
    if len(times) < 2:
        return [("rate_within_5se", False, f"{len(times)} delivered trials")]
    mean = statistics.fmean(times)
    rate = 1.0 / mean
    stderr = statistics.stdev(times) / (mean ** 2 * math.sqrt(len(times)))
    combined = math.hypot(stderr, refs["rate_stderr_hz"])
    return [
        ("rate_within_5se", abs(rate - refs["rate_hz"]) <= 5.0 * combined,
         f"{rate:.4g} +/- {stderr:.2g} Hz over {len(times)} trials against "
         f"{refs['rate_hz']:.4g} +/- {refs['rate_stderr_hz']:.2g} Hz"),
        ("below_analytic", rate < refs["analytic_hz"],
         f"{rate:.4g} Hz against analytic {refs['analytic_hz']:.6g} Hz"),
    ]


def no_run_checks(datas, refs) -> list:
    return []


def pmn_chi2(tally, probs) -> tuple[float, int]:
    """Chi-squared of the four tallied Pmn cells against probabilities
    ``probs``, pooling the sparsest cells until each expects enough counts."""
    cells = sorted(zip((q * tally.heralded / sum(probs) for q in probs),
                       (int(c) for c in tally.pmn_counts.reshape(4))))
    while len(cells) > 1 and cells[0][0] < CHI2_MIN_EXPECTED:
        (e0, o0), (e1, o1) = cells[:2]
        cells = sorted([(e0 + e1, o0 + o1)] + cells[2:])
    chi2 = sum((o - e) ** 2 / e for e, o in cells) if cells[0][0] > 0 else math.inf
    return chi2, len(cells) - 1


def check_link_rep(out: Path, captured, refs) -> RepCheck:
    """Per scan point: heralds within 5 sigma of the closed form and a
    chi-squared test of the tallied Pmn cells against ``expected_pmn``."""
    herald_ref, pmn_ref = refs["herald_probability"], refs["pmn"]
    tallies = [c[1:] for c in captured if c[0] == "link"]
    fits = [c[1] for c in captured if c[0] == "fit"]
    checks = []
    for index, (params, storage_time, trains, tally) in enumerate(tallies):
        p = herald_ref(params)
        sigma = math.sqrt(p * (1.0 - p) / trains)
        frac = tally.heralded / trains
        checks.append((f"point{index}.herald_frac", abs(frac - p) <= 5.0 * sigma,
                       f"N={params.mode_count} {frac:.5g} against {p:.5g} +/- {sigma:.2g}"))
        chi2, dof = pmn_chi2(tally, pmn_ref(params, storage_time).as_tuple())
        checks.append((f"point{index}.pmn_chi2", dof > 0 and chi2 <= CHI2_5SIGMA[dof],
                       f"N={params.mode_count} chi2={chi2:.3g} dof={dof} "
                       f"over {tally.heralded} heralds"))
    rows = {}
    for name in ("storage_scan.csv", "mode_scan.csv"):
        with (out / name).open() as fh:
            rows[name] = sum(1 for _ in csv.reader(fh)) - 1
    checks.append(("outputs_written", rows == refs["csv_rows"], f"rows {rows}"))
    failed = sum(1 for t in tallies if t[3].heralded == 0) + sum(1 for f in fits if not f.converged)
    return RepCheck(len(tallies), failed, checks)


def check_rate_sweep_rep(out: Path, captured, refs) -> RepCheck:
    """The closed-form rate to its 9 written digits, and the sweep's
    monotonicity diagnostic, against the recorded baseline."""
    rate = json.loads((out / "rate.json").read_text())["rate_hz"]
    lines = (out / "sweep.csv").read_text().splitlines()
    diagnostic = lines[-1].removeprefix("# monotonicity: ")
    checks = [
        ("rate_hz_exact", rate == refs["rate_hz"], f"{rate!r} against {refs['rate_hz']!r}"),
        ("monotonicity", diagnostic == refs["monotonicity"],
         f"{diagnostic!r} against {refs['monotonicity']!r}"),
    ]
    points = len(lines) - 2          # header and trailer
    return RepCheck(1 + points, 0, checks)


def link_refs() -> dict:
    from dlczsim.link_physics import expected_herald_probability, expected_pmn
    return {"herald_probability": expected_herald_probability, "pmn": expected_pmn,
            "csv_rows": {"storage_scan.csv": 2, "mode_scan.csv": 12}}


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

SIMULATE = (("simulate", "--config", "{ini}", "--workers", "1", "--out-dir", "{out}"),)

WORKLOADS = {w.name: w for w in [
    Workload(
        name="chain_projection",
        why="paper's headline chain point; the per-tick trial loop in chain_sim does the work",
        config="configs/projection.ini",
        overrides={"sim": {"trials": 50}},
        rep_s=0.33,
        commands=SIMULATE,
        reference="interp",
        check=check_chain_rep,
        check_run=check_chain_run,
        refs=lambda: BASELINE["chain_projection"],
    ),
    Workload(
        name="chain_linear_bsm",
        why="same chain at swap factor 0.5: long heavy-tailed trials that punish "
            "waiting for the slowest trial",
        config="configs/projection.ini",
        overrides={"chain": {"swap_intrinsic_factor": 0.5}, "sim": {"trials": 10}},
        rep_s=1.3,
        commands=SIMULATE,
        reference="interp",
        check=check_chain_rep,
        check_run=check_chain_run,
        refs=lambda: BASELINE["chain_linear_bsm"],
    ),
    Workload(
        name="link_experiment",
        why="storage and mode scans: run_link_trials does the work, small-N trains "
            "carry per-train overhead",
        config="configs/link_calibrated.ini",
        overrides={"experiment": {"trains": 250_000, "window_budget": 1_333_333}},
        rep_s=2.6,
        commands=(("link-experiment", "--config", "{ini}", "--out-dir", "{out}"),),
        reference="array",
        check=check_link_rep,
        check_run=no_run_checks,
        refs=link_refs,
    ),
    Workload(
        name="rate_sweep",
        why="closed-form rate and a 64-point l0 sweep: both heavy layers idle, so "
            "cli, config_io and rate costs show",
        config="configs/projection.ini",
        overrides={},
        rep_s=0.011,
        commands=(("rate", "--config", "{ini}", "--out-dir", "{out}"),
                  ("sweep", "--config", "{ini}", "--param", "l0", "--min", "8",
                   "--max", "504", "--steps", "64", "--fixed-total-km", "1008",
                   "--out-dir", "{out}")),
        reference="cli",
        check=check_rate_sweep_rep,
        check_run=no_run_checks,
        refs=lambda: BASELINE["rate_sweep"],
    ),
]}
