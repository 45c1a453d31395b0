"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json lists exactly the metrics the harness prints, with the same units;
  * every workload, traced and untraced, prints every metric with its unit and
    passes its output checks;
  * traced counts repeat exactly for a fixed seed;
  * each output check fails when handed a deliberately wrong reference;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from layers import PER_LAYER
from spans import Patches
from workloads import WORKLOADS, program_seed

ROOT = run.ROOT
SCRATCH = ROOT / ".perfbench" / "selftest"

TINY = {
    "chain_projection": {"sim": {"trials": 20}},
    "chain_linear_bsm": {"chain": {"swap_intrinsic_factor": 0.5}, "sim": {"trials": 10}},
    "link_experiment": {"experiment": {"trains": 20_000, "window_budget": 100_000}},
    "rate_sweep": {},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def run_benchmark(name: str, seed: int, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)])
    expect(code == 0, f"{name} trace={trace} exits 0")
    return json.loads(stdout.getvalue().splitlines()[-1])


def check_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(listed == dict(run.END_TO_END), "BENCHMARK.json end_to_end matches the harness")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(listed == {n: (u, b) for n, u, b in PER_LAYER},
           "BENCHMARK.json per_layer matches the harness")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match the harness")


def check_runs() -> None:
    for name in WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, [(n, u) for n, u, _ in PER_LAYER])):
            result = run_benchmark(name, 7, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace} is correct with no failures")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == dict(names), f"{name} trace={trace} prints every metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={trace} metric values are numbers")
    first = run_benchmark("chain_projection", 11, 1)["metrics"]
    again = run_benchmark("chain_projection", 11, 1)["metrics"]
    counts = [n for n, u, _ in PER_LAYER if u == "count"]
    expect(all(first[n]["value"] == again[n]["value"] for n in counts),
           "traced counts repeat for a fixed seed")


def one_rep(spec, work: Path):
    """Run rep 0 of ``spec`` and keep its outputs; return (out, captured)."""
    captured: list = []
    out = work / "out"
    ini = spec.write_ini(ROOT, work / "rep0.ini", program_seed(3, 0))
    with Patches() as patches:
        run.install_capture(patches, captured)
        _, codes, stderr = run.run_rep(spec, ini, out)
    expect(not any(codes), f"{spec.name} tiny rep exits 0 {stderr.strip()[-200:]}")
    return out, captured


def failing(spec, out, captured, refs) -> set[str]:
    rep = spec.check(out, captured, refs)
    checks = rep.checks + spec.check_run([rep.data] if rep.data is not None else [], refs)
    return {name.split(".")[-1] for name, ok, _ in checks if not ok}


def check_wrong_references() -> None:
    from dlczsim.link_physics import PmnTable
    for name, spec in WORKLOADS.items():
        out, captured = one_rep(spec, SCRATCH / name)
        refs = spec.refs()
        expect(failing(spec, out, captured, refs) == set(), f"{name} checks pass")
        if spec.check.__name__ == "check_chain_rep":
            wrong = {
                "rate_within_5se": {**refs, "rate_hz": 10.0 * refs["rate_hz"]},
                "below_analytic": {**refs, "analytic_hz": 0.01 * refs["rate_hz"]},
            }
            trace = json.loads((out / "trace.json").read_text())
            doctored = {**trace, "timeouts": 1, "delivered": trace["trials"] - 1}
            (out / "trace.json").write_text(json.dumps(doctored))
            expect("all_delivered" in failing(spec, out, captured, refs),
                   f"{name} all_delivered fails on a run with a timeout")
            (out / "trace.json").write_text(json.dumps(trace))
        elif spec.check.__name__ == "check_link_rep":
            wrong = {
                "herald_frac": {**refs, "herald_probability":
                                lambda p: 1.5 * refs["herald_probability"](p)},
                "pmn_chi2": {**refs, "pmn": lambda p, t: PmnTable(
                    *reversed(refs["pmn"](p, t).as_tuple()))},
                "outputs_written": {**refs, "csv_rows": {"storage_scan.csv": 2,
                                                         "mode_scan.csv": 11}},
            }
        else:
            wrong = {
                "rate_hz_exact": {**refs, "rate_hz": 64.1522967},
                "monotonicity": {**refs, "monotonicity": "non-increasing"},
            }
        for check, bad in wrong.items():
            expect(check in failing(spec, out, captured, bad),
                   f"{name} {check} fails against a wrong reference")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rate_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           "a directory without the sources exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "bare").mkdir(parents=True)
    for name, overrides in TINY.items():
        WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], overrides=overrides)
    try:
        check_contract()
        check_runs()
        check_wrong_references()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
