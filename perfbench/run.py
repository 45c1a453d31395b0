"""dlczsim benchmark: one workload per run, through ``dlczsim.cli.main``.

    python3 perfbench/run.py --workload chain_projection --seed 1 --seconds 20 --trace 0

Run it from the repository root. With ``--trace 0`` it measures the
end-to-end metrics with no instrumentation; with ``--trace 1`` it records
spans around every layer's public functions and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (machine, plan, samples, failed checks). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import IMPORT_NOMINAL_S, IMPORT_SNIPPET, Reference
from workloads import WORKLOADS, RepCheck, program_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7

# (name, unit) of every metric an untraced run prints.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "fraction"),
]

# Runs in a fresh interpreter: import the CLI and parse the workload config.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dlczsim.cli
from dlczsim.config_io import parse_config
parse_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    try:
        git_describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        git_describe = "none"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_describe": git_describe}


def spawn_timed(snippet: str, *args: str) -> float:
    """Run ``snippet`` in a fresh interpreter; return the time it prints."""
    done = subprocess.run([sys.executable, "-c", snippet, *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def measure_setup(ini: Path) -> tuple[list[float], list[float]]:
    """Import-and-parse times in fresh interpreters, each followed by the
    import reference; the first pair is a warm-up."""
    setup, reference = [], []
    for _ in range(SETUP_RUNS + 1):
        setup.append(spawn_timed(SETUP_SNIPPET, str(ROOT / "src"), str(ini)))
        reference.append(spawn_timed(IMPORT_SNIPPET))
    return setup[1:], reference[1:]


def install_capture(patches, captured: list) -> None:
    """Keep the link tallies and fringe fits a rep produces, for its checks."""
    import dlczsim.experiments as experiments

    def link(original):
        def wrapper(params, storage_time, trains, *args, **kwargs):
            tally = original(params, storage_time, trains, *args, **kwargs)
            captured.append(("link", params, storage_time, trains, tally))
            return tally
        return wrapper

    def fit(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            captured.append(("fit", result))
            return result
        return wrapper

    patches.replace(experiments, "run_link_trials", link)
    patches.replace(experiments, "fit_sinusoid", fit)


def run_rep(spec, ini: Path, out: Path) -> tuple[float, list[int], str]:
    """Call ``main`` for each of the workload's commands; return the summed
    wall time, the exit codes and the captured standard error."""
    import dlczsim.cli as cli
    wall, codes = 0.0, []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for argv in spec.argvs(ini, out):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:           # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:            # a traceback is a failed rep, not a crash
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            wall += time.perf_counter() - start
            codes.append(code)
    return wall, codes, stderr.getvalue()


def describe(samples: list[float]) -> dict:
    """Sample count, quartiles, extremes and the highest percentile with at
    least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"n": n, "min": ordered[0], "median": statistics.median(ordered), "max": ordered[-1]}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
    return out


class Outcome:
    """Operations attempted and failed over a run, and the failed checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.data: list = []

    def add_checks(self, checks, where: str) -> None:
        self.attempted += len(checks)
        self.failed += sum(1 for _, ok, _ in checks if not ok)
        self.failures += [f"{where}.{name}: {detail}" for name, ok, detail in checks if not ok]

    def add_rep(self, spec, out: Path, captured, refs, codes, stderr: str, rep: int) -> float:
        """Check one rep's outputs; return its work scale."""
        try:
            result = spec.check(out, captured, refs)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            result = RepCheck(1, 1, [("outputs_readable", False, repr(exc))])
        if any(codes):
            result.failed = result.units
            result.checks.append(("exit_codes", False, f"{codes}: {stderr.strip()[-200:]}"))
        self.attempted += result.units
        self.failed += result.failed
        self.add_checks(result.checks, f"rep{rep}")
        if result.data is not None:
            self.data.append(result.data)
        return result.work


def run_workload(spec, seed: int, seconds: float, trace: bool, work: Path):
    """Run the plan; return (metrics, outcome, record)."""
    from layers import instrument, per_layer_metrics
    from spans import Patches, Tracer

    refs = spec.refs()
    outcome = Outcome()
    out = work / "out"
    captured: list = []
    tracer = Tracer()

    def rep(k: int, traced: bool) -> tuple[float, float]:
        ini = spec.write_ini(ROOT, work / "inputs" / f"rep{k}.ini", program_seed(seed, k))
        captured.clear()
        with Patches() as patches:
            if traced:
                instrument(tracer, patches)
            wall, codes, stderr = run_rep(spec, ini, out)
        return wall, outcome.add_rep(spec, out, captured, refs, codes, stderr, k)

    with Patches() as capture:
        install_capture(capture, captured)
        reps = spec.reps(seconds)
        if not trace:
            walls, scaled = [], []
            reference = Reference(spec.reference)
            reference.top_up()
            for k in range(reps):
                wall, work_scale = rep(k, False)
                reference.top_up(wall)
                walls.append(wall)
                scaled.append(wall * work_scale)
            outcome.add_checks(spec.check_run(outcome.data, refs), "run")
            wall_s = statistics.median(scaled) * reference.scale()
            return {"wall_s": wall_s}, outcome, {
                "wall_raw_s": describe(walls), "wall_work_scaled_s": describe(scaled),
                "reference": reference.record()}
        diffs = []
        for k in range(max(1, reps // 2)):
            order = (False, True) if k % 2 == 0 else (True, False)
            walls = {traced: rep(k, traced)[0] for traced in order}
            diffs.append(walls[True] - walls[False])
        outcome.add_checks(spec.check_run(outcome.data, refs), "run")
    tracer.write(ROOT / ".perfbench" / "spans" / f"{spec.name}-seed{seed}.json")
    metrics = per_layer_metrics(tracer, statistics.median(diffs))
    return metrics, outcome, {"overhead_s": describe(diffs)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dlczsim" / "cli.py").is_file():
        print(f"error: no dlczsim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dlczsim
    if Path(dlczsim.__file__).resolve().parent != ROOT / "src" / "dlczsim":
        print(f"error: imported dlczsim from {dlczsim.__file__}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    spec = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{spec.name}-seed{args.seed}-{os.getpid()}"
    try:
        record = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_record()}
        if not args.trace:
            setup, imports = measure_setup(spec.write_ini(
                ROOT, work / "inputs" / "setup.ini", program_seed(args.seed, 0)))
            setup_scale = IMPORT_NOMINAL_S / statistics.median(imports)
            record["setup_raw_s"] = describe(setup)
            record["setup_reference"] = {"median_s": statistics.median(imports),
                                         "scale": setup_scale}
        values, outcome, plan = run_workload(spec, args.seed, args.seconds,
                                             bool(args.trace), work)
        record.update(plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from layers import PER_LAYER
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values["setup_s"] = statistics.median(setup) * setup_scale
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["success_frac"] = 1.0 - outcome.failed / outcome.attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["failures"] = outcome.failures[:20]
    record["elapsed_s"] = time.perf_counter() - started
    print(json.dumps(record))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
