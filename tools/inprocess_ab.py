"""One-process A/B of a benchmark workload: a base revision against the tree.

Exports the base revision's `src/dlczsim` with `git archive` as the package
`dlczsim_base` (every import inside the package is relative, so the copy
imports under another name), loads it next to `dlczsim` from `src/`, and
times each workload rep of `perfbench/workloads.py` through both `cli.main`s,
rep by rep, alternating which side runs first. Both sides read the same
generated INI, so they do the same work, and the load of a shared machine
falls on both alike. For each workload it prints the median rep wall of each
side, the paired ratio (median of change/base over the rounds) with a 95%
bootstrap interval, and in how many rounds the change was faster. It also
checks that both sides exit 0 and, in every round (each runs its own seed),
outside the timed region, that they write the same result bytes; a
difference names the round and the file.

    python tools/inprocess_ab.py --workload rate_sweep --rounds 300
    python tools/inprocess_ab.py --base HEAD~1 --workload chain_projection

Run it from a git checkout; the change side is the working tree. The first
WARMUP rounds are not counted: they hold each side's one-time costs (the
lazy parser, first-call caches).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, program_seed  # noqa: E402

WARMUP = 3


def export_package(rev: str, name: str, into: Path) -> None:
    """Write ``rev``'s `src/dlczsim` to ``into / name``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src/dlczsim"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "dlczsim").rename(into / name)


def time_rep(main, argvs) -> float:
    """Summed wall time of ``main`` over the rep's commands; each must exit 0."""
    wall = 0.0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            start = time.perf_counter()
            code = main(argv)
            wall += time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"error: {' '.join(argv)} exited {code}")
    return wall


def result_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def first_difference(base: dict[str, bytes], change: dict[str, bytes]) -> str | None:
    """The first result file, by name, that one side wrote and the other did
    not, or wrote with other bytes."""
    return next((name for name in sorted(base.keys() | change.keys())
                 if base.get(name) != change.get(name)), None)


def bootstrap_interval(ratios: list[float], draws: int = 2000) -> tuple[float, float]:
    """95% interval of the median ratio, resampling rounds."""
    rng = random.Random(20231)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def compare(spec, mains: dict, rounds: int, seed: int, work: Path) -> dict:
    walls: dict[str, list[float]] = {side: [] for side in mains}
    for k in range(WARMUP + rounds):
        ini = spec.write_ini(ROOT, work / "inputs" / f"rep{k}.ini", program_seed(seed, k))
        outs = {side: work / side for side in mains}
        order = list(mains) if k % 2 == 0 else list(mains)[::-1]
        timed = {side: time_rep(mains[side], spec.argvs(ini, outs[side])) for side in order}
        differs = first_difference(result_bytes(outs["base"]), result_bytes(outs["change"]))
        if differs:
            raise SystemExit(f"error: {spec.name}: round {k} (program seed "
                             f"{program_seed(seed, k)}): the two sides wrote different {differs}")
        if k >= WARMUP:
            for side, wall in timed.items():
                walls[side].append(wall)
    ratios = [c / b for b, c in zip(walls["base"], walls["change"])]
    return {
        "base_ms": 1e3 * statistics.median(walls["base"]),
        "change_ms": 1e3 * statistics.median(walls["change"]),
        "ratio": statistics.median(ratios),
        "interval": bootstrap_interval(ratios),
        "faster": sum(r < 1.0 for r in ratios),
        "rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to compare (repeatable; default: all four)")
    parser.add_argument("--base", default="HEAD", help="git revision of the base side")
    parser.add_argument("--rounds", type=int, default=100, help="counted rounds a workload")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed of the inputs")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.seed < 0:
        parser.error("--rounds must be >= 2 and --seed >= 0")

    with tempfile.TemporaryDirectory(prefix="inprocess_ab-") as tmp:
        tmp = Path(tmp)
        export_package(args.base, "dlczsim_base", tmp / "base")
        sys.path.insert(0, str(tmp / "base"))
        mains = {"base": importlib.import_module("dlczsim_base.cli").main,
                 "change": importlib.import_module("dlczsim.cli").main}

        print(f"base {args.base}, change: the working tree, {args.rounds} rounds after "
              f"{WARMUP} warm-up, seed {args.seed}")
        print("| workload | base ms | change ms | paired ratio [95%] | change faster |")
        print("|---|---|---|---|---|")
        for name in args.workload or sorted(WORKLOADS):
            work = tmp / "work" / name
            r = compare(WORKLOADS[name], mains, args.rounds, args.seed, work)
            shutil.rmtree(work, ignore_errors=True)
            lo, hi = r["interval"]
            print(f"| {name} | {r['base_ms']:.3f} | {r['change_ms']:.3f} | "
                  f"{r['ratio']:.3f} [{lo:.3f}, {hi:.3f}] | {r['faster']} of {r['rounds']} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
