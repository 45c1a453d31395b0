"""Pass rates of acceptance criteria 2, 4 and 5 over fresh seeds.

Runs each criterion's measurement and checks, the same helpers the
acceptance tests call at their fixed seed, at root seeds ``base + 100 * s``
for s = 0 .. K-1, and prints one markdown table: the pass rate of each
criterion and of each of its checks, and criterion 2's z-scores, whose
spread shows whether a failing check is off in its centre or in its error
bar. The runtime budgets of the tests are not applied. The stride of 100
keeps criterion 4's roots (seed + 4, seed + 40) and criterion 5's
(seed + 5, seed + 50) distinct across seeds.

    python tools/acceptance_odds.py --seeds 200
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from test_acceptance import (  # noqa: E402
    concurrence_calibration,
    crosstalk_monotonicity,
    mode_scaling,
)

CRITERIA = {
    "2": (mode_scaling, ("slope_ok", "ratio_ok", "bracket_ok")),
    "4": (concurrence_calibration, ("c1_ok", "c150_ok", "v1_ok", "v150_ok")),
    "5": (crosstalk_monotonicity, ("monotone", "drop_sig", "flat")),
}


def _rate(flags) -> str:
    p = float(np.mean(flags))
    return f"{int(np.sum(flags))}/{len(flags)} = {p:.3f} +/- {math.sqrt(p * (1 - p) / len(flags)):.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="fresh seeds per criterion")
    parser.add_argument("--base", type=int, default=7000, help="first root seed")
    args = parser.parse_args(argv)

    print("| criterion | check | passed | rate +/- stderr |")
    print("|---|---|---|---|")
    z_lines = []
    for name, (measure, checks) in CRITERIA.items():
        start = time.perf_counter()
        results = [measure(args.base + 100 * s) for s in range(args.seeds)]
        elapsed = time.perf_counter() - start
        for check in ("ok", *checks):
            flags = [bool(getattr(r, check)) for r in results]
            label = "all checks" if check == "ok" else check
            print(f"| {name} | {label} | {sum(flags)} | {_rate(flags)} |")
        if name == "2":
            for label, z in (
                    ("ratio z = (ratio - 12) / ratio_err",
                     [(r.ratio - 12.0) / r.ratio_err for r in results]),
                    ("slope z = (slope - configured) / slope_err",
                     [(r.slope - r.configured) / r.slope_err for r in results])):
                z_lines.append(f"criterion 2 {label}: mean {np.mean(z):+.3f}, "
                               f"sd {np.std(z, ddof=1):.3f} over {len(z)} seeds")
        print(f"criterion {name}: {args.seeds} seeds in {elapsed:.1f} s", file=sys.stderr)
    print()
    for line in z_lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
