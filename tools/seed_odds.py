"""Seed-odds census: the pass rate of every tier-1 test that draws, over fresh roots.

Runs the tier-1 suite once per census root, each in its own pytest process
with this file loaded as a plugin (``-p seed_odds``). The plugin appends the
root to every seed given to ``numpy.random.default_rng``, the one attribute
through which every generator of the tests and of ``streams.substream`` is
made, so each root re-rolls every fixed-seed check without a test edit. It
notes which tests drew, and the tool prints each drawing test's failures, its
pass rate +/- stderr, and the joint rate (roots on which all of them passed).

Left out: ``tests/test_golden.py`` (its digests pin the draws), criterion 6b
(an expected failure), and the parser-cache test that compares in-process
runs with fresh processes, which the plugin does not reach.

    python tools/seed_odds.py --roots 24
    python tools/seed_odds.py --roots 24 --parent HEAD~1   # also census that revision
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEFT_OUT = [
    "--ignore=tests/test_golden.py",
    "--deselect=tests/test_acceptance.py::test_criterion_6b_monte_carlo_agrees_with_recursion",
    "--deselect=tests/test_cli.py::TestParserCache::test_calls_in_one_process_match_fresh_processes",
]

# ---------------------------------------------------------------------------
# the plugin, active only in a pytest process that loads this file with -p
# ---------------------------------------------------------------------------
_outcomes: dict[str, bool] = {}
_drawing: set = set()
_current: list = [None]


def pytest_configure(config) -> None:
    import numpy as np
    census_root, default_rng = int(os.environ["SEED_ODDS_ROOT"]), np.random.default_rng

    def rooted(seed=None):
        _drawing.add(_current[0])
        if isinstance(seed, np.random.SeedSequence):
            entropy = [seed.entropy] if isinstance(seed.entropy, int) else list(seed.entropy)
            seed = np.random.SeedSequence([*entropy, census_root], spawn_key=seed.spawn_key)
        elif isinstance(seed, (int, np.integer)):
            seed = np.random.SeedSequence([int(seed), census_root])
        return default_rng(seed)
    np.random.default_rng = rooted


def pytest_runtest_protocol(item, nextitem) -> None:
    _current[0] = item.nodeid


def pytest_runtest_logreport(report) -> None:
    _outcomes[report.nodeid] = _outcomes.get(report.nodeid, True) and not report.failed


def pytest_sessionfinish(session) -> None:
    with open(os.environ["SEED_ODDS_OUT"], "w") as fh:
        json.dump({k: v for k, v in _outcomes.items() if k in _drawing}, fh)


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------

def census(label: str, tree: Path, roots: range, selection: list[str]) -> list[dict[str, bool]]:
    """Per root, {drawing test: passed} from one pytest process in ``tree``."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for root in roots:
            out = Path(tmp) / f"{root}.json"
            env = {**os.environ, "SEED_ODDS_ROOT": str(root), "SEED_ODDS_OUT": str(out),
                   "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(ROOT / "tools")])}
            subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "seed_odds",
                            "-p", "no:cacheprovider", *LEFT_OUT, *selection],
                           cwd=tree, env=env, stdout=subprocess.DEVNULL, check=False)
            results.append(json.loads(out.read_text()))
            failed = sorted(k for k, ok in results[-1].items() if not ok)
            print(f"{label} root {root}: {len(results[-1])} drawing tests, "
                  f"failed {failed}", file=sys.stderr)
    return results


def _rate(passed: int, n: int) -> str:
    p = passed / n
    return f"{p:.3f} +/- {math.sqrt(p * (1 - p) / n):.3f}"


def report(columns: dict[str, list[dict[str, bool]]]) -> None:
    """One markdown table: per test, failures and pass rate in each tree."""
    names = sorted(set().union(*(r for runs in columns.values() for r in runs)))
    print("| test | " + " | ".join(f"{c} failed | {c} pass rate" for c in columns) + " |")
    print("|---|" + "---|---|" * len(columns))
    for name in names:
        cells = []
        for runs in columns.values():
            seen = [r[name] for r in runs if name in r]
            cells += ([f"{len(seen) - sum(seen)}/{len(seen)}", _rate(sum(seen), len(seen))]
                      if seen else ["-", "-"])
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    joint = []
    for runs in columns.values():
        all_passed = sum(all(r.values()) for r in runs)
        joint += [f"{all_passed}/{len(runs)}", _rate(all_passed, len(runs))]
    print("| **all of them** | " + " | ".join(joint) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--roots", type=int, default=24, help="census roots")
    parser.add_argument("--first", type=int, default=1, help="first census root")
    parser.add_argument("--parent", help="also census this git revision, exported afresh")
    parser.add_argument("selection", nargs="*", help="pytest node ids (default: tier-1)")
    args = parser.parse_args(argv)
    roots = range(args.first, args.first + args.roots)

    columns = {"change": census("change", ROOT, roots, args.selection)}
    if args.parent:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "parent"
            tree.mkdir()
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "x", "-C", str(tree)], input=archive, check=True)
            columns["parent"] = census("parent", tree, roots, args.selection)
    report(columns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
