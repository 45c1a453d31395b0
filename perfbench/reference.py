"""Reference kernels that rescale measured times to the reference box's speed.

The benchmark shares a 2-core machine with other tenants. Their load slows
this process by up to 1.7x, switching between a fast and a slow state many
times a second and changing its mix over minutes; the guest sees no steal
time. A 20 s run therefore measures the load mix as much as the program.

Each run interleaves a fixed reference kernel with its work, spending about
REFERENCE_SHARE of the run on it, and rescales its times by
``nominal / median(kernel time)``. The kernels do the same kind of work as
the program (a Python tick loop over int64 arrays with scalar draws; array
sampling over a slot array; argument parsing and JSON formatting), so the
load slows them by about the same factor.
A change to dlczsim leaves them unchanged, so every change to the program
still shows in full.

Set-up time, mostly numpy's import, does not follow the in-process kernels
under load. It is rescaled by IMPORT_SNIPPET instead: a fresh interpreter
that imports a fixed set of standard-library modules, run alternately with
the set-up samples.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

REFERENCE_SHARE = 0.1


def interp_kernel() -> int:
    """Python tick loop over int64 arrays with scalar random draws."""
    rng = np.random.default_rng(12345)
    rows = [np.full(16 >> lev, -1, dtype=np.int64) for lev in range(5)]
    done = 0
    for tick in range(1, 2001):
        for j in range(16):
            if rows[0][j] < 0 and rng.random() < 0.05:
                rows[0][j] = tick
        for lev in range(1, 5):
            row, below = rows[lev], rows[lev - 1]
            for s in range(row.size):
                if row[s] < 0 and below[2 * s] >= 0 and below[2 * s + 1] >= 0:
                    below[2 * s] = below[2 * s + 1] = -1
                    if rng.random() < 0.7:
                        row[s] = tick
        if rows[4][0] >= 0:
            done += 1
            for row in rows:
                row[:] = -1
    return done


def array_kernel() -> int:
    """Vectorised sampling and first-click scans over a (trains, 2, modes) array."""
    rng = np.random.default_rng(12345)
    k = rng.binomial(2, 0.01, size=(30_000, 2, 12))
    clicks = rng.binomial(k, 0.2) > 0
    first = np.argmax(clicks.any(axis=1), axis=1)
    return int(first.sum() + np.bincount(first, minlength=12).max())


def cli_kernel() -> int:
    """Argument parsing with subcommands and float-formatted JSON, as a CLI
    call spends its time."""
    total = 0
    for _ in range(8):
        parser = argparse.ArgumentParser(prog="ref")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("a", "b", "c", "d", "e"):
            cmd = sub.add_parser(name, help=f"command {name}")
            for flag in ("--config", "--seed", "--trials", "--out-dir", "--format"):
                cmd.add_argument(flag)
        args = parser.parse_args(["c", "--seed", "7", "--config", "x.ini"])
        record = {f"key{i}": [format(i / 7.0, ".9g") for _ in range(8)] for i in range(40)}
        total += len(json.dumps({**vars(args), "record": record}, sort_keys=True, indent=2))
    return total


# Kernel time on the reference box (2-core Xeon, Python 3.11, numpy 2.4) when
# no other tenant loads it, in seconds.
KERNELS = {
    "interp": (interp_kernel, 0.022),
    "array": (array_kernel, 0.021),
    "cli": (cli_kernel, 0.008),
}


# Runs in a fresh interpreter and prints its import time.
IMPORT_SNIPPET = """\
import time
start = time.perf_counter()
import argparse, csv, decimal, email.parser, json, logging, pathlib, tempfile, unittest, xml.dom.minidom
print(time.perf_counter() - start)
"""
IMPORT_NOMINAL_S = 0.035


class Reference:
    """Interleaves one kernel with measured work and gives the rescale factor."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, self.nominal = KERNELS[name]
        self.samples: list[float] = []
        self.work_s = 0.0

    def top_up(self, work_s: float = 0.0) -> None:
        """Add ``work_s`` of measured work, then run the kernel until it has
        had its share of the run (at least once)."""
        self.work_s += work_s
        while not self.samples or sum(self.samples) < REFERENCE_SHARE * self.work_s:
            start = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        return self.nominal / statistics.median(self.samples)

    def record(self) -> dict:
        return {"kernel": self.name, "n": len(self.samples),
                "median_s": statistics.median(self.samples), "scale": self.scale()}
