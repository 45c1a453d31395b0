"""The shipped commands write the same bytes.

Each case runs one command in-process through `cli.main` and hashes every
result file it writes, and its stdout, with sha256. `tests/golden.json` holds
the digests, keyed by numpy's major.minor version, since numpy may change its
distribution algorithms between releases; on a version with no digests the
test skips and names both versions. Manifests are left out: they hold time
stamps and paths.

A change that moves the draws or a result layout on purpose regenerates the
digests with `python tools/golden.py`, which prints every file that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dlczsim import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
PROJECTION = str(ROOT / "configs" / "projection.ini")
CALIBRATED = str(ROOT / "configs" / "link_calibrated.ini")
DATA = ROOT / "tests" / "data"

CASES = {
    "rate_json": ["rate", "--config", PROJECTION],
    "rate_csv": ["rate", "--config", PROJECTION, "--format", "csv"],
    "sweep_l0": ["sweep", "--config", PROJECTION, "--param", "l0", "--min", "8",
                 "--max", "504", "--steps", "64", "--fixed-total-km", "1008"],
    "simulate": ["simulate", "--config", PROJECTION, "--trials", "200"],
    "simulate_elementary": ["simulate", "--config", PROJECTION, "--elementary"],
    "link_experiment": ["link-experiment", "--config", CALIBRATED],
    **{f"fit_{model}": ["fit", str(DATA / f"fit_{model}.csv"), "--model", model]
       for model in ("exp", "linear", "sinusoid")},
}


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def run_case(name: str, out: Path) -> dict[str, str]:
    """sha256 of case ``name``'s stdout and of each result file it writes
    under ``out``, keyed ``<case>/<file>``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*CASES[name], "--out-dir", str(out)])
    assert code == cli.EXIT_OK, f"{name} exited {code}"
    digests = {f"{name}/stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", CASES)
def test_result_files_and_stdout_match_their_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    version = numpy_version()
    if version not in golden:
        pytest.skip(f"digests are for numpy {', '.join(sorted(golden))}; "
                    f"this is numpy {version}")
    want = {key: digest for key, digest in golden[version].items()
            if key.startswith(f"{name}/")}
    got = run_case(name, tmp_path)
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, f"moved: {moved}"
