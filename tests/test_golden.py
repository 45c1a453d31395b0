"""The shipped commands write the same bytes.

Each case runs one command in-process through `cli.main` and hashes every
result file it writes, and its stdout, with sha256. `tests/golden.json` holds
the digests. Those of the cases that draw or fit are keyed by numpy's
major.minor version, since numpy may change its distribution algorithms
between releases; on a version with no digests those cases skip and name both
versions. `rate` and `sweep` read only `config_io` and `rate`, which import no
numpy, so their digests sit under the key "any" and are checked on every
numpy. Each manifest is hashed after `mask_manifest` takes out what differs
between two runs of the same case: its time stamps and paths.

A change that moves the draws or a result layout on purpose regenerates the
digests with `python tools/golden.py`, which prints every file that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
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
NUMPY_FREE = ("rate_json", "rate_csv", "sweep_l0")   # their bytes do not depend on numpy


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def golden_key(name: str) -> str:
    """The `tests/golden.json` key that holds case ``name``'s digests."""
    return "any" if name in NUMPY_FREE else numpy_version()


def mask_manifest(text: str, out: Path) -> str:
    """The text of a manifest written under ``out``, with the values of
    `created_unix` and `duration_s`, the out-dir prefix of each output and the
    checkout's root (a `fit` records its CSV's path) masked."""
    text = re.sub(r'("(?:created_unix|duration_s)": )[^,\n]*', r"\1<masked>", text)
    for path, token in ((out, "<out>"), (ROOT, "<root>")):
        text = text.replace(json.dumps(f"{path}{os.sep}")[1:-1], f"{token}/")
    return text


def run_case(name: str, out: Path) -> dict[str, str]:
    """sha256 of case ``name``'s stdout, of each result file it writes under
    ``out`` and of its masked manifest, keyed ``<case>/<file>``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*CASES[name], "--out-dir", str(out)])
    assert code == cli.EXIT_OK, f"{name} exited {code}"
    digests = {f"{name}/stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = mask_manifest(data.decode(), out).encode()
        digests[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", CASES)
def test_result_files_and_stdout_match_their_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    key = golden_key(name)
    if key not in golden:
        pytest.skip(f"digests are for numpy {', '.join(sorted(golden.keys() - {'any'}))}; "
                    f"this is numpy {key}")
    want = {file: digest for file, digest in golden[key].items()
            if file.startswith(f"{name}/")}
    got = run_case(name, tmp_path)
    moved = sorted(file for file in want.keys() | got.keys() if want.get(file) != got.get(file))
    assert not moved, f"moved: {moved}"


def test_numpy_free_cases_alone_sit_under_any():
    # "any" is checked on every numpy, so it must hold exactly the cases whose
    # bytes do not depend on numpy, and a version key exactly the others
    for key, digests in json.loads(GOLDEN.read_text()).items():
        cases = {file.split("/")[0] for file in digests}
        assert cases == (set(NUMPY_FREE) if key == "any" else CASES.keys() - set(NUMPY_FREE)), key
