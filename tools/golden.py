"""Regenerate the digests of `tests/test_golden.py` for this numpy version.

Runs every case of the golden test and writes its digests into
`tests/golden.json` under the case's key: numpy's major.minor version for a
case that draws or fits (the digests of other versions are kept), "any" for
the numpy-free `rate` and `sweep` cases. A manifest is hashed after the
golden test's `mask_manifest`. Prints each file whose digest moved,
appeared or went away. A change that keeps every draw and layout leaves the
file as it was.

    python tools/golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, GOLDEN, golden_key, run_case  # noqa: E402


def main() -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            new.setdefault(golden_key(name), {}).update(run_case(name, Path(tmp) / name))
    for key, digests in sorted(new.items()):
        old = golden.get(key, {})
        for file in sorted(old.keys() | digests.keys()):
            if old.get(file) != digests.get(file):
                print(f"moved: {file}")
        golden[key] = digests
        print(f"{len(digests)} digests under {key!r} in {GOLDEN.relative_to(ROOT)}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
