"""Regenerate the digests of `tests/test_golden.py` for this numpy version.

Runs every case of the golden test, writes its digests into
`tests/golden.json` under numpy's major.minor version (the digests of other
versions are kept), and prints each file whose digest moved, appeared or
went away. A change that keeps every draw and layout leaves the file as it
was.

    python tools/golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, GOLDEN, numpy_version, run_case  # noqa: E402


def main() -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    version = numpy_version()
    old = golden.get(version, {})
    new: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            new.update(run_case(name, Path(tmp) / name))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"moved: {key}")
    golden[version] = new
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{len(new)} digests for numpy {version} in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
