"""The README's contract tables are read back from the code, so they cannot
fall behind it."""

import re
from pathlib import Path

from dlczsim import cli
from dlczsim.config_io import _UNITS, LINK_FIELDS

ROOT = Path(__file__).resolve().parents[1]


def test_readme_names_every_module_link_key_and_exit_code():
    readme = (ROOT / "README.md").read_text()

    modules = {path.stem for path in (ROOT / "src" / "dlczsim").glob("*.py")} - {"__init__"}
    layout = set(re.findall(r"^\| `dlczsim\.(\w+)`", readme, re.M))
    assert layout == modules, "the README layout table must name every module"

    link_keys = re.search(r"The `\[link\]` keys are (.*?), and each one", readme, re.S)
    assert re.findall(r"`(\w+)`", link_keys.group(1)) == [
        name + _UNITS.get(name, "") for name, _, _ in LINK_FIELDS]

    exit_codes = re.search(r"^Exit codes: (.*?)\n\n", readme, re.S | re.M)
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert [int(code) for code in re.findall(r"`(\d+)`", exit_codes.group(1))] == sorted(constants)
