"""The README's contract tables are read back from the code, so they cannot
fall behind it."""

import re
from pathlib import Path

from dlczsim import cli
from dlczsim.config_io import ChainParams, ExperimentConfig, LinkParams, RunConfig
from dlczsim.errors import field_spec

ROOT = Path(__file__).resolve().parents[1]


SECTIONS = {"link": LinkParams, "chain": ChainParams, "sim": RunConfig,
            "experiment": ExperimentConfig}


def test_readme_names_every_module_link_key_and_exit_code():
    readme = (ROOT / "README.md").read_text()

    modules = {path.stem for path in (ROOT / "src" / "dlczsim").glob("*.py")} - {"__init__"}
    layout = set(re.findall(r"^\| `dlczsim\.(\w+)`", readme, re.M))
    assert layout == modules, "the README layout table must name every module"

    keys = {section: re.findall(r"`(\w+)`", listed)
            for section, listed in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.M)}
    assert keys == {section: [name + unit for name, _, _, unit in field_spec(record)]
                    for section, record in SECTIONS.items()}

    exit_codes = re.search(r"^Exit codes: (.*?)\n\n", readme, re.S | re.M)
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert [int(code) for code in re.findall(r"`(\d+)`", exit_codes.group(1))] == sorted(constants)
