"""Configuration files and deterministic result writers.

Configs are INI text with one section per parameter class. Each key is a
field of that class's check_fields spec plus its unit suffix (l0_km, tau0_s,
...), so a value can never be mis-read in the wrong unit. Result files are
written atomically (temp file + rename) with every float serialized at 9
significant digits, which makes reruns byte-comparable.
"""

from __future__ import annotations

import configparser
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .chain_sim import SIM_FIELDS, SimConfig
from .errors import ConfigError, check_fields
from .link_physics import LINK_FIELDS, LinkParams
from .rate import CHAIN_FIELDS, ChainParams

__all__ = [
    "ExperimentConfig",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "format_cell",
    "format_float",
    "canonical_json",
    "write_text_atomic",
    "write_csv_atomic",
]


# check_fields spec of ExperimentConfig, also its [experiment] keys
EXPERIMENT_FIELDS = (
    ("storage_times_us", (float,), ">= 0"),
    ("mode_counts", (int,), "in [1, 1000000]"),
    ("trains", int, ">= 1"),
    ("window_budget", int, ">= 1"),
    ("fringe_phases", int, ">= 4"),     # a sinusoid fit needs 4 phases
    ("fringe_shots", int, "in [0, 1000000000000]"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Budgets for the link-experiment command.

    Storage times are kept in the config's own unit (microseconds), so the
    parsed values and the manifest's echo of them are the numbers in the file;
    use `storage_times` for seconds.
    """

    storage_times_us: tuple[float, ...] = (1.0, 150.0)
    mode_counts: tuple[int, ...] = tuple(range(1, 13))
    trains: int = 200_000
    window_budget: int = 2_400_000
    fringe_phases: int = 12
    fringe_shots: int = 4000

    def __post_init__(self):
        check_fields(self, EXPERIMENT_FIELDS, ConfigError)

    @property
    def storage_times(self) -> tuple[float, ...]:
        return tuple(t * 1e-6 for t in self.storage_times_us)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run can need; sections absent from the file are None."""

    link: LinkParams | None = None
    chain: ChainParams | None = None
    trials: int = 1000
    seed: int = 0
    max_sim_time: float = 3600.0
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        check_fields(self, SIM_FIELDS)

    def sim_config(self) -> SimConfig:
        if self.chain is None:
            raise ConfigError("this command needs a [chain] section")
        return SimConfig(chain=self.chain, trials=self.trials, seed=self.seed,
                         max_sim_time=self.max_sim_time)


# Unit suffix of a field's INI key; every other key is the bare field name.
_UNITS = {
    "l0": "_km", "l_att": "_km", "fiber_speed": "_km_s",
    "tau0": "_s", "pulse_interval": "_s", "train_duration": "_s",
    "memory_lifetime": "_s", "max_sim_time": "_s",
    "phase_s": "_rad", "phase_as": "_rad",
}


def _read_section(parser: configparser.ConfigParser, section: str, spec) -> dict:
    """The fields of a check_fields spec that ``section`` sets, each cast by
    its spec; a list field's items are separated by commas or spaces."""
    fields = {}
    keys = set()
    for name, cast, _ in spec:
        key = name + _UNITS.get(name, "")
        keys.add(key)
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                if type(cast) is tuple:
                    fields[name] = tuple(map(cast[0], raw.replace(",", " ").split()))
                else:
                    fields[name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    unknown = set(parser.options(section)) - keys
    if unknown:
        raise ConfigError(f"[{section}] has unknown keys: {sorted(unknown)}")
    return fields


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    link = chain = None
    sim_fields: dict = {}
    experiment = ExperimentConfig()
    for section in parser.sections():
        if section == "link":
            link = LinkParams(**_read_section(parser, section, LINK_FIELDS))
        elif section == "chain":
            chain = ChainParams(**_read_section(parser, section, CHAIN_FIELDS))
        elif section == "sim":
            sim_fields = _read_section(parser, section, SIM_FIELDS)
        elif section == "experiment":
            experiment = ExperimentConfig(**_read_section(parser, section, EXPERIMENT_FIELDS))
        else:
            raise ConfigError(f"{source}: unknown section [{section}]")
    return RunConfig(link=link, chain=chain, experiment=experiment, **sim_fields)


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


# ---------------------------------------------------------------------------
# deterministic result files
# ---------------------------------------------------------------------------

def format_float(value: float) -> str:
    """Canonical 9-significant-digit rendering used in every result file."""
    return format(float(value), ".9g")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """JSON with sorted keys and floats rounded to 9 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_cell(value) -> str:
    """One result-file cell: floats at 9 significant digits, anything else as str."""
    return format_float(value) if isinstance(value, float) else str(value)


def write_csv_atomic(path, header, rows, trailer_comments=()) -> None:
    """CSV with a mandatory header, 9-digit floats, optional '#' trailers."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    lines.extend(f"# {comment}" for comment in trailer_comments)
    write_text_atomic(path, "\n".join(lines) + "\n")

