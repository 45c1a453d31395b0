"""Every input record, the INI configs that set them, and the result writers.

Each record's check_fields spec is also its INI section: each key is a field
plus its unit suffix (l0_km, tau0_s, ...), so a value can never be mis-read in
the wrong unit. No numpy is imported, so a config is read and checked without
loading a kernel. Result files are written atomically (temp file + rename)
with every float at 9 significant digits, which makes reruns byte-comparable.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError, check_fields

__all__ = [
    "LinkParams",
    "ChainParams",
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


# check_fields spec of LinkParams, also its [link] keys
LINK_FIELDS = (
    ("chi", float, "in [0, 1)"),    # chi = 1 has no normalizable thermal law
    ("mode_count", int, "in [1, 1000000]"),
    ("retrieval_eff_zero", float, "in [0, 1]"),
    ("memory_lifetime", float, "> 0"),
    ("detection_eff", float, "in (0, 1]"),   # intrinsic_efficiency divides by it
    ("eta_td", float, "in [0, 1]"),
    ("visibility_cap", float, "in [0, 1]"),
    ("dark_count_prob", float, "in [0, 1]"),
    ("crosstalk_eps", float, "in [0, 1]"),
)


@dataclass(frozen=True)
class LinkParams:
    """Physical constants of one elementary link.

    chi                 Stokes excitation probability per write pulse per node.
    mode_count          temporal modes N per write train. Every mode is stored
                        for the same time, so the write-pulse timing enters
                        no observable.
    retrieval_eff_zero  intrinsic retrieval efficiency at zero delay (R0).
    memory_lifetime     spin-wave 1/e lifetime tau0, seconds.
    detection_eff       total anti-Stokes detection efficiency (eta_D).
    eta_td              total Stokes path + detector efficiency.
    visibility_cap      interference-visibility ceiling from phase noise.
    dark_count_prob     per-window false-click probability, per detector.
    crosstalk_eps       probability that an excited non-addressed mode leaks
                        one photon into a collected anti-Stokes mode at readout.
    """

    chi: float
    mode_count: int = 12
    retrieval_eff_zero: float = 0.707
    memory_lifetime: float = 0.3e-3
    detection_eff: float = 1.0
    eta_td: float = 1.0
    visibility_cap: float = 1.0
    dark_count_prob: float = 0.0
    crosstalk_eps: float = 0.0

    def __post_init__(self):
        check_fields(self, LINK_FIELDS)
        # each mode's law stops at 2 excitations; the modes are independent
        if self.chi > 0.1:
            warnings.warn(
                f"chi = {self.chi:.3g} > 0.1: each mode's photon-number law drops the "
                f"mass chi^3 = {self.chi ** 3:.3g} of 3 or more excitations", stacklevel=2)


# check_fields spec of ChainParams, also its [chain] keys and the parameters
# `sweep` may vary
CHAIN_FIELDS = (
    ("l0", float, "> 0"),
    ("l_att", float, "> 0"),
    ("n_levels", int, "in [0, 10000]"),
    ("fiber_speed", float, "> 0"),
    ("eta_fc", float, "in [0, 1]"),
    ("eta_td", float, "in [0, 1]"),
    ("chi", float, "in [0, 1]"),
    ("mode_count", int, ">= 1"),
    ("r0", float, "in [0, 1]"),
    ("tau0", float, "> 0"),
    ("swap_intrinsic_factor", float, "in [0, 1]"),
)


@dataclass(frozen=True)
class ChainParams:
    """Topology and efficiency constants of one repeater chain.

    l0       elementary link length, km.
    l_att    fiber attenuation length, km.
    n_levels nesting depth n; the chain spans 2**n * l0 km.
    fiber_speed  signal speed in fiber, km/s.
    eta_fc   memory-to-telecom frequency-conversion efficiency.
    eta_td   total detection efficiency (Stokes and anti-Stokes channels).
    chi      Stokes excitation probability per attempt.
    mode_count   temporal modes N per communication interval.
    r0       retrieval efficiency at zero delay.
    tau0     memory lifetime, seconds.
    swap_intrinsic_factor  extra per-swap success factor; 1 by default because
        the rate recursion carries no Bell-measurement penalty, 0.5 models a
        linear-optics BSM.
    """

    l0: float = 63.0
    l_att: float = 22.0
    n_levels: int = 4
    fiber_speed: float = 2.0e5
    eta_fc: float = 0.46
    eta_td: float = 0.9
    chi: float = 0.01
    mode_count: int = 100
    r0: float = 0.8
    tau0: float = 16.0
    swap_intrinsic_factor: float = 1.0

    def __post_init__(self):
        check_fields(self, CHAIN_FIELDS)
        if not 0.0 < self.t_cc < math.inf:
            raise ParameterError(
                f"T_cc = l0/fiber_speed = {self.t_cc!r} s is not a positive finite time")

    @property
    def t_cc(self) -> float:
        """Communication interval L0/c, seconds."""
        return self.l0 / self.fiber_speed


# check_fields spec of the run budget, also its [sim] keys; only RunConfig
# checks them, and chain_sim.simulate_chain adds the simulation's own limits
SIM_FIELDS = (
    ("trials", int, ">= 1"),
    ("seed", int, ">= 0"),
    ("max_sim_time", float, "> 0"),
)


# Storage points a scan may have: experiments.mode_count_scan's substreams
# start at this index, after the storage scan's
MAX_STORAGE_TIMES = 1000

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
        if len(self.storage_times_us) > MAX_STORAGE_TIMES:
            raise ConfigError(f"storage_times_us must hold at most {MAX_STORAGE_TIMES} "
                              f"values, got {len(self.storage_times_us)}")

    @property
    def storage_times(self) -> tuple[float, ...]:
        return tuple(t * 1e-6 for t in self.storage_times_us)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run can need; sections absent from the file are None.

    It is also the input of chain_sim.simulate_chain and of the experiments
    scans, which check their own work limits before any draw.
    """

    link: LinkParams | None = None
    chain: ChainParams | None = None
    trials: int = 1000
    seed: int = 0
    max_sim_time: float = 3600.0
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        check_fields(self, SIM_FIELDS)


# Unit suffix of a field's INI key; every other key is the bare field name.
_UNITS = {
    "l0": "_km", "l_att": "_km", "fiber_speed": "_km_s",
    "tau0": "_s", "memory_lifetime": "_s", "max_sim_time": "_s",
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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.unlink(missing_ok=True)        # a stale copy from a killed run of this pid
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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

