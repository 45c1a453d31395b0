"""Every input record, the INI configs that set them, and the result writers.

A record's checked fields (`errors.checked`) are also its INI section: each
key is a field plus its unit suffix (l0_km, tau0_s, ...), so a value can never
be mis-read in the wrong unit. No numpy is imported, so a config is read and
checked without loading a kernel. Result files are written atomically (temp file + rename)
with every float at 9 significant digits, which makes reruns byte-comparable;
`canonical_json` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``
in one pass that rounds each float as it writes it.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError, check_fields, checked, field_spec

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

    chi: float = checked("in [0, 1)")    # chi = 1 has no normalizable thermal law
    mode_count: int = checked("in [1, 1000000]", 12)
    retrieval_eff_zero: float = checked("in [0, 1]", 0.707)
    memory_lifetime: float = checked("> 0", 0.3e-3, unit="_s")
    detection_eff: float = checked("in (0, 1]", 1.0)   # intrinsic_efficiency divides by it
    eta_td: float = checked("in [0, 1]", 1.0)
    visibility_cap: float = checked("in [0, 1]", 1.0)
    dark_count_prob: float = checked("in [0, 1]", 0.0)
    crosstalk_eps: float = checked("in [0, 1]", 0.0)

    def __post_init__(self):
        check_fields(self)
        # each mode's law stops at 2 excitations; the modes are independent
        if self.chi > 0.1:
            warnings.warn(
                f"chi = {self.chi:.3g} > 0.1: each mode's photon-number law drops the "
                f"mass chi^3 = {self.chi ** 3:.3g} of 3 or more excitations", stacklevel=2)


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

    l0: float = checked("> 0", 63.0, unit="_km")
    l_att: float = checked("> 0", 22.0, unit="_km")
    n_levels: int = checked("in [0, 10000]", 4)
    fiber_speed: float = checked("> 0", 2.0e5, unit="_km_s")
    eta_fc: float = checked("in [0, 1]", 0.46)
    eta_td: float = checked("in [0, 1]", 0.9)
    chi: float = checked("in [0, 1]", 0.01)
    mode_count: int = checked(">= 1", 100)
    r0: float = checked("in [0, 1]", 0.8)
    tau0: float = checked("> 0", 16.0, unit="_s")
    swap_intrinsic_factor: float = checked("in [0, 1]", 1.0)

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.t_cc < math.inf:
            raise ParameterError(
                f"T_cc = l0/fiber_speed = {self.t_cc!r} s is not a positive finite time")

    @property
    def t_cc(self) -> float:
        """Communication interval L0/c, seconds."""
        return self.l0 / self.fiber_speed


# Storage points a scan may have: experiments.mode_count_scan's substreams
# start at this index, after the storage scan's
MAX_STORAGE_TIMES = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """Budgets for the link-experiment command.

    Storage times are kept in the config's own unit (microseconds), so the
    parsed values and the manifest's echo of them are the numbers in the file;
    use `storage_times` for seconds.
    """

    storage_times_us: tuple[float, ...] = checked(">= 0", (1.0, 150.0))
    mode_counts: tuple[int, ...] = checked("in [1, 1000000]", tuple(range(1, 13)))
    trains: int = checked(">= 1", 200_000)
    window_budget: int = checked(">= 1", 2_400_000)
    fringe_phases: int = checked(">= 4", 12)     # a sinusoid fit needs 4 phases
    fringe_shots: int = checked("in [0, 1000000000000]", 4000)

    def __post_init__(self):
        check_fields(self, ConfigError)
        if len(self.storage_times_us) > MAX_STORAGE_TIMES:
            raise ConfigError(f"storage_times_us must hold at most {MAX_STORAGE_TIMES} "
                              f"values, got {len(self.storage_times_us)}")

    @property
    def storage_times(self) -> tuple[float, ...]:
        return tuple(t * 1e-6 for t in self.storage_times_us)


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run can need; sections absent from the file are None,
    and the checked fields are the [sim] keys.

    It is also the input of chain_sim.simulate_chain and of the experiments
    scans, which check their own work limits before any draw.
    """

    link: LinkParams | None = None
    chain: ChainParams | None = None
    trials: int = checked(">= 1", 1000)
    seed: int = checked(">= 0", 0)
    max_sim_time: float = checked("> 0", 3600.0, unit="_s")
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        check_fields(self)


def _read_section(parser: configparser.ConfigParser, section: str, record) -> dict:
    """The checked fields of ``record`` that ``section`` sets, each cast by its
    annotation; a list field's items are separated by commas or spaces."""
    fields = {}
    keys = set()
    for name, cast, _, unit in field_spec(record):
        key = name + unit
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
            link = LinkParams(**_read_section(parser, section, LinkParams))
        elif section == "chain":
            chain = ChainParams(**_read_section(parser, section, ChainParams))
        elif section == "sim":
            sim_fields = _read_section(parser, section, RunConfig)
        elif section == "experiment":
            experiment = ExperimentConfig(**_read_section(parser, section, ExperimentConfig))
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


_encode_str = json.encoder.encode_basestring_ascii
_SPECIAL = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _encode(obj, parts: list, newline: str) -> None:
    """Append ``obj``'s JSON to ``parts``, each line after its first opening with
    ``newline``; a dict, list or tuple puts each item on a line of its own."""
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = repr(float(format_float(obj)))
        parts.append(_SPECIAL.get(text, text))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        opening, closing = "{}" if is_dict else "[]"
        sep, inner = opening, newline + "  "
        for key, value in (((_encode_str(k) + ": ", v) for k, v in sorted(obj.items()))
                           if is_dict else (("", v) for v in obj)):
            parts.append(sep + inner + key)
            _encode(value, parts, inner)
            sep = ","
        parts.append(opening + closing if sep == opening else newline + closing)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, with each
    float rounded to 9 significant digits as it is written: one pass, no copy."""
    parts: list = []
    _encode(obj, parts, "\n")
    return "".join(parts) + "\n"


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

