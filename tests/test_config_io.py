import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim import config_io
from dlczsim.config_io import (
    ChainParams,
    ExperimentConfig,
    LinkParams,
    RunConfig,
    canonical_json,
    format_float,
    parse_config,
    parse_config_text,
    write_csv_atomic,
    write_text_atomic,
)
from dlczsim.errors import CASTS, RANGES, ConfigError, ParameterError, field_spec
from dlczsim.link_physics import PmnTable


# every key of every section, each set away from its default and to a value
# no other key of its section shares, so a key read into the wrong field shows
SAMPLE_INI = """\
[link]
chi = 0.0123
mode_count = 7
retrieval_eff_zero = 0.65
memory_lifetime_s = 0.00025
detection_eff = 0.19
eta_td = 0.11
visibility_cap = 0.97
dark_count_prob = 2e-05
crosstalk_eps = 0.3

[chain]
l0_km = 50.5
l_att_km = 21.5
n_levels = 3
fiber_speed_km_s = 199000.0
eta_fc = 0.5
eta_td = 0.85
chi = 0.02
mode_count = 64
r0 = 0.75
tau0_s = 12.5
swap_intrinsic_factor = 0.6

[sim]
trials = 321
seed = 998877
max_sim_time_s = 123.25

[experiment]
storage_times_us = 1.0, 5.0, 150.0
mode_counts = 1, 3, 12
trains = 5000
window_budget = 60000
fringe_phases = 16
fringe_shots = 1234
"""


def sample_config() -> RunConfig:
    return RunConfig(
        link=LinkParams(chi=0.0123, mode_count=7, retrieval_eff_zero=0.65,
                        memory_lifetime=0.25e-3, detection_eff=0.19, eta_td=0.11,
                        visibility_cap=0.97, dark_count_prob=2e-5, crosstalk_eps=0.3),
        chain=ChainParams(l0=50.5, l_att=21.5, n_levels=3, fiber_speed=1.99e5,
                          eta_fc=0.5, eta_td=0.85, chi=0.02, mode_count=64, r0=0.75,
                          tau0=12.5, swap_intrinsic_factor=0.6),
        trials=321,
        seed=998877,
        max_sim_time=123.25,
        experiment=ExperimentConfig(
            storage_times_us=(1.0, 5.0, 150.0),
            mode_counts=(1, 3, 12),
            trains=5000,
            window_budget=60000,
            fringe_phases=16,
            fringe_shots=1234,
        ),
    )


class TestRoundTrip:
    def test_sample_sets_every_field_away_from_its_default(self):
        config = sample_config()
        for obj in (config.link, config.chain, config.experiment):
            values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
            assert len(set(values)) == len(values)
            for f, value in zip(dataclasses.fields(obj), values):
                assert f.default is dataclasses.MISSING or value != f.default, f.name
        for f in dataclasses.fields(RunConfig):
            if f.default is not dataclasses.MISSING:
                assert getattr(config, f.name) != f.default, f.name

    def test_every_key_maps_to_its_field(self):
        assert parse_config_text(SAMPLE_INI) == sample_config()

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(SAMPLE_INI)
        assert parse_config(path) == sample_config()

    def test_shipped_configs_parse(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "configs"
        projection = parse_config(root / "projection.ini")
        assert projection.chain is not None
        assert projection.chain.n_levels == 4
        link = parse_config(root / "link_calibrated.ini")
        assert link.link is not None
        assert link.link.mode_count == 12

    def test_projection_config_is_the_default_chain(self):
        # the projection point is written down twice: in the shipped config
        # and as the ChainParams defaults; the two copies must stay equal
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "configs"
        assert parse_config(root / "projection.ini").chain == ChainParams()


class TestParseErrors:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nope]\nx = 1\n")

    def test_unknown_key_names_the_section(self):
        with pytest.raises(ConfigError, match=r"\[chain\] has unknown keys"):
            parse_config_text("[chain]\nbogus = 3\n")

    @pytest.mark.parametrize("text, where", [
        ("[chain]\nl0_km = sixty\n", r"\[chain\] l0_km"),
        ("[experiment]\nmode_counts = 1, x\n", r"\[experiment\] mode_counts"),
        ("[experiment]\nstorage_times_us = 1.0, abc\n", r"\[experiment\] storage_times_us"),
        ("[link]\nchi = 0.01\nmode_count = 12.5\n", r"\[link\] mode_count"),
    ])
    def test_bad_value_names_section_and_key(self, text, where):
        with pytest.raises(ConfigError, match=where):
            parse_config_text(text)

    def test_malformed_ini_reports_source(self):
        with pytest.raises(ConfigError, match="broken.ini"):
            parse_config_text("this is not ini\n", source="broken.ini")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.ini")

    def test_zero_detection_efficiency_is_rejected_when_parsed(self):
        # intrinsic_efficiency divides by it after a whole storage point
        with pytest.raises(ParameterError, match=r"detection_eff must be finite and in \(0, 1\]"):
            parse_config_text("[link]\nchi = 0.01\ndetection_eff = 0\n")
        config = parse_config_text("[link]\nchi = 0.01\ndetection_eff = 1\n")
        assert config.link.detection_eff == 1.0

    @pytest.mark.parametrize("text, error, key", [
        ("[link]\nchi = 1e-7\nmode_count = {}\n", ParameterError,
         "mode_count"),
        ("[experiment]\nmode_counts = 1, {}\n", ConfigError, "mode_counts"),
    ])
    def test_mode_counts_above_a_million_are_rejected_when_parsed(self, text, error, key):
        # the link kernel and the closed forms hold arrays of N entries
        with pytest.raises(error, match=rf"{key} .*in \[1, 1000000\]"):
            parse_config_text(text.format(10**6 + 1))
        parse_config_text(text.format(10**6))

    def test_fringe_shots_above_1e12_are_rejected_when_parsed(self):
        # numpy's Poisson sampler rejects a mean above ~9.2e18
        with pytest.raises(ConfigError, match=r"fringe_shots .*in \[0, 1000000000000\]"):
            parse_config_text(f"[experiment]\nfringe_shots = {10**20}\n")
        config = parse_config_text(f"[experiment]\nfringe_shots = {10**12}\n")
        assert config.experiment.fringe_shots == 10**12

    def test_chains_deeper_than_ten_thousand_levels_are_rejected_when_parsed(self):
        # `rate` holds and prints one row per level
        with pytest.raises(ParameterError,
                           match=r"n_levels must be finite and in \[0, 10000\], got 10001"):
            parse_config_text("[chain]\nn_levels = 10001\n")
        assert parse_config_text("[chain]\nn_levels = 10000\n").chain.n_levels == 10000

    def test_more_than_a_thousand_storage_times_are_rejected_when_parsed(self):
        # the mode scan's substreams start where the 1001st storage point's would
        times = ", ".join(["1.0"] * 1001)
        with pytest.raises(ConfigError, match="storage_times_us must hold at most 1000"):
            parse_config_text(f"[experiment]\nstorage_times_us = {times}\n")
        config = parse_config_text(f"[experiment]\nstorage_times_us = {times[5:]}\n")
        assert len(config.experiment.storage_times_us) == 1000


def two_pass_json(obj) -> str:
    """The oracle of `canonical_json`: round every float to 9 significant
    digits in a copy, then encode the copy with `json.dumps`."""
    def rounded(value):
        if isinstance(value, float):
            return float(format(value, ".9g"))
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(v) for v in value]
        return value
    return json.dumps(rounded(obj), sort_keys=True, indent=2) + "\n"


# floats where the rounding or repr's notation changes: signed zeros, the
# subnormals, the largest float, around 1e16 and 1e-5 (repr's switches to
# exponent notation) and around the 9th significant digit
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e16, -1e16, 9.999999995e15, 9.9999999949e15, 1e16 + 2.0,
    1.23456789e16, 1e17, 1e-5, -1e-5, 9.999999995e-6, 9.9999999949e-6, 1.00000001e-5,
    1e-4, 9.9999999951e-5, 0.1, 1.0, 123456789.0, 1234567890.0, 999999999.5,
    math.inf, -math.inf, math.nan])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(), st.floats(1e-7, 1e-3), st.floats(1e14, 1e18),
                   st.floats(-1e-300, 1e-300))
TEXTS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00", "\x1f\n\t", "\u00e9",
                                              "\U0001f600", "\u2028", "\ud800", ""]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXTS),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(TEXTS, children, max_size=5)),
    max_leaves=25)


class TestResultFormatting:
    def test_format_float_is_nine_significant_digits(self):
        assert format_float(0.0942055321987654) == "0.0942055322"
        assert format_float(64.1522966123) == "64.1522966"

    def test_canonical_json_rounds_and_sorts(self):
        text = canonical_json({"b": 0.123456789123, "a": [1.0, 2.5]})
        data = json.loads(text)
        assert list(data.keys()) == ["a", "b"]
        assert data["b"] == 0.123456789

    @given(obj=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_canonical_json_matches_the_two_pass_encoder(self, obj):
        assert canonical_json(obj) == two_pass_json(obj)

    def test_canonical_json_edge_tokens(self):
        assert canonical_json({"e": [[], {}, ()], "z": (-0.0, math.inf, -math.inf, math.nan)}) == (
            '{\n  "e": [\n    [],\n    {},\n    []\n  ],\n'
            '  "z": [\n    -0.0,\n    Infinity,\n    -Infinity,\n    NaN\n  ]\n}\n')
        assert canonical_json("\u00e9\"\x01") == '"\\u00e9\\"\\u0001"\n'

    def test_csv_writer_header_rows_trailers(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(path, ("x", "y"), [(1, 0.5), (2, 0.25)],
                         trailer_comments=("note: test",))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.5"
        assert lines[-1] == "# note: test"

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=lambda u: f"umask_{u:03o}")
    def test_result_file_gets_the_mode_open_gives(self, tmp_path, umask):
        # os.replace keeps the temp file's mode, so the temp file must be made
        # as a plain open() makes a result file in the same directory
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x")
            write_text_atomic(tmp_path / "rate.json", "{}\n")
        finally:
            os.umask(previous)
        assert (tmp_path / "rate.json").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert (tmp_path / "rate.json").read_text() == "{}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["plain.txt", "rate.json"]

    def test_failed_write_leaves_no_temp_file_and_the_target_unchanged(self, tmp_path):
        # a lone surrogate has no encoding, so the write fails after the temp
        # file is made
        (tmp_path / "rate.json").write_bytes(b"{}\n")
        for name in ("rate.json", "fresh.json"):
            with pytest.raises(UnicodeEncodeError):
                write_text_atomic(tmp_path / name, "{\"x\": \"\ud800\"}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["rate.json"]
        assert (tmp_path / "rate.json").read_bytes() == b"{}\n"

    def test_stale_temp_file_does_not_block_the_write(self, tmp_path):
        # a run killed between open and replace leaves <name>.<pid>.tmp behind
        (tmp_path / f"rate.json.{os.getpid()}.tmp").write_text("stale")
        write_text_atomic(tmp_path / "rate.json", "{}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["rate.json"]
        assert (tmp_path / "rate.json").read_text() == "{}\n"


class TestExperimentConfigValidation:
    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(storage_times_us=())
        with pytest.raises(ConfigError):
            ExperimentConfig(mode_counts=())

    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trains=0)
        with pytest.raises(ConfigError, match="fringe_shots"):
            ExperimentConfig(fringe_shots=-1)

    def test_rejects_fewer_than_four_fringe_phases(self):
        # a sinusoid fit needs at least four phases
        for bad in (3, 0, -4):
            with pytest.raises(ConfigError, match="fringe_phases"):
                ExperimentConfig(fringe_phases=bad)
        assert ExperimentConfig(fringe_phases=4).fringe_phases == 4

    def test_rejects_non_finite_storage_times(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="storage_times_us"):
                ExperimentConfig(storage_times_us=(1.0, bad))


def undeclared(record) -> set:
    """Fields of ``record`` not declared with `errors.checked`, or without a
    known range or cast: they would be neither read from a section nor checked."""
    return {f.name for f in dataclasses.fields(record)
            if f.metadata.get("allowed", ()) not in RANGES or f.type not in CASTS}


class TestFieldDeclarations:
    @pytest.mark.parametrize("record", [LinkParams, ChainParams, ExperimentConfig, PmnTable])
    def test_every_field_is_declared_in_order(self, record):
        assert undeclared(record) == set()
        assert ([name for name, *_ in field_spec(record)]
                == [f.name for f in dataclasses.fields(record)])

    def test_run_config_declares_all_but_its_sections(self):
        assert undeclared(RunConfig) == {"link", "chain", "experiment"}

    def test_a_field_added_without_a_declaration_is_caught(self):
        grown = dataclasses.make_dataclass(
            "Grown", [("extra", "float", dataclasses.field(default=1.0))],
            bases=(ChainParams,), frozen=True)
        assert undeclared(grown) == {"extra"}
        assert "extra" not in [name for name, *_ in field_spec(grown)]


class TestNoNumpy:
    """Reading a config loads no kernel: config_io imports no numpy."""

    def test_parsing_the_shipped_configs_leaves_numpy_unloaded(self):
        root = Path(__file__).resolve().parents[1]
        code = ("import sys\n"
                "import dlczsim.config_io as config_io\n"
                "for name in ('projection.ini', 'link_calibrated.ini'):\n"
                f"    config_io.parse_config({str(root / 'configs')!r} + '/' + name)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
        assert done.stdout.strip() == "[]"

    def test_config_io_imports_no_package_module_but_errors(self):
        tree = ast.parse(Path(config_io.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported |= {node.module} if node.module else {a.name for a in node.names}
        assert imported == {"errors"}
