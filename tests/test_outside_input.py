"""Any float in any config key gives a result or a documented error.

Each example substitutes one drawn float (NaN, +-inf, huge and negative
values included) into every key of one section in turn. `[chain]` keys run
the `rate` command, which must exit 0, 2 or 3 with nothing else escaping and,
on exit 0, print a finite rate.
`[link]`, `[sim]` and `[experiment]` keys are parsed, which may reject them
with ConfigError/ParameterError, and fed to `simulate_chain` with its first
round stubbed out, which must raise ParameterError or reach that round: every
limit of the Monte Carlo is checked, and nothing is drawn. An accepted
config's closed forms must return finite values; only a link whose herald
weights are zero has no Pmn.
`simulate` and `link-experiment` are not run on drawn values: a swap that
almost never succeeds under a huge finite time guard lets each trial draw up
to a round's `chain_sim.MAX_ROUND_LINKS` links, so a run of many trials takes
minutes.
"""

import contextlib
import io
import math
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlczsim import chain_sim, cli
from dlczsim.chain_sim import simulate_chain
from dlczsim.config_io import parse_config_text
from dlczsim.errors import ConfigError, ParameterError
from dlczsim.link_physics import _link_law, expected_herald_probability, expected_pmn

BASE = {
    "link": {
        "chi": "0.01", "mode_count": "12", "retrieval_eff_zero": "0.707",
        "memory_lifetime_s": "0.0003", "detection_eff": "0.1848",
        "eta_td": "0.1239", "visibility_cap": "1.0", "dark_count_prob": "0.0",
        "crosstalk_eps": "0.6664",
    },
    "chain": {
        "l0_km": "63.0", "l_att_km": "22.0", "n_levels": "4",
        "fiber_speed_km_s": "200000.0", "eta_fc": "0.46", "eta_td": "0.9",
        "chi": "0.01", "mode_count": "100", "r0": "0.8", "tau0_s": "16.0",
        "swap_intrinsic_factor": "1.0",
    },
    "sim": {"trials": "1000", "seed": "20240817", "max_sim_time_s": "3600.0"},
    "experiment": {
        "storage_times_us": "1.0, 150.0", "mode_counts": "1, 12", "trains": "1000",
        "window_budget": "12000", "fringe_phases": "12", "fringe_shots": "4000",
    },
}


# 1e-308 as l0_km makes T_cc subnormal, so the rate overflows to inf
EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, 1e-320,
               1e-308, 1e308, -1e308)


def edge_examples(test):
    for value in EDGE_VALUES:
        test = example(value=value)(test)
    return test


def config_text(section: str, key: str, value: float) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections[section][key] = repr(value)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


class FirstRound(Exception):
    """Raised where `simulate_chain` would draw its first round."""


def first_round(*args):
    raise FirstRound


def test_base_config_is_valid():
    config = parse_config_text(config_text("sim", "seed", 1))
    assert expected_herald_probability(config.link) > 0.0
    assert config.trials == 1000
    with mock.patch.object(chain_sim, "_round", first_round), pytest.raises(FirstRound):
        simulate_chain(config)


@settings(max_examples=60, deadline=None)
@edge_examples
@given(value=st.floats())
def test_any_float_in_any_chain_key_gives_a_rate_or_exit_2_or_3(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("chain") / "chain.ini"
    for key in BASE["chain"]:
        path.write_text(config_text("chain", key, value))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["rate", "--config", str(path)])
        assert code in (0, 2, 3), (key, value, stderr.getvalue())
        if code == 0:
            rate = float(stdout.getvalue().split("rate_hz")[-1].split()[0])
            assert math.isfinite(rate), (key, value)


@pytest.mark.parametrize("section", ["link", "sim", "experiment"])
@settings(max_examples=60, deadline=None)
@edge_examples
@given(value=st.floats())
def test_any_float_in_any_key_is_rejected_or_gives_finite_values(section, value):
    for key in BASE[section]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # the multi-excitation warning
                config = parse_config_text(config_text(section, key, value))
            with mock.patch.object(chain_sim, "_round", first_round), pytest.raises(FirstRound):
                simulate_chain(config)
        except (ConfigError, ParameterError):
            continue
        # an accepted config's closed forms raise only the documented error of a
        # link whose heralded window has no law: its herald weights are all zero
        herald = expected_herald_probability(config.link)
        storage_time = config.experiment.storage_times[0]
        try:
            pmn = expected_pmn(config.link, storage_time)
        except ParameterError:
            assert _link_law(config.link, storage_time).herald_weights.sum() == 0.0, (key, value)
            continue
        values = (config.trials, config.seed, config.max_sim_time, herald, *pmn.as_tuple())
        assert all(math.isfinite(v) for v in values), (key, value, values)
