"""Every declared input moves a result.

A checked field of a record (declared with `errors.checked`) is a settable
config key, so each one must reach some number the program reports. Each test
moves one field of a shipped config to another in-range value and asserts that
a closed form changes.
"""

import dataclasses
from pathlib import Path

import pytest

from dlczsim.config_io import ChainParams, LinkParams, parse_config
from dlczsim.errors import field_spec
from dlczsim.link_physics import (
    expected_herald_probability,
    expected_pmn,
    expected_window_detection,
    fringe_visibility,
)
from dlczsim.rate import swap_chain

from conftest import CALIBRATED_LINK

PROJECTION = parse_config(
    Path(__file__).resolve().parents[1] / "configs" / "projection.ini").chain


def moved(params, name):
    """``params`` with field ``name`` halved, or set to 0.25 where it is 0."""
    value = getattr(params, name)
    return dataclasses.replace(params, **{name: type(value)(value / 2) if value else 0.25})


def link_results(params):
    return (expected_herald_probability(params), expected_window_detection(params),
            expected_pmn(params, 0.0).as_tuple(), expected_pmn(params, 150e-6).as_tuple(),
            fringe_visibility(params, 1e-6))


@pytest.mark.parametrize("name", [name for name, *_ in field_spec(LinkParams)])
def test_every_link_field_moves_a_closed_form(name):
    assert link_results(moved(CALIBRATED_LINK, name)) != link_results(CALIBRATED_LINK)


@pytest.mark.parametrize("name", [name for name, *_ in field_spec(ChainParams)])
def test_every_chain_field_moves_the_rate(name):
    assert swap_chain(moved(PROJECTION, name)).rate_hz != swap_chain(PROJECTION).rate_hz
