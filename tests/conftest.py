import dataclasses
from pathlib import Path

import pytest

from dlczsim.config_io import parse_config

# The frozen benchmark link (1% excitation, 12 modes) is the shipped config that
# `dlczsim link-experiment` runs; tests/test_calibration.py re-solves its knobs.
CALIBRATED_LINK = parse_config(
    Path(__file__).resolve().parents[1] / "configs" / "link_calibrated.ini").link


@pytest.fixture(scope="session")
def calibrated():
    """The frozen benchmark-link calibration (1% excitation, 12 modes)."""
    return CALIBRATED_LINK


@pytest.fixture(scope="session")
def clean_link():
    """Calibrated link with crosstalk and dark counts switched off."""
    return dataclasses.replace(CALIBRATED_LINK, crosstalk_eps=0.0, dark_count_prob=0.0)
