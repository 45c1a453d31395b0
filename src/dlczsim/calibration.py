"""Calibrated default link parameters.

The benchmark link operates at 1% excitation with 12 temporal modes. Three
knobs are not directly measurable and are instead solved from the closed-form
model so that it reproduces the reference experiment's headline numbers:

  eta_td         from the single-mode Stokes detection probability 2.5e-3,
  crosstalk_eps  from the interference visibility 0.795 at 1 us storage,
  detection_eff  from the concurrence 0.040 at 1 us storage.

visibility_cap stays at 1.0: hitting both visibility targets (0.795 at 1 us
and 0.700 at 150 us) exactly would need a cap of ~1.008, i.e. the measured
visibility decay is slightly slower than pure background dilution allows, so
the model pins the 1 us value exactly and lands at 0.721 at 150 us, inside
the 0.700 +/- 0.024 reference uncertainty. The solved values are frozen below;
the solver lives in `tests/test_calibration.py`, which re-runs it and checks
the frozen numbers.
"""

from __future__ import annotations

from .link_physics import LinkParams

__all__ = [
    "CALIBRATION_TARGETS",
    "CALIBRATED",
    "calibrated_link_params",
]

# reference observables the calibration reproduces
CALIBRATION_TARGETS = {
    "chi": 0.01,
    "mode_count": 12,
    "single_mode_detection": 2.5e-3,
    "visibility_1us": 0.795,
    "visibility_150us": 0.700,     # matched approximately, see module docstring
    "concurrence_1us": 0.040,
    "retrieval_eff_zero": 0.707,
    "memory_lifetime": 0.3e-3,
}

# frozen output of the solver in tests/test_calibration.py
CALIBRATED = {
    "eta_td": 0.12390072417495246,
    "crosstalk_eps": 0.6664370850259549,
    "detection_eff": 0.18480877690507136,
    "visibility_cap": 1.0,
}


def calibrated_link_params(**overrides) -> LinkParams:
    """LinkParams preloaded with the frozen calibration; overrides win."""
    fields = dict(
        chi=CALIBRATION_TARGETS["chi"],
        mode_count=CALIBRATION_TARGETS["mode_count"],
        retrieval_eff_zero=CALIBRATION_TARGETS["retrieval_eff_zero"],
        memory_lifetime=CALIBRATION_TARGETS["memory_lifetime"],
        eta_td=CALIBRATED["eta_td"],
        crosstalk_eps=CALIBRATED["crosstalk_eps"],
        detection_eff=CALIBRATED["detection_eff"],
        visibility_cap=CALIBRATED["visibility_cap"],
    )
    fields.update(overrides)
    return LinkParams(**fields)
