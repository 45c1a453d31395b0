"""Calibrated default link parameters and the solver that produced them.

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
`test_calibration` re-runs the solver and checks the frozen numbers.
"""

from __future__ import annotations

from .errors import ParameterError
from .link_physics import (
    LinkParams,
    expected_pmn,
    expected_window_detection,
    fringe_visibility,
)
from .metrics import concurrence

__all__ = [
    "CALIBRATION_TARGETS",
    "CALIBRATED",
    "calibrated_link_params",
    "solve_calibration",
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

# frozen output of solve_calibration()
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


def _bisect(fn, lo: float, hi: float, iterations: int = 80) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ParameterError(f"no sign change on [{lo}, {hi}]: f={flo:.3g}..{fhi:.3g}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_calibration() -> dict[str, float]:
    """Re-derive the calibrated knobs from the closed-form model.

    The three equations decouple: eta_td only enters the Stokes stage;
    the visibility ratio is independent of detection_eff (both signal and
    crosstalk background scale with it); detection_eff then sets the
    concurrence through the Pmn balance.
    """
    eta_td = _bisect(
        lambda e: expected_window_detection(calibrated_link_params(eta_td=e))
        - CALIBRATION_TARGETS["single_mode_detection"],
        1e-6, 0.999)

    def vis_gap(eps):
        params = calibrated_link_params(eta_td=eta_td, crosstalk_eps=eps, detection_eff=0.5)
        return fringe_visibility(params, 1e-6)[1] - CALIBRATION_TARGETS["visibility_1us"]

    crosstalk_eps = _bisect(vis_gap, 1e-9, 1.0)

    def conc_gap(eta_d):
        params = calibrated_link_params(eta_td=eta_td, crosstalk_eps=crosstalk_eps,
                                        detection_eff=eta_d)
        vis = fringe_visibility(params, 1e-6)[1]
        return (concurrence(expected_pmn(params, 1e-6), vis)
                - CALIBRATION_TARGETS["concurrence_1us"])

    detection_eff = _bisect(conc_gap, 0.01, 0.99)

    return {
        "eta_td": eta_td,
        "crosstalk_eps": crosstalk_eps,
        "detection_eff": detection_eff,
        "visibility_cap": 1.0,
    }
