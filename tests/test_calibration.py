"""The solver behind the frozen benchmark link in configs/link_calibrated.ini.

The link runs at 1% excitation with 12 temporal modes. Three knobs are not
directly measurable and are instead solved from the closed-form model so that
it reproduces the reference experiment's headline numbers:

  eta_td         from the single-mode Stokes detection probability 2.5e-3,
  crosstalk_eps  from the interference visibility 0.795 at 1 us storage,
  detection_eff  from the concurrence 0.040 at 1 us storage.

visibility_cap stays at 1.0: hitting both visibility targets (0.795 at 1 us
and 0.700 at 150 us) exactly would need a cap of ~1.008, i.e. the measured
visibility decay is slightly slower than pure background dilution allows, so
the model pins the 1 us value exactly and lands at 0.721 at 150 us, inside
the 0.700 +/- 0.024 reference uncertainty. The solved values are frozen in the
config; these tests re-run the solver and check them.
"""

import dataclasses

import pytest

from dlczsim.link_physics import expected_pmn, expected_window_detection, fringe_visibility
from dlczsim.metrics import concurrence

from conftest import CALIBRATED_LINK

# reference observables the calibration reproduces
CALIBRATION_TARGETS = {
    "chi": 0.01,
    "mode_count": 12,
    "single_mode_detection": 2.5e-3,
    "visibility_1us": 0.795,
    "visibility_150us": 0.700,     # matched approximately, see the module docstring
    "concurrence_1us": 0.040,
    "retrieval_eff_zero": 0.707,
    "memory_lifetime": 0.3e-3,
}


def _bisect(fn, lo: float, hi: float, iterations: int = 80) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert (flo > 0) != (fhi > 0), f"no sign change on [{lo}, {hi}]: f={flo:.3g}..{fhi:.3g}"
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
        lambda e: expected_window_detection(dataclasses.replace(CALIBRATED_LINK, eta_td=e))
        - CALIBRATION_TARGETS["single_mode_detection"],
        1e-6, 0.999)

    def vis_gap(eps):
        params = dataclasses.replace(CALIBRATED_LINK, eta_td=eta_td, crosstalk_eps=eps,
                                     detection_eff=0.5)
        return fringe_visibility(params, 1e-6)[1] - CALIBRATION_TARGETS["visibility_1us"]

    crosstalk_eps = _bisect(vis_gap, 1e-9, 1.0)

    def conc_gap(eta_d):
        params = dataclasses.replace(CALIBRATED_LINK, eta_td=eta_td,
                                     crosstalk_eps=crosstalk_eps, detection_eff=eta_d)
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


def test_solver_reproduces_frozen_values():
    solved = solve_calibration()
    for key, value in solved.items():
        assert getattr(CALIBRATED_LINK, key) == pytest.approx(value, rel=1e-9), key


def test_calibrated_model_hits_its_targets():
    params = CALIBRATED_LINK
    assert expected_window_detection(params) == pytest.approx(
        CALIBRATION_TARGETS["single_mode_detection"], rel=1e-9)
    v1 = fringe_visibility(params, 1e-6)[1]
    assert v1 == pytest.approx(CALIBRATION_TARGETS["visibility_1us"], abs=1e-9)
    c1 = concurrence(expected_pmn(params, 1e-6), v1)
    assert c1 == pytest.approx(CALIBRATION_TARGETS["concurrence_1us"], abs=1e-9)
    # the long-storage visibility is matched approximately, inside +/- 0.024
    v150 = fringe_visibility(params, 150e-6)[1]
    assert abs(v150 - CALIBRATION_TARGETS["visibility_150us"]) < 0.024


def test_config_holds_the_measured_inputs():
    # the knobs the reference experiment measures directly, which the solver
    # takes as given
    for key in ("chi", "mode_count", "retrieval_eff_zero", "memory_lifetime"):
        assert getattr(CALIBRATED_LINK, key) == CALIBRATION_TARGETS[key], key
