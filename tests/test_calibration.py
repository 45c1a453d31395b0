import pytest

from dlczsim.calibration import CALIBRATED, CALIBRATION_TARGETS, calibrated_link_params
from dlczsim.link_physics import expected_pmn, expected_window_detection, fringe_visibility
from dlczsim.metrics import concurrence


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


def test_solver_reproduces_frozen_values():
    solved = solve_calibration()
    for key, frozen in CALIBRATED.items():
        assert solved[key] == pytest.approx(frozen, rel=1e-9), key


def test_calibrated_model_hits_its_targets():
    params = calibrated_link_params()
    assert expected_window_detection(params) == pytest.approx(
        CALIBRATION_TARGETS["single_mode_detection"], rel=1e-9)
    v1 = fringe_visibility(params, 1e-6)[1]
    assert v1 == pytest.approx(CALIBRATION_TARGETS["visibility_1us"], abs=1e-9)
    c1 = concurrence(expected_pmn(params, 1e-6), v1)
    assert c1 == pytest.approx(CALIBRATION_TARGETS["concurrence_1us"], abs=1e-9)
    # the long-storage visibility is matched approximately, inside +/- 0.024
    v150 = fringe_visibility(params, 150e-6)[1]
    assert abs(v150 - CALIBRATION_TARGETS["visibility_150us"]) < 0.024


def test_overrides_replace_fields():
    params = calibrated_link_params(crosstalk_eps=0.0, mode_count=3)
    assert params.crosstalk_eps == 0.0
    assert params.mode_count == 3
    assert params.chi == CALIBRATION_TARGETS["chi"]
