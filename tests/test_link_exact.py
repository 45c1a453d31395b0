"""Exact enumeration of one write train of the link sampler, for N <= 3 modes.

Every slot (node, mode) holds k excitations of which j Stokes photons survive,
with the joint law `_link_law(params, t).slot_law`. Slots are independent, so
a train of N modes has at most 6^(2N) configurations. Around each one the
enumerator sums, outcome by outcome, every later draw of `run_link_trials`:
- the beam splitter sends each surviving photon of a window to either Stokes
  detector with probability 1/2, and each detector adds a dark click;
- the train heralds at its earliest clicking window, and a fair coin picks
  the recorded detector when both click;
- at the herald window each node's k excitations are read out, each one
  detected with probability R0 exp(-t/tau0) eta_D; every other excited slot
  of the train leaks one detected photon with probability eps eta_D, into
  either field with probability 1/2; each field adds a dark click.
That is the exact law of one train's tally. It must equal the closed forms to
1e-12 relative: each closed-form cell is a sum of products of non-negative
factors, so none is a rounding residue of O(1) numbers.

For any N, a `fractions.Fraction` copy of the closed forms, evaluated on the
float fields of `_link_law`, must match them to 1e-12 relative over the whole
accepted input domain.
"""

import contextlib
import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim.config_io import LinkParams
from dlczsim.errors import ParameterError
from dlczsim.link_physics import (
    _link_law,
    expected_herald_probability,
    expected_pmn,
    expected_window_detection,
)

from conftest import CALIBRATED_LINK

# the six (k, j) a slot can hold: k excitations, j <= k of their photons survive
STATES = [(k, j) for k in range(3) for j in range(k + 1)]
K = np.array([k for k, _ in STATES])
J = np.array([j for _, j in STATES])


def binom_pmf(x: int, n, p: float):
    """P(Binomial(n, p) = x) for each n (an int or array of ints <= 4); 0 where x > n."""
    table = np.array([math.comb(m, x) * p ** x * (1.0 - p) ** (m - x) if x <= m else 0.0
                      for m in range(5)])
    return table[n]


def draw(outcomes, rows: int) -> np.ndarray:
    """(2, 2, rows) law of whether one draw adds clicks to counts a and b; the
    draw adds (da, db) clicks with probability p for each (p, da, db) of
    ``outcomes``, each entry a scalar or one value per configuration."""
    law = np.zeros((2, 2, rows))
    for p, da, db in outcomes:
        da, db = np.asarray(da) > 0, np.asarray(db) > 0
        for x, y in itertools.product((0, 1), repeat=2):
            law[x, y] += p * ((da == x) & (db == y))
    return law


def add(law: np.ndarray, increment: np.ndarray) -> np.ndarray:
    """Joint law of (a > 0, b > 0) after an independent draw of law ``increment``."""
    out = np.zeros_like(law)
    for a, b, x, y in itertools.product((0, 1), repeat=4):
        out[a | x, b | y] += law[a, b] * increment[x, y]
    return out


def enumerate_train(params, storage_time: float):
    """Exact law of one train's tally: P(herald at window h by detector d) as
    (N, 2), P(herald at h and readout cell c) as (N, 4) with cells (m > 0,
    n > 0) in the order p00, p01, p10, p11, and the expected Stokes clicks
    over all windows."""
    slot_law = _link_law(params, storage_time).slot_law
    n_modes, dark = params.mode_count, params.dark_count_prob
    p_ret = (params.retrieval_eff_zero * math.exp(-storage_time / params.memory_lifetime)
             * params.detection_eff)
    leak = params.crosstalk_eps * params.detection_eff
    # one row per configuration; slot 2h is node L of mode h, 2h + 1 node R
    config = np.array(list(itertools.product(range(len(STATES)), repeat=2 * n_modes)))
    k, j = K[config], J[config]
    rows = config.shape[0]
    weight = np.prod(slot_law[k, j], axis=1)
    nothing = np.zeros((2, 2, rows))
    nothing[0, 0] = 1.0
    darks = [draw([(1.0 - dark, 0, 0), (dark, 1, 0)], rows),
             draw([(1.0 - dark, 0, 0), (dark, 0, 1)], rows)]

    herald, cells, clicks = np.zeros((n_modes, 2)), np.zeros((n_modes, 4)), 0.0
    no_click_yet = weight          # P(configuration, and no earlier window clicked)
    for h in range(n_modes):
        # Stokes clicks (c1, c2) of window h: the 50/50 split, then dark clicks
        survivors = j[:, 2 * h] + j[:, 2 * h + 1]
        window = add(nothing, draw([(binom_pmf(x, survivors, 0.5), x, survivors - x)
                                    for x in range(5)], rows))
        for dark_clicks in darks:
            window = add(window, dark_clicks)
        clicks += float(weight @ (window[1, 0] + window[0, 1] + 2.0 * window[1, 1]))
        # the tie coin gives each detector half of the both-click mass
        by_detector = np.stack([window[1, 0] + 0.5 * window[1, 1],
                                window[0, 1] + 0.5 * window[1, 1]])
        herald[h] = by_detector @ no_click_yet

        # readout (m at aS_R, n at aS_L) if the train heralds at h
        excited = np.count_nonzero(np.delete(k, [2 * h, 2 * h + 1], axis=1), axis=1)
        readout = add(nothing, draw([(binom_pmf(x, k[:, 2 * h + 1], p_ret), x, 0)
                                     for x in range(3)], rows))
        readout = add(readout, draw([(binom_pmf(x, k[:, 2 * h], p_ret), 0, x)
                                     for x in range(3)], rows))
        readout = add(readout, draw([(binom_pmf(leaked, excited, leak) * binom_pmf(r, leaked, 0.5),
                                      r, leaked - r)
                                     for leaked in range(5) for r in range(leaked + 1)], rows))
        for dark_clicks in darks:
            readout = add(readout, dark_clicks)
        cells[h] = readout.reshape(4, rows) @ (no_click_yet * by_detector.sum(axis=0))
        no_click_yet = no_click_yet * window[0, 0]
    return herald, cells, clicks


# (chi, eta_td, crosstalk_eps, dark_count_prob, storage time): the calibrated
# link, then multi-excitation, lossless, dark-heavy and crosstalk-free corners
GRID = [
    (CALIBRATED_LINK.chi, CALIBRATED_LINK.eta_td, CALIBRATED_LINK.crosstalk_eps, 0.0, 1e-6),
    (0.3, 0.5, 0.7, 0.1, 150e-6),
    (0.45, 1.0, 1.0, 0.0, 0.0),
    (0.2, 0.8, 0.3, 0.3, 1e-3),
    (0.1, 0.2, 0.0, 0.02, 5e-5),
]


@pytest.mark.parametrize("mode_count", [1, 2, 3])
@pytest.mark.parametrize("chi, eta_td, eps, dark, storage_time", GRID)
def test_enumerated_train_equals_the_closed_forms(mode_count, chi, eta_td, eps, dark,
                                                   storage_time):
    # the multi-excitation corners warn that the law stops at 2 excitations;
    # the enumeration stops there too
    with (pytest.warns(UserWarning, match="chi") if chi > 0.1 else contextlib.nullcontext()):
        params = dataclasses.replace(CALIBRATED_LINK, chi=chi, eta_td=eta_td, crosstalk_eps=eps,
                                     dark_count_prob=dark, mode_count=mode_count)
    law = _link_law(params, storage_time)
    herald, cells, clicks = enumerate_train(params, storage_time)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    close(herald.sum(), expected_herald_probability(params))
    close(herald, law.herald_prob * np.outer(law.window_probs, [0.5, 0.5]))
    close(clicks, mode_count * expected_window_detection(params))
    close(cells.sum(axis=0) / herald.sum(), expected_pmn(params, storage_time).as_tuple())


def exact(cells) -> list:
    """A float array's cells as exact fractions."""
    return [Fraction(float(c)) for c in np.ravel(cells)]


def exact_closed_forms(params, storage_time: float):
    """(p00, p01, p10, p11) and the window detection of the link's law, in
    exact arithmetic on the float fields of `_link_law`: no click at aS_R, none
    at aS_L and neither, then the cells by inclusion-exclusion. Each float law
    is renormalised exactly, since it sums to 1 only up to rounding and the
    oracle must not measure that. Pmn is None where the herald weights are zero."""
    law = _link_law(params, storage_time)
    d, p, leak = (Fraction(x) for x in (params.dark_count_prob, law.p_ret, law.leak))
    # a node sends a given detector no photon with probability sum of P(k, j) 2^-j
    slot_law = exact(law.slot_law)
    none = sum(s / 2 ** (c % 3) for c, s in enumerate(slot_law)) / sum(slot_law)
    detection = 2 * (1 - (1 - d) * none ** 2)
    weights = exact(law.herald_weights)
    if sum(weights) == 0:
        return None, detection
    y = [Fraction(law.q_pre) * leak / 2, Fraction(law.q_post) * leak / 2]
    n_modes, window_probs = params.mode_count, exact(law.window_probs)
    groups = [(pi, 2 * i, 2 * (n_modes - 1 - i)) for i, pi in enumerate(window_probs)]
    not_r = sum(pi * (1 - y[0]) ** a * (1 - y[1]) ** b for pi, a, b in groups)
    neither = sum(pi * (1 - 2 * y[0]) ** a * (1 - 2 * y[1]) ** b for pi, a, b in groups)
    s_r = s_l = s_00 = 0
    for cell, w in enumerate(weights):
        k_l, k_r = divmod(cell, 3)
        s_r += w * (1 - p) ** k_r
        s_l += w * (1 - p) ** k_l
        s_00 += w * (1 - p) ** (k_l + k_r)
    scale = (1 - d) / (sum(weights) * sum(window_probs))
    m0, n0, p00 = s_r * not_r * scale, s_l * not_r * scale, s_00 * neither * scale * (1 - d)
    return (p00, m0 - p00, n0 - p00, 1 - m0 - n0 + p00), detection


def assert_exact(params, storage_time: float):
    pmn_exact, detection_exact = exact_closed_forms(params, storage_time)
    got, want = [expected_window_detection(params)], [detection_exact]
    if pmn_exact is None:   # manifold()'s documented error: the herald weights are zero
        with pytest.raises(ParameterError, match="herald probability is zero"):
            expected_pmn(params, storage_time)
    else:
        got += expected_pmn(params, storage_time).as_tuple()
        want += pmn_exact
    for g, w in zip(got, want):
        if w >= 2.2e-308:
            assert abs(Fraction(g) - w) <= Fraction(1e-12) * w, (g, float(w))


@pytest.mark.parametrize("params, storage_time", [
    # p00 near 1: a product of rounded factors near 1 can exceed 1
    (LinkParams(chi=0.0126681696451197, mode_count=1, retrieval_eff_zero=0.6132422364699612,
                memory_lifetime=1.0867477848819198e-05, detection_eff=0.22984450217864424,
                eta_td=0.0008567856635793948), 0.001261101340998875),
    # p11 ~ 2.6e-19: the residue 1 - p00 - p01 - p10 of O(1) cells can be negative
    (LinkParams(chi=2.6450875895182376e-08, mode_count=2,
                retrieval_eff_zero=0.25012551015050855,
                memory_lifetime=2.1222304107742607e-05, detection_eff=0.14207347927792519,
                eta_td=0.000282517684320959, crosstalk_eps=0.07419392828254476),
     0.00037435968272763967),
])
def test_closed_forms_of_regression_links_are_exact(params, storage_time):
    assert_exact(params, storage_time)


@settings(max_examples=400, deadline=None)
@given(chi=st.just(0.0) | st.floats(1e-9, 0.3), mode_count=st.sampled_from([1, 2, 3, 12]),
       eta_td=st.just(1.0) | st.floats(1e-4, 1.0), r0=st.floats(0.0, 1.0),
       eta_d=st.floats(0.0, 1.0, exclude_min=True), lifetime=st.floats(1e-6, 1.0),
       storage_time=st.just(0.0) | st.floats(1e-7, 1e-2),
       dark=st.sampled_from([0.0, 1.0]) | st.floats(1e-9, 1e-3),
       eps=st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0))
def test_closed_forms_are_exact_to_rounding(chi, mode_count, eta_td, r0, eta_d, lifetime,
                                            storage_time, dark, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # the chi > 0.1 warning
        params = LinkParams(chi=chi, mode_count=mode_count, retrieval_eff_zero=r0,
                            memory_lifetime=lifetime, detection_eff=eta_d, eta_td=eta_td,
                            dark_count_prob=dark, crosstalk_eps=eps)
    assert_exact(params, storage_time)
