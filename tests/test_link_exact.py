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
1e-12 absolute; not relative, since some closed-form cells are differences of
O(1) numbers, as p11 = 1 - p00 - p01 - p10 is.
"""

import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest

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
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    close(herald.sum(), expected_herald_probability(params))
    close(herald, law.herald_prob * np.outer(law.window_probs, [0.5, 0.5]))
    close(clicks, mode_count * expected_window_detection(params))
    close(cells.sum(axis=0) / herald.sum(), expected_pmn(params, storage_time).as_tuple())
