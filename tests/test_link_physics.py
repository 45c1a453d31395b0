import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim.config_io import LinkParams
from dlczsim.errors import ParameterError
from dlczsim.fitters import Samples, fit_exponential
from dlczsim.link_physics import (
    PmnTable,
    _binomial,
    _categorical,
    _first_herald,
    _link_law,
    _readout_counts,
    _sample_lit,
    _stokes_clicks,
    expected_herald_probability,
    expected_pmn,
    expected_window_detection,
    fringe_expectation,
    fringe_visibility,
    run_link_trials,
)
from dlczsim.metrics import concurrence
from dlczsim.streams import substream


def binom_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def _chi2(observed, probs, min_expected=5.0):
    """Chi-squared of counts against cell probabilities and its degrees of
    freedom, pooling the sparsest cells until each expects ``min_expected``."""
    cells = sorted(zip(np.sum(observed) * np.asarray(probs) / np.sum(probs), observed))
    while len(cells) > 1 and cells[0][0] < min_expected:
        (e0, o0), (e1, o1) = cells[:2]
        cells = sorted([(e0 + e1, o0 + o1)] + cells[2:])
    return sum((o - e) ** 2 / e for e, o in cells), len(cells) - 1


def occupation(params) -> np.ndarray:
    """P(k) for k = 0..2, the slot law's row sums."""
    return _link_law(params, 0.0).slot_law.sum(axis=1)


class TestLinkParams:
    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ParameterError):
            LinkParams(chi=1.5)
        with pytest.raises(ParameterError):
            LinkParams(chi=0.01, detection_eff=-0.1)
        # chi = 1 has no normalizable thermal law
        with pytest.raises(ParameterError, match="chi"):
            LinkParams(chi=1.0)
        for name in ("chi", "memory_lifetime"):
            with pytest.raises(ParameterError, match=name):
                LinkParams(**{"chi": 0.01, name: math.nan})

    def test_warns_in_multi_excitation_regime(self):
        # the truncation is per mode: it drops chi^3, whatever the mode count
        with pytest.warns(UserWarning, match=r"chi\^3 = 0.008 of 3 or more excitations"):
            LinkParams(chi=0.2, mode_count=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LinkParams(chi=0.1, mode_count=1)
            LinkParams(chi=0.01, mode_count=100)

    def test_occupation_law_normalized_with_thermal_ratio(self):
        with pytest.warns(UserWarning, match="chi"):
            params = LinkParams(chi=0.3, mode_count=1)
        probs = occupation(params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert probs[2] / probs[1] == pytest.approx(0.3, abs=1e-15)
        assert probs[1] / probs[0] == pytest.approx(0.3, abs=1e-15)


class TestLinkLaw:
    def test_fields_state_their_definitions(self, calibrated):
        # oracle: each field worked out by hand from the calibrated link at
        # 150 us; a slot is unlit with P(k) (1 - eta_td)^k, and a window stays
        # dark with both nodes unlit and no dark count on either detector
        params = dataclasses.replace(calibrated, dark_count_prob=1e-3)
        law = _link_law(params, 150e-6)
        probs, eta, n = occupation(params), params.eta_td, params.mode_count
        unlit = np.array([p * (1.0 - eta) ** k for k, p in enumerate(probs)])
        no_click = unlit.sum() ** 2 * (1.0 - 1e-3) ** 2
        assert law.slot_law.sum() == pytest.approx(1.0, abs=1e-15)
        assert law.slot_law[:, 0] == pytest.approx(unlit, rel=1e-12)
        assert law.q_pre == pytest.approx(1.0 - unlit[0] / unlit.sum(), rel=1e-12)
        assert law.q_post == pytest.approx(1.0 - probs[0], rel=1e-12)
        assert law.p_ret == pytest.approx(params.retrieval_eff_zero * params.detection_eff
                                          * math.exp(-150e-6 / params.memory_lifetime),
                                          rel=1e-12)
        assert law.leak == pytest.approx(params.crosstalk_eps * params.detection_eff, rel=1e-12)
        assert law.herald_prob == pytest.approx(1.0 - no_click ** n, rel=1e-12)
        assert law.window_probs == pytest.approx(
            no_click ** np.arange(n) * (1.0 - no_click) / (1.0 - no_click ** n), rel=1e-9)
        assert law.manifold().sum() == pytest.approx(1.0, abs=1e-15)

    @given(chi=st.just(0.0) | st.floats(1e-12, 0.1), eta_td=st.just(0.0) | st.floats(1e-6, 1.0),
           dark=st.sampled_from([0.0, 1.0]) | st.floats(1e-12, 1.0),
           n=st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_herald_probability_matches_exact_fractions(self, chi, eta_td, dark, n):
        # oracle: the same law on the same float inputs in exact rational
        # arithmetic; a train is dark when each of its N windows has both
        # slots unlit and no dark count on either detector
        params = LinkParams(chi=chi, mode_count=n, eta_td=eta_td, dark_count_prob=dark)
        c, eta, d = Fraction(chi), Fraction(eta_td), Fraction(dark)
        unlit = sum((1 - c) * c ** k / (1 - c ** 3) * (1 - eta) ** k for k in range(3))
        exact = float(1 - (unlit * (1 - d)) ** (2 * n))
        assert math.isclose(expected_herald_probability(params), exact, rel_tol=1e-12)

    def test_link_that_can_never_herald_builds_and_reads_zero(self):
        # chi = 0 and no dark counts: the record builds (so the sampler can
        # tally zero heralds) and its herald probability is 0; only reading
        # the herald manifold, as expected_pmn and the fringe do, raises
        params = LinkParams(chi=0.0)
        law = _link_law(params, 0.0)
        assert law.herald_prob == 0.0 == expected_herald_probability(params)
        for read in (law.manifold, lambda: expected_pmn(params, 0.0),
                     lambda: fringe_visibility(params, 0.0)):
            with pytest.raises(ParameterError, match="herald probability is zero"):
                read()

    @pytest.mark.parametrize("eta_td", [1e-308, 2.5e-322])
    def test_link_with_a_rare_click_has_a_herald_law(self, eta_td):
        # no dark counts and a click as rare as ~1e-310 or ~1e-324 a window: the
        # link heralds, so its herald weights and readout law exist
        params = LinkParams(chi=0.01, eta_td=eta_td)
        law = _link_law(params, 0.0)
        assert law.herald_prob > 0.0 and law.herald_weights.sum() > 0.0
        values = (*expected_pmn(params, 0.0).as_tuple(), *fringe_visibility(params, 0.0))
        assert all(math.isfinite(v) for v in values), values

    def test_negative_storage_time_is_rejected_by_every_reader(self, calibrated):
        for read in (lambda: run_link_trials(calibrated, -1e-6, 10, substream(0, 0)),
                     lambda: expected_pmn(calibrated, -1e-6),
                     lambda: fringe_expectation(0.0, -1e-6, calibrated)):
            with pytest.raises(ParameterError, match="storage_time must be >= 0"):
                read()


L, R = 0, 1   # node index of a slot


def _occupation(params, excited, trains=1):
    """Sparse lit (slot, k) with the given {(node, mode): k} in every train alike.

    The tests that use it run at eta_td = 1, where every photon survives: each
    excited slot is lit, k is also its photon count, and no unlit slot is
    excited.
    """
    n = params.mode_count
    cells = sorted((2 * mode + node, count) for (node, mode), count in excited.items())
    offsets = np.array([c[0] for c in cells], dtype=np.int64)
    slot = (np.arange(trains)[:, None] * 2 * n + offsets[None, :]).ravel()
    k = np.tile(np.array([c[1] for c in cells], dtype=np.int64), trains)
    return slot, k


def _herald(params, occupation, trains, seed):
    """Stokes measurement and herald selection on one stream, as run_link_trials
    does. Returns (train, mode, detector) per heralded train."""
    rng = substream(seed, 0)
    window, _, click1, click2 = _stokes_clicks(*occupation, trains, params, rng)
    row, detector = _first_herald(window, click1, click2, params.mode_count, rng)
    return window[row] // params.mode_count, window[row] % params.mode_count, detector


def _readout(slot, k, train, mode, storage_time, params, rng):
    """_readout_counts for the given herald windows, with the herald window's
    slot position and the train's lit-slot count found by search."""
    n_modes = params.mode_count
    herald = train * n_modes + mode
    lo, at, hi = np.searchsorted(slot, [2 * n_modes * train, 2 * herald,
                                        2 * n_modes * (train + 1)])
    return _readout_counts(slot, k, herald, at, hi - lo, _link_law(params, storage_time), rng)


class TestSampleLitSlots:
    def test_zero_chi_lights_no_slot(self):
        params = LinkParams(chi=0.0)
        slot, k, photons = _sample_lit(_link_law(params, 0.0), 1000, substream(1, 0))
        assert slot.size == 0 and k.size == 0 and photons.size == 0

    def test_lit_fraction_matches_q_lit(self, calibrated):
        # oracle: a slot is lit unless all of its k photons are lost,
        # q_lit = 1 - sum_k P(k) (1 - eta_td)^k, over 10^6 calibrated trains;
        # lit slots are distinct, ascending and inside the slot range
        probs = occupation(calibrated)
        q_lit = 1.0 - sum(p * (1.0 - calibrated.eta_td) ** k for k, p in enumerate(probs))
        slot, _, _ = _sample_lit(_link_law(calibrated, 0.0), 1_000_000, substream(42, 0))
        n_slots = 1_000_000 * 2 * calibrated.mode_count
        assert abs(slot.size / n_slots - q_lit) < 3 * binom_sigma(q_lit, n_slots)
        assert (np.diff(slot) > 0).all()
        assert 0 <= slot[0] and slot[-1] < n_slots

    def test_k_and_photons_follow_their_law_given_lit(self):
        # oracle: P(k, j | j >= 1) is proportional to P(k) C(k, j) eta^j
        # (1 - eta)^(k - j); its three cells (1, 1), (2, 1), (2, 2) must pass
        # a chi-squared test at p = 1e-4, and no other cell may appear
        with pytest.warns(UserWarning, match="chi"):
            params = LinkParams(chi=0.5, mode_count=1, eta_td=0.4)
        _, p1, p2 = occupation(params)
        eta = params.eta_td
        cells = {(1, 1): p1 * eta, (2, 1): p2 * 2 * eta * (1 - eta), (2, 2): p2 * eta ** 2}
        slot, k, photons = _sample_lit(_link_law(params, 0.0), 200_000, substream(7, 0))
        observed = [int(((k == a) & (photons == b)).sum()) for a, b in cells]
        assert sum(observed) == slot.size > 0
        chi2, dof = _chi2(observed, list(cells.values()))
        assert scipy.stats.chi2.sf(chi2, dof) > 1e-4, (observed, chi2)

    def test_deterministic_for_fixed_seed(self):
        params = LinkParams(chi=0.05, eta_td=0.5)
        a = _sample_lit(_link_law(params, 0.0), 100, substream(99, 0))
        b = _sample_lit(_link_law(params, 0.0), 100, substream(99, 0))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestHeraldBsm:
    def test_no_excitation_no_dark_gives_no_herald(self):
        params = LinkParams(chi=0.01)
        train, _, _ = _herald(params, _occupation(params, {}, trains=100), 100, 3)
        assert train.size == 0

    def test_single_photon_heralds_its_window_with_fair_split(self):
        # one photon at a 50/50 splitter: D_S1 and D_S2 at 1/2 each
        params = LinkParams(chi=0.01, eta_td=1.0)
        trials = 4000
        occupation = _occupation(params, {(L, 3): 1}, trains=trials)
        train, mode, detector = _herald(params, occupation, trials, 0)
        assert np.array_equal(train, np.arange(trials))
        assert (mode == 3).all()
        assert abs((detector == 0).mean() - 0.5) < 3 * binom_sigma(0.5, trials)

    def test_sign_convention_follows_detector(self):
        # code 0 is D_S1 (heralds +), code 1 is D_S2 (heralds -); a lone click
        # fixes the code without a coin flip. Two trains of two modes, each
        # clicking in its mode 1 (windows 1 and 3).
        window = np.array([1, 3])
        click1 = np.array([True, False])
        click2 = np.array([False, True])
        row, detector = _first_herald(window, click1, click2, 2, substream(12, 0))
        assert (window[row] // 2).tolist() == [0, 1]
        assert (window[row] % 2).tolist() == [1, 1]
        assert detector.tolist() == [0, 1]

    def test_earliest_window_wins(self):
        params = LinkParams(chi=0.01, eta_td=1.0)
        occupation = _occupation(params, {(L, 2): 1, (R, 9): 1}, trains=50)
        train, mode, _ = _herald(params, occupation, 50, 0)
        assert train.size == 50
        assert (mode == 2).all()

    def test_two_photon_window_heralds_its_mode(self):
        params = LinkParams(chi=0.01, eta_td=1.0)
        occupation = _occupation(params, {(L, 5): 1, (R, 5): 1})
        train, mode, _ = _herald(params, occupation, 1, 4)
        assert train.tolist() == [0] and mode[0] == 5

    def test_herald_probability_matches_closed_form(self, calibrated):
        tally = run_link_trials(calibrated, 1e-6, 200_000, substream(11, 0))
        expected = expected_herald_probability(calibrated)
        sigma = binom_sigma(expected, tally.trains)
        assert abs(tally.heralded / tally.trains - expected) < 3 * sigma

    def test_herald_probability_linear_in_modes(self, calibrated):
        # N * single-mode probability approximates the N-mode herald rate
        # while N * p << 1
        import dataclasses
        single = dataclasses.replace(calibrated, mode_count=1)
        t1 = run_link_trials(single, 1e-6, 1_200_000, substream(13, 0))
        t12 = run_link_trials(calibrated, 1e-6, 600_000, substream(13, 1))
        p1, p12 = t1.heralded / t1.trains, t12.heralded / t12.trains
        sigma = math.sqrt((12 * binom_sigma(p1, t1.trains)) ** 2
                          + binom_sigma(p12, t12.trains) ** 2)
        # the exact N-mode value sits (N-1)p/2 ~ 1.4% below 12*p1
        assert abs(p12 - 12 * p1) < 3 * sigma + 12 * p1 * (11 * p1 / 2)


class TestReadout:
    def test_lossless_single_excitation_reads_out_exactly_once(self):
        params = LinkParams(chi=0.01, eta_td=1.0, detection_eff=1.0,
                            retrieval_eff_zero=1.0, crosstalk_eps=0.0)
        train, mode = np.array([0]), np.array([1])
        m, n = _readout(*_occupation(params, {(L, 1): 1}), train, mode, 0.0, params,
                        substream(8, 0))
        assert (m[0], n[0]) == (0, 1)  # the L spin wave reads out into aS_L
        m, n = _readout(*_occupation(params, {(R, 1): 1}), train, mode, 0.0, params,
                        substream(8, 0))
        assert (m[0], n[0]) == (1, 0)

    def test_crosstalk_leaks_from_every_other_excited_slot_of_the_train(self):
        # lossless with crosstalk_eps = 1: every excited slot of a heralded
        # train other than the addressed pair adds exactly one click
        params = LinkParams(chi=0.01, detection_eff=1.0, retrieval_eff_zero=1.0,
                            crosstalk_eps=1.0)
        occupation = _occupation(params, {(L, 1): 1, (R, 4): 2, (L, 7): 1}, trains=3)
        m, n = _readout(*occupation, np.array([1, 2]), np.array([1, 4]), 0.0, params,
                        substream(9, 0))
        assert (m + n).tolist() == [1 + 2, 2 + 2]

    def test_requires_a_herald(self):
        # only heralded trains are read out: with nothing to herald, no
        # readout is tallied and no Pmn table can be formed
        params = LinkParams(chi=0.0)
        tally = run_link_trials(params, 0.0, 1000, substream(0, 0))
        assert tally.heralded == 0
        assert not tally.pmn_counts.any()
        with pytest.raises(ParameterError):
            tally.pmn()

    def test_conversion_probability_after_one_lifetime(self):
        # oracle: R0 * exp(-1) = 0.707/e = 0.260091
        params = LinkParams(chi=0.01, eta_td=1.0, detection_eff=1.0,
                            retrieval_eff_zero=0.707, memory_lifetime=0.3e-3)
        trains = 20_000
        occupation = _occupation(params, {(L, 0): 1}, trains=trains)
        _, n = _readout(*occupation, np.arange(trains), np.zeros(trains, dtype=np.int64),
                        0.3e-3, params, substream(21, 0))
        expected = 0.707 * math.exp(-1.0)
        assert expected == pytest.approx(0.260091, abs=5e-6)
        assert abs(n.mean() - expected) < 3 * binom_sigma(expected, trains)

    def test_decay_curve_recovers_lifetime(self, clean_link):
        # sampled conversion efficiency vs storage time refits the (r0, tau0)
        # of the closed-form curve within 5%. That curve's r0 is 0.723, not
        # R0 = 0.707: in 2.7% of heralded trains the addressed pair holds two
        # excitations, which lifts the one-click probability above R(t).
        times = np.linspace(0.0, 0.9e-3, 10)
        effs, model = [], []
        for i, t in enumerate(times):
            tally = run_link_trials(clean_link, float(t), 300_000, substream(31, i))
            for pmn, out in ((tally.pmn(), effs), (expected_pmn(clean_link, float(t)), model)):
                out.append((pmn.p01 + pmn.p10) / clean_link.detection_eff)
        fit = fit_exponential(Samples.from_xy(times, np.array(effs)))
        want = fit_exponential(Samples.from_xy(times, np.array(model))).params
        assert fit.converged
        assert fit.params["r0"] == pytest.approx(want["r0"], rel=0.05)
        assert fit.params["tau0"] == pytest.approx(want["tau0"], rel=0.05)


def reference_readout(slot, k, train, mode, storage_time, params, rng):
    """The readout as it drew before it skipped zero-count binomials and took
    the herald positions from the Stokes pass: three searches of ``slot``, a
    ``searchsorted`` categorical and every binomial over the full arrays. It
    reads only p_ret and the slot law from the record, and works out q_pre and
    the leak itself."""
    n_modes = params.mode_count
    law = _link_law(params, storage_time)
    p_ret, unlit_law = law.p_ret, law.slot_law[:, 0]
    herald = (train * n_modes + mode) * 2
    lo, at, hi = np.searchsorted(slot, [train * 2 * n_modes, herald, (train + 1) * 2 * n_modes])
    padded_slot, padded_k = np.append(slot, -1), np.append(k, 0)
    lit_l = padded_slot[at] == herald
    lit_r = padded_slot[at + lit_l] == herald + 1
    cum = np.cumsum(unlit_law)
    k_unlit = np.searchsorted(cum[:-1], rng.random((train.size, 2)) * cum[-1], side="right")
    m = rng.binomial(np.where(lit_r, padded_k[at + lit_l], k_unlit[:, 1]), p_ret)
    n = rng.binomial(np.where(lit_l, padded_k[at], k_unlit[:, 0]), p_ret)
    lit_other = hi - lo - lit_l - lit_r
    q_pre = 1.0 - unlit_law[0] / unlit_law.sum()
    other_excited = lit_other + rng.binomial(2 * n_modes - 2 - lit_other, q_pre)
    leaked = rng.binomial(other_excited, params.crosstalk_eps * params.detection_eff)
    to_r = rng.binomial(leaked, 0.5)
    m = m + to_r
    n = n + (leaked - to_r)
    if params.dark_count_prob > 0.0:
        m = m + (rng.random(train.size) < params.dark_count_prob)
        n = n + (rng.random(train.size) < params.dark_count_prob)
    return m, n


# the draw-identity grid: (overrides of the calibrated link, trains)
IDENTITY_CASES = {
    "calibrated": ({}, 200_000),
    "dark_0.3": ({"dark_count_prob": 0.3}, 20_000),
    "one_mode": ({"mode_count": 1}, 1_000_000),
    "chi_0.2": ({"chi": 0.2, "eta_td": 0.8}, 20_000),
    "no_crosstalk": ({"crosstalk_eps": 0.0}, 200_000),
    "full_crosstalk": ({"crosstalk_eps": 1.0}, 200_000),
}


def _identity_params(calibrated, case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # chi = 0.2 at 12 modes warns
        return dataclasses.replace(calibrated, **IDENTITY_CASES[case][0])


class TestReadoutDrawIdentity:
    """The readout draws exactly what `reference_readout` draws: the same
    clicks and the same generator state afterwards."""

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_pipeline_matches_reference_readout(self, calibrated, case):
        params, trains = _identity_params(calibrated, case), IDENTITY_CASES[case][1]
        n_modes = params.mode_count
        for storage_time in (1e-6, 150e-6):
            rng, ref_rng = substream(64, 0), substream(64, 0)
            tally = run_link_trials(params, storage_time, trains, rng)

            slot, k, photons = _sample_lit(_link_law(params, storage_time), trains, ref_rng)
            window, _, click1, click2 = _stokes_clicks(slot, photons, trains, params, ref_rng)
            row, detector = _first_herald(window, click1, click2, n_modes, ref_rng)
            herald = window[row]
            m, n = reference_readout(slot, k, herald // n_modes, herald % n_modes,
                                     storage_time, params, ref_rng)
            assert tally.heralded == herald.size > 0
            assert tally.detector_clicks == click1.sum() + click2.sum()
            assert np.array_equal(tally.pmn_counts.ravel(), np.bincount(
                2 * np.minimum(m, 1) + np.minimum(n, 1), minlength=4))
            assert np.array_equal(tally.window_counts.ravel(), np.bincount(
                2 * (herald % n_modes) + detector, minlength=2 * n_modes))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_readout_stage_matches_reference_readout(self, calibrated, case):
        # hand-placed heralds: at each lit train's first lit window, at a
        # random window of each lit train (with lit slots before or after
        # it), and at a random window of every seventh train
        params = _identity_params(calibrated, case)
        n_modes = params.mode_count
        slot, k, _ = _sample_lit(_link_law(params, 0.0), 20_000, substream(65, 0))
        lit_train, first = np.unique(slot // (2 * n_modes), return_index=True)
        other = np.concatenate([lit_train, np.arange(0, 20_000, 7)])
        train = np.concatenate([lit_train, other])
        mode = np.concatenate([(slot[first] >> 1) % n_modes,
                               substream(65, 1).integers(0, n_modes, other.size)])
        rng, ref_rng = substream(65, 2), substream(65, 2)
        got = _readout(slot, k, train, mode, 1e-6, params, rng)
        want = reference_readout(slot, k, train, mode, 1e-6, params, ref_rng)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    def test_binomial_skips_only_draws_numpy_never_makes(self, p):
        counts = substream(66, 0).integers(0, 4, 5000)
        counts[::3] = 0
        rng, ref_rng = substream(66, 1), substream(66, 1)
        assert np.array_equal(_binomial(counts, p, rng), ref_rng.binomial(counts, p))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.3, 0.0, 0.5, 0.2], [0.5, 0.0, 0.5],
                                         [0.9, 0.1, 0.0], [1.0]])
    def test_categorical_matches_searchsorted(self, weights):
        weights = np.array(weights)
        rng, ref_rng = substream(67, 0), substream(67, 0)
        cum = np.cumsum(weights)
        want = np.searchsorted(cum[:-1], ref_rng.random((4000, 2)) * cum[-1], side="right")
        got = _categorical(weights, (4000, 2), rng)
        assert np.array_equal(got, want)
        assert not np.isin(got, np.flatnonzero(weights == 0.0)).any()

    def test_categorical_on_the_edges(self):
        # uniforms landing exactly on a cumulative edge take the cell above
        # it, as searchsorted(side="right") does, and skip zero-weight cells
        class Fixed:
            def random(self, size):
                return np.array([0.0, 0.2499, 0.25, 0.4999, 0.5, 0.75, 0.9999]).reshape(size)

        got = _categorical(np.array([0.25, 0.0, 0.25, 0.5]), 7, Fixed())
        assert got.tolist() == [0, 0, 2, 2, 3, 3, 3]


class TestPmnTable:
    def test_validates_cell_ranges_and_total(self):
        with pytest.raises(ParameterError):
            PmnTable(0.9, 0.2, 0.2, 0.2)
        with pytest.raises(ParameterError):
            PmnTable(-0.1, 0.5, 0.3, 0.2)
        with pytest.raises(ParameterError):
            PmnTable.from_counts(0, 0, 0, 0)

    def test_from_counts_normalizes(self):
        table = PmnTable.from_counts(850, 70, 70, 10)
        assert table.total == pytest.approx(1.0)
        assert table.p11 == pytest.approx(0.01)


class TestClosedFormAgainstSampling:
    def test_expected_pmn_matches_monte_carlo(self, calibrated):
        tally = run_link_trials(calibrated, 1e-6, 600_000, substream(5, 0))
        mc = tally.pmn()
        cf = expected_pmn(calibrated, 1e-6)
        for got, want in zip(mc.as_tuple(), cf.as_tuple()):
            assert abs(got - want) < 3 * binom_sigma(want, tally.heralded) + 1e-9

    def test_expected_window_detection_matches_monte_carlo(self, calibrated):
        tally = run_link_trials(calibrated, 1e-6, 400_000, substream(6, 0))
        per_window = expected_window_detection(calibrated)
        want = calibrated.mode_count * per_window
        sigma = math.sqrt(want / tally.trains)
        assert abs(tally.detection_probability - want) < 3 * sigma

    @pytest.mark.parametrize("mode_count", [1, 12])
    @pytest.mark.parametrize("dark_count_prob", [1e-3, 0.3])
    def test_dark_count_paths_match_closed_forms(self, calibrated, dark_count_prob, mode_count):
        # five seeds at a 2.4M-window budget, crosstalk on; each statistic is
        # pooled over the seeds into one chi-squared and must not be rejected
        # at p = 1e-4
        import dataclasses
        params = dataclasses.replace(calibrated, dark_count_prob=dark_count_prob,
                                     mode_count=mode_count)
        trains = 2_400_000 // mode_count
        p_herald = expected_herald_probability(params)
        p_window = expected_window_detection(params) / 2.0   # per detector and window
        window_probs = _link_law(params, 1e-6).window_probs
        pmn_probs = expected_pmn(params, 1e-6).as_tuple()
        pooled = {"herald": [0.0, 0], "clicks": [0.0, 0], "window": [0.0, 0], "pmn": [0.0, 0]}

        def add(name, chi2, dof):
            pooled[name][0] += chi2
            pooled[name][1] += dof

        for seed in range(5):
            tally = run_link_trials(params, 1e-6, trains, substream(61, seed))
            var = trains * p_herald * (1.0 - p_herald)
            add("herald", (tally.heralded - trains * p_herald) ** 2 / var, 1)
            slots = 2 * trains * mode_count
            var = slots * p_window * (1.0 - p_window)
            add("clicks", (tally.detector_clicks - slots * p_window) ** 2 / var, 1)
            assert tally.window_counts.sum() == tally.heralded
            if mode_count > 1:
                add("window", *_chi2(tally.window_counts.sum(axis=1), window_probs))
            add("pmn", *_chi2(tally.pmn_counts.reshape(4), pmn_probs))
        for name, (chi2, dof) in pooled.items():
            if dof:
                assert scipy.stats.chi2.sf(chi2, dof) > 1e-4, (name, chi2, dof)

    @pytest.mark.parametrize("mode_count", [1, 12])
    @pytest.mark.parametrize("dark_count_prob", [0.0, 0.3])
    def test_crosstalk_only_readout_matches_closed_forms(self, calibrated, dark_count_prob,
                                                         mode_count):
        # no retrieval, and every excited slot of the train other than the
        # addressed pair leaks one detected photon: each anti-Stokes click is
        # crosstalk or dark, so P_mn reads the count of excited slots that are
        # not lit. Five seeds at a 2.4M-window budget; heralds and P_mn are
        # each pooled into one chi-squared that must not be rejected at
        # p = 1e-4, and a cell of probability zero must stay empty
        import dataclasses
        params = dataclasses.replace(calibrated, chi=0.05, crosstalk_eps=1.0, detection_eff=1.0,
                                     retrieval_eff_zero=0.0, dark_count_prob=dark_count_prob,
                                     mode_count=mode_count)
        trains = 2_400_000 // mode_count
        p_herald = expected_herald_probability(params)
        pmn_probs = np.array(expected_pmn(params, 1e-6).as_tuple())
        pooled = {"herald": [0.0, 0], "pmn": [0.0, 0]}
        for seed in range(5):
            tally = run_link_trials(params, 1e-6, trains, substream(62, seed))
            var = trains * p_herald * (1.0 - p_herald)
            pooled["herald"][0] += (tally.heralded - trains * p_herald) ** 2 / var
            pooled["herald"][1] += 1
            counts = tally.pmn_counts.reshape(4)
            assert not counts[pmn_probs == 0.0].any()
            chi2, dof = _chi2(counts, pmn_probs)
            pooled["pmn"][0] += chi2
            pooled["pmn"][1] += dof
        for name, (chi2, dof) in pooled.items():
            if dof:
                assert scipy.stats.chi2.sf(chi2, dof) > 1e-4, (name, chi2, dof)

    def test_herald_partner_readout_matches_closed_form(self):
        # lossless readout and no crosstalk: P_mn reads k_L and k_R at the
        # herald window, where a slot without a surviving photon holds
        # k >= 1 with q_pre (0.20 here) rather than with P(k >= 1) (0.28).
        # Five seeds; P_mn pooled into one chi-squared that must not be
        # rejected at p = 1e-4, and P_00 = 0 must stay empty
        with pytest.warns(UserWarning, match="chi"):
            params = LinkParams(chi=0.3, mode_count=3, eta_td=0.3, retrieval_eff_zero=1.0,
                                detection_eff=1.0)
        pmn_probs = expected_pmn(params, 0.0).as_tuple()
        chi2 = dof = 0
        for seed in range(5):
            tally = run_link_trials(params, 0.0, 200_000, substream(63, seed))
            assert tally.pmn_counts[0, 0] == 0
            c, d = _chi2(tally.pmn_counts.reshape(4), pmn_probs)
            chi2, dof = chi2 + c, dof + d
        assert scipy.stats.chi2.sf(chi2, dof) > 1e-4, (chi2, dof)

    def test_crosstalk_makes_concurrence_decrease_with_modes(self, calibrated):
        import dataclasses
        values = []
        for n in range(1, 13):
            params = dataclasses.replace(calibrated, mode_count=n)
            vis = fringe_visibility(params, 1e-6)[1]
            values.append(concurrence(expected_pmn(params, 1e-6), vis))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_no_crosstalk_concurrence_independent_of_modes(self, clean_link):
        import dataclasses
        values = []
        for n in (1, 4, 12):
            params = dataclasses.replace(clean_link, mode_count=n)
            vis = fringe_visibility(params, 1e-6)[1]
            values.append(concurrence(expected_pmn(params, 1e-6), vis))
        assert max(values) - min(values) < 1e-12


class TestFringe:
    def test_visibility_cap_zero_means_flat_fringe(self, calibrated):
        import dataclasses
        params = dataclasses.replace(calibrated, visibility_cap=0.0)
        theta = np.linspace(0, 2 * np.pi, 50)
        values = fringe_expectation(theta, 1e-6, params)
        assert np.ptp(values) < 1e-15

    def test_fringe_contrast_equals_v_eff(self, calibrated):
        theta = np.linspace(0, 2 * np.pi, 4096)
        values = fringe_expectation(theta, 1e-6, calibrated)
        contrast = (values.max() - values.min()) / (values.max() + values.min())
        _, v_eff = fringe_visibility(calibrated, 1e-6)
        assert contrast == pytest.approx(v_eff, abs=1e-6)
        assert v_eff == pytest.approx(0.795, abs=1e-9)

    def test_long_storage_visibility_within_reference_band(self, calibrated):
        _, v_eff = fringe_visibility(calibrated, 150e-6)
        assert abs(v_eff - 0.700) < 0.024

    def test_fringe_peaks_at_zero_phase(self, calibrated):
        a0, v0 = fringe_visibility(calibrated, 1e-6)
        assert fringe_expectation(0.0, 1e-6, calibrated) == pytest.approx(a0 * (1 + v0))
        assert fringe_expectation(np.pi, 1e-6, calibrated) == pytest.approx(a0 * (1 - v0))

    def test_visibility_cap_bounds_v_eff(self, calibrated):
        import dataclasses
        for cap in (0.3, 0.6, 0.9):
            params = dataclasses.replace(calibrated, visibility_cap=cap)
            assert fringe_visibility(params, 1e-6)[1] <= cap + 1e-15


class TestDeterminism:
    def test_identical_seed_identical_tally(self, calibrated):
        a = run_link_trials(calibrated, 1e-6, 50_000, substream(17, 0))
        b = run_link_trials(calibrated, 1e-6, 50_000, substream(17, 0))
        assert a.heralded == b.heralded
        assert np.array_equal(a.pmn_counts, b.pmn_counts)
        assert np.array_equal(a.window_counts, b.window_counts)
        assert a.detector_clicks == b.detector_clicks
