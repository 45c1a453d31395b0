"""Photon statistics of one temporally multiplexed atomic-ensemble link.

Two memory nodes (L and R) are driven by a synchronized train of N write
pulses. Each pulse may deposit a collective spin excitation in a node and emit
a Stokes photon into that node's collection mode; the two Stokes modes
interfere on a beam splitter and a click on either output detector in window i
heralds a shared excitation in mode i. A later read pulse converts the
addressed spin wave into an anti-Stokes photon whose detection statistics
(decay, loss, dark counts, crosstalk from the non-addressed modes) are the
observables of interest.

The model is intentionally semiclassical: per-mode occupation numbers are
sampled from a truncated thermal law and detection is Bernoulli thinning.
Interference coherence enters only through the closed-form fringe functions
(`fringe_expectation`, `fringe_visibility`), never through sampling.

Sampling is one vectorized pipeline (`run_link_trials`) over a batch of trains,
a function of (params, rng). It is sparse: at chi ~ 1% almost every (train, node,
mode) slot is vacuum, so the stages carry only what can matter. The excited
slots are drawn as a Bernoulli(1 - P(0)) process over the flattened slot index
(a binomial count, then uniform positions) and each gets k = 1 or 2; Stokes
survivors are drawn on those slots alone and summed per window; dark clicks,
when enabled, are drawn the same way per detector over the windows. A train's
herald is its earliest clicking window, and the readout looks up k at that
window in the sorted excited slots. The law of every tally is that of i.i.d.
slots and windows, which the closed forms below state exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_fields

__all__ = [
    "LinkParams",
    "PmnTable",
    "LinkTally",
    "run_link_trials",
    "expected_window_detection",
    "expected_herald_probability",
    "expected_pmn",
    "fringe_visibility",
    "fringe_expectation",
]

# Fock truncation of the per-mode thermal law. Truncation error is O(chi^3),
# negligible at the ~1% excitation probabilities this model targets.
MAX_EXCITATION = 2


# check_fields spec of LinkParams, also the [link] keys config_io reads
LINK_FIELDS = (
    ("chi", float, "in [0, 1)"),    # chi = 1 has no normalizable thermal law
    ("mode_count", int, "in [1, 1000000]"),
    ("pulse_interval", float, "> 0"),
    ("train_duration", float, "> 0"),
    ("retrieval_eff_zero", float, "in [0, 1]"),
    ("memory_lifetime", float, "> 0"),
    ("detection_eff", float, "in (0, 1]"),   # intrinsic_efficiency divides by it
    ("eta_td", float, "in [0, 1]"),
    ("visibility_cap", float, "in [0, 1]"),
    ("dark_count_prob", float, "in [0, 1]"),
    ("crosstalk_eps", float, "in [0, 1]"),
    ("phase_s", float, None),
    ("phase_as", float, None),
)


@dataclass(frozen=True)
class LinkParams:
    """Physical constants of one elementary link.

    chi                 Stokes excitation probability per write pulse per node.
    mode_count          temporal modes N per write train.
    pulse_interval      spacing between write pulses, seconds.
    train_duration      length of the whole write train, seconds.
    retrieval_eff_zero  intrinsic retrieval efficiency at zero delay (R0).
    memory_lifetime     spin-wave 1/e lifetime tau0, seconds.
    detection_eff       total anti-Stokes detection efficiency (eta_D).
    eta_td              total Stokes path + detector efficiency.
    visibility_cap      interference-visibility ceiling from phase noise.
    dark_count_prob     per-window false-click probability, per detector.
    crosstalk_eps       probability that an excited non-addressed mode leaks
                        one photon into a collected anti-Stokes mode at readout.
    phase_s, phase_as   Stokes / anti-Stokes path phase offsets, radians.
                        Only their sum enters any observable (it is held
                        constant interferometrically), as the fringe offset.
    """

    chi: float
    mode_count: int = 12
    pulse_interval: float = 400e-9
    train_duration: float = 8e-6
    retrieval_eff_zero: float = 0.707
    memory_lifetime: float = 0.3e-3
    detection_eff: float = 1.0
    eta_td: float = 1.0
    visibility_cap: float = 1.0
    dark_count_prob: float = 0.0
    crosstalk_eps: float = 0.0
    phase_s: float = 0.0
    phase_as: float = 0.0

    def __post_init__(self):
        check_fields(self, LINK_FIELDS)
        if self.pulse_interval * (self.mode_count - 1) > self.train_duration:
            raise ParameterError(
                f"{self.mode_count} pulses at {self.pulse_interval} s spacing do not fit "
                f"in train_duration={self.train_duration} s")
        if self.chi * self.mode_count >= 1.0:
            warnings.warn(
                f"chi*mode_count = {self.chi * self.mode_count:.3g} >= 1: multi-excitation "
                "regime, the truncated photon-number law is a poor approximation",
                stacklevel=2)

    def occupation_probs(self) -> np.ndarray:
        """P(k) for k = 0..2: thermal law chi^k, truncated and renormalized.

        Renormalizing by (1 - chi^3) keeps the defining ratio
        P(k+1)/P(k) = chi exact inside the truncated support.
        """
        weights = np.array([self.chi ** k for k in range(MAX_EXCITATION + 1)])
        return (1.0 - self.chi) * weights / (1.0 - self.chi ** (MAX_EXCITATION + 1))

    def retrieval_prob(self, storage_time: float) -> float:
        """Spin-wave -> detected anti-Stokes photon probability after storage."""
        if storage_time < 0:
            raise ParameterError(f"storage_time must be >= 0, got {storage_time}")
        return (self.retrieval_eff_zero
                * float(np.exp(-storage_time / self.memory_lifetime))
                * self.detection_eff)


@dataclass(frozen=True)
class PmnTable:
    """Readout coincidence probabilities conditioned on a herald.

    p_mn is the probability of m clicks in the aS_R field and n clicks in the
    aS_L field (clicks, not photons: detectors are not number resolving).
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        check_fields(self, tuple((name, float, "in [0, 1]")
                                 for name in ("p00", "p01", "p10", "p11")))
        if self.total > 1.0 + 1e-12:
            raise ParameterError(f"Pmn entries sum to {self.total} > 1")

    @property
    def total(self) -> float:
        return self.p00 + self.p01 + self.p10 + self.p11

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)

    @classmethod
    def from_counts(cls, c00: int, c01: int, c10: int, c11: int) -> "PmnTable":
        total = c00 + c01 + c10 + c11
        if total <= 0:
            raise ParameterError("cannot build a PmnTable from zero heralded trials")
        return cls(c00 / total, c01 / total, c10 / total, c11 / total)


# ---------------------------------------------------------------------------
# sampling stages, sparse over one chunk of trains
#
# A slot is one (train, node, mode), flattened as (2 * train + node) * N + mode
# with node 0 = L and 1 = R; a window is one (train, mode), flattened as
# train * N + mode. The stages carry only the excited slots and the clicking
# windows, each in ascending index order.
# ---------------------------------------------------------------------------

def _bernoulli_positions(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in range(size) of i.i.d. Bernoulli(p) successes.

    Exact: a binomial count, then a uniform subset of that many indices.
    """
    count = rng.binomial(size, p)
    return np.sort(rng.choice(size, count, replace=False, shuffle=False))


def _group(keys: np.ndarray):
    """Sorted distinct non-negative ``keys`` and the group index of each key.

    The same as np.unique(keys, return_inverse=True), by one stable sort;
    np.unique's hash path is orders of magnitude slower on large int arrays.
    """
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return keys[order][new], inverse


def _sample_excitations(params: LinkParams, n_trains: int, rng: np.random.Generator):
    """Excited slots of ``n_trains`` write trains and their occupation numbers.

    Each slot is excited with probability 1 - P(0), independently, and then
    holds k = 2 with probability P(2) / (1 - P(0)), else k = 1. Returns
    (slot, k): the sorted excited slot indices and their int64 k.
    """
    probs = params.occupation_probs()
    p_excited = probs[1] + probs[2]
    slot = _bernoulli_positions(n_trains * 2 * params.mode_count, p_excited, rng)
    k = 1 + (rng.random(slot.size) * p_excited < probs[2])
    return slot, k


def _stokes_clicks(slot: np.ndarray, k: np.ndarray, n_trains: int, params: LinkParams,
                   rng: np.random.Generator):
    """Per-window Stokes measurement of the windows that click.

    Each photon independently survives the path with probability eta_td; a
    window's survivors from both nodes exit the beam splitter toward either
    detector with probability 1/2 each; dark counts add false clicks per
    detector and window. Returns (window, click1, click2, survivors) over the
    windows where either detector clicked, window ascending.
    """
    n_modes = params.mode_count
    photons = rng.binomial(k, params.eta_td)
    lit = photons > 0
    window, inverse = _group(slot[lit] // (2 * n_modes) * n_modes + slot[lit] % n_modes)
    survivors = np.bincount(inverse, weights=photons[lit],
                            minlength=window.size).astype(np.int64)
    to_d1 = rng.binomial(survivors, 0.5)
    click1 = to_d1 > 0
    click2 = survivors > to_d1
    if params.dark_count_prob > 0.0:
        dark1 = _bernoulli_positions(n_trains * n_modes, params.dark_count_prob, rng)
        dark2 = _bernoulli_positions(n_trains * n_modes, params.dark_count_prob, rng)
        merged = _group(np.concatenate([window, dark1, dark2]))[0]
        spread = np.zeros((3, merged.size), dtype=np.int64)
        spread[:, np.searchsorted(merged, window)] = click1, click2, survivors
        spread[0, np.searchsorted(merged, dark1)] = 1
        spread[1, np.searchsorted(merged, dark2)] = 1
        window, survivors = merged, spread[2]
        click1, click2 = spread[:2].astype(bool)
    return window, click1, click2, survivors


def _first_herald(window: np.ndarray, click1: np.ndarray, click2: np.ndarray,
                  survivors: np.ndarray, mode_count: int, rng: np.random.Generator):
    """Earliest-window-wins herald selection.

    A train's herald is its earliest clicking window. Returns (train, mode,
    detector code 0/1, double-excitation flag), one entry per heralded train,
    train ascending. Later clicks in the same train are discarded (the read
    pulse is already committed by feedforward). Detector code 0 is D_S1 and
    heralds the + superposition, code 1 is D_S2 and heralds the - one. When
    both detectors click in the winning window the recorded detector is chosen
    uniformly (whichever latch fired first in hardware; the model has no
    sub-window timing). The double-excitation flag marks windows where more
    than one photon reached the measurement stage; such trains stay in the
    heralded sample because no experiment could reject them at heralding time.
    """
    train = window // mode_count
    first = np.flatnonzero(np.diff(train, prepend=-1))
    c1, c2 = click1[first], click2[first]
    detector = (~c1).astype(np.int64)       # a lone click fixes the code
    tie = c1 & c2
    detector[tie] = rng.random(int(tie.sum())) < 0.5
    return train[first], window[first] % mode_count, detector, survivors[first] >= 2


def _occupation_at(slot: np.ndarray, k: np.ndarray, query: np.ndarray) -> np.ndarray:
    """k of each queried slot: looked up in the sorted excited slots, 0 if absent."""
    at = np.searchsorted(slot, query)
    hit = np.append(slot, -1)[at] == query    # a query past the last slot meets -1
    return np.where(hit, np.append(k, 0)[at], 0)


def _readout_counts(slot: np.ndarray, k: np.ndarray, train: np.ndarray, mode: np.ndarray,
                    storage_time: float, params: LinkParams, rng: np.random.Generator):
    """Anti-Stokes click counts (m at aS_R, n at aS_L) for heralded trains.

    ``train`` and ``mode`` name each heralded train and its herald window. The
    addressed mode's excitations each convert and get detected with
    probability R0*exp(-t/tau0)*eta_D; every other excited (node, mode) slot
    of the train leaks one background photon with probability
    crosstalk_eps*eta_D, split uniformly between the two collected fields;
    dark counts add one click.
    """
    n_modes = params.mode_count
    p_ret = params.retrieval_prob(storage_time)
    first_slot = train * (2 * n_modes)
    k_l = _occupation_at(slot, k, first_slot + mode)
    k_r = _occupation_at(slot, k, first_slot + n_modes + mode)
    m = rng.binomial(k_r, p_ret)   # node R reads out into aS_R
    n = rng.binomial(k_l, p_ret)   # node L reads out into aS_L

    excited = (np.searchsorted(slot, first_slot + 2 * n_modes)
               - np.searchsorted(slot, first_slot))
    other_excited = excited - (k_l > 0) - (k_r > 0)
    leaked = rng.binomial(other_excited, params.crosstalk_eps * params.detection_eff)
    to_r = rng.binomial(leaked, 0.5)
    m = m + to_r
    n = n + (leaked - to_r)

    if params.dark_count_prob > 0.0:
        m = m + (rng.random(train.size) < params.dark_count_prob)
        n = n + (rng.random(train.size) < params.dark_count_prob)
    return m, n


# ---------------------------------------------------------------------------
# batched pipeline
# ---------------------------------------------------------------------------

@dataclass
class LinkTally:
    """Aggregated outcome of many write/herald/readout trials."""

    trains: int
    heralded: int
    double_heralds: int
    pmn_counts: np.ndarray            # (2, 2) clamped click-pattern counts
    window_counts: np.ndarray         # (N, 2) herald counts per (window, detector)
    detector_clicks: int              # Stokes clicks over ALL windows (no first-click cut)
    coincidence_windows: int          # windows where both Stokes detectors clicked

    @property
    def herald_probability(self) -> float:
        return self.heralded / self.trains

    @property
    def detection_probability(self) -> float:
        """Per-train sum of both detectors' click probabilities over all windows."""
        return self.detector_clicks / self.trains

    def pmn(self) -> PmnTable:
        c = self.pmn_counts
        return PmnTable.from_counts(int(c[0, 0]), int(c[0, 1]), int(c[1, 0]), int(c[1, 1]))


# Trains per chunk are this many (train, node, mode) slots over 2 * mode_count,
# so chunking depends only on the inputs and transient arrays stay small.
_CHUNK_SLOTS = 6_000_000


def run_link_trials(params: LinkParams, storage_time: float, trains: int,
                    rng: np.random.Generator) -> LinkTally:
    """Run the full write -> herald -> readout pipeline for many trains.

    Chunking is a pure function of (trains, mode_count), so the result is
    deterministic in (params, trains, generator state).
    """
    if trains < 1:
        raise ParameterError(f"trains must be >= 1, got {trains}")
    if storage_time < 0:
        raise ParameterError(f"storage_time must be >= 0, got {storage_time}")
    n_modes = params.mode_count
    chunk = max(1, _CHUNK_SLOTS // (2 * n_modes))
    heralded = double_heralds = detector_clicks = coincidence_windows = 0
    pmn_counts = np.zeros(4, dtype=np.int64)
    window_counts = np.zeros(2 * n_modes, dtype=np.int64)
    for done in range(0, trains, chunk):
        n = min(chunk, trains - done)
        slot, k = _sample_excitations(params, n, rng)
        window, click1, click2, survivors = _stokes_clicks(slot, k, n, params, rng)
        train, mode, detector, double = _first_herald(window, click1, click2, survivors,
                                                      n_modes, rng)
        m, n_clicks = _readout_counts(slot, k, train, mode, storage_time, params, rng)
        heralded += train.size
        double_heralds += int(double.sum())
        pmn_counts += np.bincount(2 * np.minimum(m, 1) + np.minimum(n_clicks, 1), minlength=4)
        window_counts += np.bincount(2 * mode + detector, minlength=2 * n_modes)
        detector_clicks += int(click1.sum()) + int(click2.sum())
        coincidence_windows += int((click1 & click2).sum())
    return LinkTally(
        trains=trains,
        heralded=heralded,
        double_heralds=double_heralds,
        pmn_counts=pmn_counts.reshape(2, 2),
        window_counts=window_counts.reshape(n_modes, 2),
        detector_clicks=detector_clicks,
        coincidence_windows=coincidence_windows,
    )


# ---------------------------------------------------------------------------
# closed forms (same model, no sampling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _HeraldComposition:
    """Exact conditional structure of a heralded window."""

    manifold: np.ndarray     # (3, 3) posterior of (k_L, k_R) at the heralded window
    q_pre: float             # P(mode excited | its window produced no click)
    q_post: float            # P(mode excited), unconditioned
    window_probs: np.ndarray  # (N,) distribution of the heralded window index
    herald_prob: float       # P(any window clicks) per train


def _herald_composition(params: LinkParams) -> _HeraldComposition:
    probs = params.occupation_probs()
    dark_pass = (1.0 - params.dark_count_prob) ** 2
    ks = np.arange(MAX_EXCITATION + 1)
    # per-node probability that none of its photons survives to a detector
    g = float((probs * (1.0 - params.eta_td) ** ks).sum())
    no_click = g * g * dark_pass

    click = 1.0 - (1.0 - params.eta_td) ** (ks[:, None] + ks[None, :]) * dark_pass
    manifold = probs[:, None] * probs[None, :] * click
    weight = manifold.sum()
    if weight == 0.0:
        raise ParameterError(
            "herald probability is zero (no excitation and no dark counts); "
            "conditional readout statistics are undefined")
    manifold /= weight

    w = no_click ** np.arange(params.mode_count)
    return _HeraldComposition(
        manifold=manifold,
        q_pre=1.0 - probs[0] / g,
        q_post=1.0 - probs[0],
        window_probs=w / w.sum(),
        herald_prob=1.0 - no_click ** params.mode_count,
    )


def expected_window_detection(params: LinkParams) -> float:
    """Exact per-window sum of the two Stokes detectors' click probabilities.

    The per-train multiplexed detection probability is mode_count times this
    value: counting clicks per window is linear in N by construction.
    """
    probs = params.occupation_probs()
    ks = np.arange(MAX_EXCITATION + 1)
    # a photon misses a given detector if it is lost or exits the other port
    h = float((probs * (1.0 - params.eta_td / 2.0) ** ks).sum())
    p_one = 1.0 - (1.0 - params.dark_count_prob) * h * h
    return 2.0 * p_one


def expected_herald_probability(params: LinkParams) -> float:
    """Exact probability that a train produces a herald (>= 1 click window)."""
    return _herald_composition(params).herald_prob


def _background_factors(params: LinkParams, comp: _HeraldComposition, scale: float):
    """E over the heralded window of prod(1 - q_slot * scale) across other slots.

    ``scale`` is the per-excited-slot probability of a background click on one
    side (eps*eta_D/2) or on either side (eps*eta_D). Slots in windows before
    the herald are biased toward vacancy by the observed absence of clicks.
    """
    i = np.arange(params.mode_count)
    pre = (1.0 - comp.q_pre * scale) ** (2 * i)
    post = (1.0 - comp.q_post * scale) ** (2 * (params.mode_count - 1 - i))
    return float((comp.window_probs * pre * post).sum())


def expected_pmn(params: LinkParams, storage_time: float) -> PmnTable:
    """Closed-form PmnTable for the sampling model of `run_link_trials`."""
    comp = _herald_composition(params)
    p_ret = params.retrieval_prob(storage_time)
    leak = params.crosstalk_eps * params.detection_eff
    dark_pass = 1.0 - params.dark_count_prob

    a = np.arange(MAX_EXCITATION + 1)[:, None]
    b = np.arange(MAX_EXCITATION + 1)[None, :]
    w = comp.manifold
    sig_m0 = float((w * (1.0 - p_ret) ** b).sum())       # no signal click at aS_R
    sig_n0 = float((w * (1.0 - p_ret) ** a).sum())
    sig_00 = float((w * (1.0 - p_ret) ** (a + b)).sum())

    bg_one = _background_factors(params, comp, leak / 2.0)
    bg_both = _background_factors(params, comp, leak)

    pm0 = sig_m0 * bg_one * dark_pass
    pn0 = sig_n0 * bg_one * dark_pass
    p00 = sig_00 * bg_both * dark_pass ** 2
    p01 = pm0 - p00
    p10 = pn0 - p00
    p11 = 1.0 - p00 - p01 - p10
    return PmnTable(p00, p01, p10, p11)


def fringe_visibility(params: LinkParams, storage_time: float) -> tuple[float, float, float]:
    """Closed-form fringe of the heralded anti-Stokes interference.

    Returns (amplitude, effective visibility, phase offset): the expected
    conditional count rate at detector D_aS1 as the analysis phase theta is
    scanned is amplitude * (1 + V_eff * cos(theta + offset)).

    Only the single-shared-excitation manifold interferes; its contrast is
    capped by visibility_cap. Double excitations, crosstalk leakage, and dark
    counts contribute phase-independent background, so V_eff <= visibility_cap
    and it decays with storage time as the signal fades into that background.
    """
    comp = _herald_composition(params)
    p_ret = params.retrieval_prob(storage_time)
    leak = params.crosstalk_eps * params.detection_eff

    w = comp.manifold
    w_coherent = w[1, 0] + w[0, 1]
    a = np.arange(MAX_EXCITATION + 1)[:, None]
    b = np.arange(MAX_EXCITATION + 1)[None, :]
    mean_excitations = float(((a + b) * w).sum())
    incoherent = mean_excitations - w_coherent

    i = np.arange(params.mode_count)
    other_excited = float((comp.window_probs
                           * (2 * i * comp.q_pre
                              + 2 * (params.mode_count - 1 - i) * comp.q_post)).sum())
    background = other_excited * leak / 2.0 + params.dark_count_prob

    coherent = w_coherent * p_ret / 2.0
    amplitude = coherent + incoherent * p_ret / 2.0 + background
    v_eff = 0.0 if amplitude == 0.0 else params.visibility_cap * coherent / amplitude
    return amplitude, v_eff, params.phase_s + params.phase_as


def fringe_expectation(theta, storage_time: float, params: LinkParams):
    """Expected conditional D_aS1 rate at analysis phase ``theta`` (radians).

    Accepts a scalar or an array of phases.
    """
    amplitude, v_eff, offset = fringe_visibility(params, storage_time)
    return amplitude * (1.0 + v_eff * np.cos(np.asarray(theta, dtype=float) + offset))
