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

Sampling is one vectorized pipeline (`run_link_trials`) over array kernels
that each handle a batch of trains; it is pure in (params, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, check_fields
from .streams import as_generator

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
        check_fields(self, (
            # chi = 1 has no normalizable thermal law
            ("chi", float, "in [0, 1)"),
            ("mode_count", int, ">= 1"),
            ("pulse_interval", float, "> 0"),
            ("train_duration", float, "> 0"),
            ("retrieval_eff_zero", float, "in [0, 1]"),
            ("memory_lifetime", float, "> 0"),
            ("detection_eff", float, "in [0, 1]"),
            ("eta_td", float, "in [0, 1]"),
            ("visibility_cap", float, "in [0, 1]"),
            ("dark_count_prob", float, "in [0, 1]"),
            ("crosstalk_eps", float, "in [0, 1]"),
            ("phase_s", float, None),
            ("phase_as", float, None),
        ))
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

    @property
    def fringe_offset(self) -> float:
        return self.phase_s + self.phase_as


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
# sampling kernels (arrays shaped (trains, 2, N); axis 1 is [L, R])
# ---------------------------------------------------------------------------

def _sample_excitations(params: LinkParams, n_trains: int, rng: np.random.Generator) -> np.ndarray:
    """Occupation numbers k for every (train, node, mode), via one uniform each."""
    probs = params.occupation_probs()
    u = rng.random((n_trains, 2, params.mode_count))
    k = (u >= probs[0]).astype(np.int8)
    k += u >= probs[0] + probs[1]
    return k


def _stokes_clicks(k: np.ndarray, params: LinkParams, rng: np.random.Generator):
    """Per-window Stokes measurement.

    Each photon independently survives the path with probability eta_td and
    then exits the beam splitter toward either detector with probability 1/2;
    dark counts add false clicks. Returns (click1, click2, survivors), all
    shaped (trains, N).
    """
    survivors = rng.binomial(k.astype(np.int64), params.eta_td).sum(axis=1)
    to_d1 = rng.binomial(survivors, 0.5)
    click1 = to_d1 > 0
    click2 = (survivors - to_d1) > 0
    if params.dark_count_prob > 0.0:
        shape = survivors.shape
        click1 |= rng.random(shape) < params.dark_count_prob
        click2 |= rng.random(shape) < params.dark_count_prob
    return click1, click2, survivors


def _first_herald(click1: np.ndarray, click2: np.ndarray, survivors: np.ndarray,
                  rng: np.random.Generator):
    """Earliest-window-wins herald selection.

    Returns (heralded mask, window index, detector code 0/1, double-excitation
    flag), each shaped (trains,). Later clicks in the same train are discarded
    (the read pulse is already committed by feedforward). Detector code 0 is
    D_S1 and heralds the + superposition, code 1 is D_S2 and heralds the - one.
    When both detectors click in the winning window the recorded detector is
    chosen uniformly (whichever latch fired first in hardware; the model has
    no sub-window timing). The double-excitation flag marks windows where more
    than one photon reached the measurement stage; such trains stay in the
    heralded sample because no experiment could reject them at heralding time.
    """
    any_click = click1 | click2
    heralded = any_click.any(axis=1)
    window = np.argmax(any_click, axis=1)
    rows = np.arange(click1.shape[0])
    c1 = click1[rows, window]
    c2 = click2[rows, window]
    detector = np.where(c1 & ~c2, 0, np.where(c2 & ~c1, 1, (rng.random(len(rows)) < 0.5).astype(np.int64)))
    double = survivors[rows, window] >= 2
    return heralded, window, detector, double


def _readout_counts(k: np.ndarray, window: np.ndarray, storage_time: float,
                    params: LinkParams, rng: np.random.Generator):
    """Anti-Stokes click counts (m at aS_R, n at aS_L) for heralded trains.

    The addressed mode's excitations each convert and get detected with
    probability R0*exp(-t/tau0)*eta_D; every other excited (node, mode) slot
    leaks one background photon with probability crosstalk_eps*eta_D, split
    uniformly between the two collected fields; dark counts add one click.
    """
    n_tr = k.shape[0]
    rows = np.arange(n_tr)
    p_ret = params.retrieval_prob(storage_time)
    k_l = k[rows, 0, window].astype(np.int64)
    k_r = k[rows, 1, window].astype(np.int64)
    m = rng.binomial(k_r, p_ret)   # node R reads out into aS_R
    n = rng.binomial(k_l, p_ret)   # node L reads out into aS_L

    excited = k >= 1
    excited[rows, 0, window] = False
    excited[rows, 1, window] = False
    other_excited = excited.sum(axis=(1, 2))
    leaked = rng.binomial(other_excited, params.crosstalk_eps * params.detection_eff)
    to_r = rng.binomial(leaked, 0.5)
    m = m + to_r
    n = n + (leaked - to_r)

    if params.dark_count_prob > 0.0:
        m = m + (rng.random(n_tr) < params.dark_count_prob)
        n = n + (rng.random(n_tr) < params.dark_count_prob)
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
    storage_time: float
    pmn_counts: np.ndarray            # (2, 2) clamped click-pattern counts
    window_counts: np.ndarray         # (N, 2) herald counts per (window, detector)
    detector_clicks: int              # Stokes clicks over ALL windows (no first-click cut)
    coincidence_windows: int          # windows where both Stokes detectors clicked

    def merge(self, other: "LinkTally") -> "LinkTally":
        if other.storage_time != self.storage_time:
            raise ContractError("cannot merge tallies taken at different storage times")
        return LinkTally(
            trains=self.trains + other.trains,
            heralded=self.heralded + other.heralded,
            double_heralds=self.double_heralds + other.double_heralds,
            storage_time=self.storage_time,
            pmn_counts=self.pmn_counts + other.pmn_counts,
            window_counts=self.window_counts + other.window_counts,
            detector_clicks=self.detector_clicks + other.detector_clicks,
            coincidence_windows=self.coincidence_windows + other.coincidence_windows,
        )

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


# Chunk size bound, in (train, node, mode) slots, to keep transient arrays small.
_CHUNK_SLOTS = 6_000_000


def run_link_trials(params: LinkParams, storage_time: float, trains: int, seed,
                    chunk_slots: int = _CHUNK_SLOTS) -> LinkTally:
    """Run the full write -> herald -> readout pipeline for many trains.

    Chunking is a pure function of (trains, mode_count, chunk_slots), so the
    result is deterministic in (params, trains, seed).
    """
    if trains < 1:
        raise ParameterError(f"trains must be >= 1, got {trains}")
    if storage_time < 0:
        raise ParameterError(f"storage_time must be >= 0, got {storage_time}")
    rng = as_generator(seed)
    chunk = max(1, chunk_slots // (2 * params.mode_count))
    tally = LinkTally(
        trains=0, heralded=0, double_heralds=0, storage_time=storage_time,
        pmn_counts=np.zeros((2, 2), dtype=np.int64),
        window_counts=np.zeros((params.mode_count, 2), dtype=np.int64),
        detector_clicks=0, coincidence_windows=0)
    done = 0
    while done < trains:
        n = min(chunk, trains - done)
        tally = tally.merge(_run_chunk(params, storage_time, n, rng))
        done += n
    return tally


def _run_chunk(params: LinkParams, storage_time: float, n: int,
               rng: np.random.Generator) -> LinkTally:
    k = _sample_excitations(params, n, rng)
    click1, click2, survivors = _stokes_clicks(k, params, rng)
    heralded, window, detector, double = _first_herald(click1, click2, survivors, rng)

    detector_clicks = int(click1.sum()) + int(click2.sum())
    coincidences = int((click1 & click2).sum())

    idx = np.nonzero(heralded)[0]
    window_counts = np.zeros((params.mode_count, 2), dtype=np.int64)
    pmn_counts = np.zeros((2, 2), dtype=np.int64)
    if idx.size:
        np.add.at(window_counts, (window[idx], detector[idx]), 1)
        m, n_clicks = _readout_counts(k[idx], window[idx], storage_time, params, rng)
        m = np.minimum(m, 1)
        n_clicks = np.minimum(n_clicks, 1)
        np.add.at(pmn_counts, (m, n_clicks), 1)
    return LinkTally(
        trains=n,
        heralded=int(idx.size),
        double_heralds=int(double[idx].sum()) if idx.size else 0,
        storage_time=storage_time,
        pmn_counts=pmn_counts,
        window_counts=window_counts,
        detector_clicks=detector_clicks,
        coincidence_windows=coincidences,
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
    no_click: float          # per-window no-click probability


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
        no_click=no_click,
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
    return amplitude, v_eff, params.fringe_offset


def fringe_expectation(theta, storage_time: float, params: LinkParams):
    """Expected conditional D_aS1 rate at analysis phase ``theta`` (radians).

    Accepts a scalar or an array of phases.
    """
    amplitude, v_eff, offset = fringe_visibility(params, storage_time)
    return amplitude * (1.0 + v_eff * np.cos(np.asarray(theta, dtype=float) + offset))
