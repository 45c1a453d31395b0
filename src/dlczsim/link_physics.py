"""Photon statistics of one temporally multiplexed atomic-ensemble link.

Two memory nodes (L and R) are driven by a synchronized train of N write
pulses. Each pulse may deposit a collective spin excitation in a node and emit
a Stokes photon into that node's collection mode; the two Stokes modes
interfere on a beam splitter and a click on either output detector in window i
heralds a shared excitation in mode i. A later read pulse converts the
addressed spin wave into an anti-Stokes photon whose detection statistics
(decay, loss, dark counts, crosstalk from the non-addressed modes) are the
observables of interest. The link's constants are a `config_io.LinkParams`;
every quantity derived from them is computed here.

The model is intentionally semiclassical: per-mode occupation numbers are
sampled from a truncated thermal law and detection is Bernoulli thinning.
Interference coherence enters only through the closed-form fringe functions
(`fringe_expectation`, `fringe_visibility`), never through sampling.

Sampling is one vectorized pipeline (`run_link_trials`) over a batch of trains,
a function of (params, rng). It is sparse: at chi ~ 1% almost no (train, node,
mode) slot sends a Stokes photon to the beam splitter. The lit slots, where at
least one photon survives, are drawn as a Bernoulli(q_lit) process over the
flattened slot index, each with (k, photons) from its law given lit; dark
clicks, when enabled, are drawn the same way per detector over the windows. A
train's herald is its earliest clicking window. Only heralded trains draw their
unlit slots: k at the herald window from its law given no survivor, and the
other excited unlit slots as one binomial count, exact since slots are
independent. Every tally thus has the law of i.i.d. slots and windows. The
sampler and every closed form read one record of that law at one storage time,
`_LinkLaw`, built only by `_link_law(params, storage_time)`, where each part is
written once: the thermal slot law, the retrieval and leak probabilities, the
window's Stokes click law and the herald law. The closed forms state it exactly
to rounding: they add and multiply non-negative factors, use log1p and expm1
near 1, and cancel at most one bit; every link that heralds has a herald law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config_io import LinkParams
from .errors import ParameterError, check_fields, checked
from .rate import multiplexed_success

__all__ = [
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
_K = range(MAX_EXCITATION + 1)   # the occupations a mode can hold


@dataclass(frozen=True)
class PmnTable:
    """Readout coincidence probabilities conditioned on a herald.

    p_mn is the probability of m clicks in the aS_R field and n clicks in the
    aS_L field (clicks, not photons: detectors are not number resolving).
    """

    p00: float = checked("in [0, 1]")
    p01: float = checked("in [0, 1]")
    p10: float = checked("in [0, 1]")
    p11: float = checked("in [0, 1]")

    def __post_init__(self):
        check_fields(self)
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
# the link's exact law at one storage time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LinkLaw:
    """Exact law of one link at one storage time: the sampler draws from it
    and every closed form reads it."""

    params: LinkParams
    slot_law: np.ndarray       # (3, 3) joint law of a slot's k (row) and survivors j (column)
    q_pre: float               # P(slot excited | none of its photons survives)
    q_post: float              # P(slot excited), unconditioned
    p_ret: float               # P(spin wave -> detected anti-Stokes photon) after storage
    leak: float                # P(an excited non-addressed slot leaks one detected photon)
    window_clicks: tuple       # P(0, 1 or 2 Stokes detectors click) in one window
    window_probs: np.ndarray   # (N,) distribution of the heralded window index
    herald_prob: float         # P(any window clicks) per train
    herald_weights: np.ndarray  # (3, 3) law of (k_L, k_R) at a clicking window, up to a factor

    def manifold(self) -> np.ndarray:
        """(3, 3) posterior of (k_L, k_R) at the heralded window."""
        weight = self.herald_weights.sum()
        if weight == 0.0:
            raise ParameterError("herald probability is zero (no excitation and no dark "
                                 "counts); conditional readout statistics are undefined")
        return self.herald_weights / weight

    def other_slots(self) -> np.ndarray:
        """(N, 2): the 2i other slots before herald window i and the 2(N-1-i) after it."""
        i = np.arange(self.params.mode_count)
        return np.stack([2 * i, 2 * i[::-1]], axis=1)


def _click_law(p: float, dark: float, tries: int) -> list[tuple[float, float]]:
    """(P(no click), P(click)) of a detector after k = 0..tries tries that each
    reach it with probability p, and a dark count with probability ``dark``: (1-p)^k
    (1-dark), and p sum_{i<k} (1-p)^i + (1-p)^k dark, exact however small p is."""
    miss = [(1.0 - p) ** k for k in range(tries + 1)]
    return [(q * (1.0 - dark), p * sum(miss[:k]) + q * dark) for k, q in enumerate(miss)]


def _link_law(params: LinkParams, storage_time: float) -> _LinkLaw:
    """The record of ``params`` after ``storage_time``. It raises only for a
    negative storage time, so a link that can never herald still samples."""
    if storage_time < 0:
        raise ParameterError(f"storage_time must be >= 0, got {storage_time}")
    chi, eta, d = params.chi, params.eta_td, params.dark_count_prob
    # P(k): the thermal law chi^k, truncated and renormalized by 1 - chi^3, which
    # keeps the ratio P(k+1)/P(k) = chi exact inside the truncated support
    probs = [(1.0 - chi) * chi ** k / (1.0 - chi ** 3) for k in _K]
    slot = [[probs[k] * math.comb(k, j) * eta ** j * (1.0 - eta) ** (k - j) if j <= k else 0.0
             for j in _K] for k in _K]
    # per node: no photon survives (g), all reach a given detector (e), both detectors get one (f)
    g, lit = slot[0][0] + slot[1][0] + slot[2][0], slot[1][1] + slot[2][1] + slot[2][2]
    e, f = (slot[1][1] + slot[2][1]) / 2.0 + slot[2][2] / 4.0, slot[2][2] / 2.0
    hit_none, hit_one, hit_both = g * g, 2.0 * e * (2.0 * g + e), f * (2.0 - f) + 2.0 * e * e
    no_click = hit_none * (1.0 - d) ** 2
    w = no_click ** np.arange(params.mode_count)
    # a window clicks from k_L + k_R tries or a dark count; / (eta + dark) keeps rare clicks normal
    dark = d * (2.0 - d)
    click = [c / ((eta + dark) or 1.0) for _, c in _click_law(eta, dark, 2 * MAX_EXCITATION)]
    return _LinkLaw(
        params=params,
        slot_law=np.array(slot),
        q_pre=1.0 - probs[0] / g,
        q_post=1.0 - probs[0],
        p_ret=(params.retrieval_eff_zero * float(np.exp(-storage_time / params.memory_lifetime))
               * params.detection_eff),
        leak=params.crosstalk_eps * params.detection_eff,
        window_clicks=(no_click, (hit_one + 2.0 * d * hit_none) * (1.0 - d),
                       hit_both + d * hit_one + d * d * hit_none),
        window_probs=w / w.sum(),
        # 2N tries: a slot lights up, or the detector paired with it clicks dark
        herald_prob=multiplexed_success(_click_law(lit, d, 1)[1][1], 2 * params.mode_count),
        herald_weights=np.array([[probs[a] * probs[b] * click[a + b] for b in _K] for a in _K]),
    )


# ---------------------------------------------------------------------------
# sampling stages, sparse over one chunk of trains
#
# A slot is one (train, node, mode), flattened as (train * N + mode) * 2 + node
# with node 0 = L and 1 = R; its window (train, mode) is slot >> 1. A slot is
# lit when one of its Stokes photons survives the path. The stages carry only
# the lit slots and the clicking windows, each in ascending index order.
# ---------------------------------------------------------------------------

def _categorical(weights: np.ndarray, size, rng: np.random.Generator) -> np.ndarray:
    """Cell indices drawn with probability proportional to ``weights``, one uniform each.

    A cell index is the count of cumulative edges at or below the uniform,
    which is what ``searchsorted(edges, u, side="right")`` returns.
    """
    cum = np.cumsum(weights)
    u = rng.random(size) * cum[-1]
    cell = np.zeros(u.shape, dtype=np.uint8)   # uint8 += uint8 is numpy's fast loop
    for edge in cum[:-1]:
        cell += (u >= edge).view(np.uint8)
    return cell.astype(np.intp)


def _binomial(counts: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """``rng.binomial(counts, p)``, drawn only where ``counts`` > 0.

    numpy returns 0 for a zero count without touching the generator, so the
    values and the generator state afterwards are those of the full call.
    """
    out = np.zeros_like(counts)
    drawn = np.flatnonzero(counts)
    out[drawn] = rng.binomial(counts[drawn], p)
    return out


def _bernoulli_positions(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in range(size) of i.i.d. Bernoulli(p) successes.

    Exact: a binomial count, then a uniform subset of that many indices.
    """
    count = rng.binomial(size, p)
    return np.sort(rng.choice(size, count, replace=False, shuffle=False))


def _sample_lit(law: _LinkLaw, n_trains: int, rng: np.random.Generator):
    """Lit slots of ``n_trains`` write trains: (slot, k, photons), slot ascending.

    Each slot is lit (j >= 1) independently with the slot law's mass there, and
    a lit slot's (k, j) follows the slot law given j >= 1.
    """
    lit_law = law.slot_law[:, 1:].ravel()     # cells (k, j) = (c // 2, c % 2 + 1)
    slot = _bernoulli_positions(n_trains * law.params.mode_count * 2, lit_law.sum(), rng)
    cell = _categorical(lit_law, slot.size, rng)
    return slot, cell // 2, cell % 2 + 1


def _stokes_clicks(slot: np.ndarray, photons: np.ndarray, n_trains: int, params: LinkParams,
                   rng: np.random.Generator):
    """Per-window Stokes measurement of the windows that click.

    A window's surviving photons from both nodes exit the beam splitter toward
    either detector with probability 1/2 each; dark counts add false clicks
    per detector and window. Returns (window, start, click1, click2) over the
    windows where either detector clicked, window ascending; ``start`` indexes
    the window's first lit slot in ``slot``, or the next lit slot where the
    window has none. Every lit window clicks.
    """
    n_modes = params.mode_count
    start = np.flatnonzero(np.diff(slot >> 1, prepend=-1))
    window, survivors = slot[start] >> 1, np.add.reduceat(photons, start)
    to_d1 = rng.binomial(survivors, 0.5)
    click1 = to_d1 > 0
    click2 = survivors > to_d1
    if params.dark_count_prob > 0.0:
        dark1 = _bernoulli_positions(n_trains * n_modes, params.dark_count_prob, rng)
        dark2 = _bernoulli_positions(n_trains * n_modes, params.dark_count_prob, rng)
        merged = np.sort(np.concatenate([window, dark1, dark2]))
        merged = merged[np.diff(merged, prepend=-1) != 0]
        spread = np.zeros((2, merged.size), dtype=bool)
        spread[:, np.searchsorted(merged, window)] = click1, click2
        spread[0, np.searchsorted(merged, dark1)] = True
        spread[1, np.searchsorted(merged, dark2)] = True
        window, (click1, click2) = merged, spread
        start = np.searchsorted(slot, 2 * window)
    return window, start, click1, click2


def _first_herald(window: np.ndarray, click1: np.ndarray, click2: np.ndarray,
                  mode_count: int, rng: np.random.Generator):
    """Earliest-window-wins herald selection.

    A train's herald is its earliest clicking window. Returns (row, detector
    code 0/1), one entry per heralded train, train ascending; ``row`` indexes
    the herald window in the input arrays. Later clicks in the same train are
    discarded (the read pulse is already committed by feedforward). Detector
    code 0 is D_S1 and heralds the + superposition, code 1 is D_S2 and heralds
    the - one. When both detectors click in the winning window the recorded
    detector is chosen uniformly (whichever latch fired first in hardware; the
    model has no sub-window timing). A multi-photon window heralds like any
    other: no experiment could reject it then.
    """
    row = np.flatnonzero(np.diff(window // mode_count, prepend=-1))
    c1, c2 = click1[row], click2[row]
    detector = (~c1).astype(np.int64)       # a lone click fixes the code
    tie = c1 & c2
    detector[tie] = rng.random(int(tie.sum())) < 0.5
    return row, detector


def _readout_counts(slot: np.ndarray, k: np.ndarray, herald: np.ndarray, at: np.ndarray,
                    lit: np.ndarray, law: _LinkLaw, rng: np.random.Generator):
    """Anti-Stokes click counts (m at aS_R, n at aS_L) for heralded trains.

    ``slot`` and ``k`` are the chunk's lit slots. Per heralded train,
    ``herald`` is its herald window, ``at`` indexes that window's first lit
    slot in ``slot`` (or the next lit slot where it has none), and ``lit`` is
    the train's count of lit slots. An unlit slot's k follows the slot law
    given j = 0, so it is excited with probability q_pre, and the train's
    other excited unlit slots are one binomial count.
    The addressed mode's excitations each convert and get detected with
    probability p_ret = R0*exp(-t/tau0)*eta_D; every other excited (node, mode)
    slot of the train leaks one background photon with probability
    leak = crosstalk_eps*eta_D, split uniformly between the two collected
    fields; dark counts add one click.
    """
    params = law.params
    padded_slot, padded_k = np.append(slot, -1), np.append(k, 0)   # -1 and 0 past the end
    lit_l = padded_slot[at] == 2 * herald        # the herald window's L slot; its R slot is next
    lit_r = padded_slot[at + lit_l] == 2 * herald + 1
    k_unlit = _categorical(law.slot_law[:, 0], (herald.size, 2), rng)
    m = _binomial(np.where(lit_r, padded_k[at + lit_l], k_unlit[:, 1]), law.p_ret, rng)  # aS_R
    n = _binomial(np.where(lit_l, padded_k[at], k_unlit[:, 0]), law.p_ret, rng)          # aS_L

    lit_other = lit - lit_l - lit_r
    other_excited = lit_other + _binomial(2 * params.mode_count - 2 - lit_other, law.q_pre, rng)
    leaked = _binomial(other_excited, law.leak, rng)
    to_r = _binomial(leaked, 0.5, rng)
    m = m + to_r
    n = n + (leaked - to_r)

    if params.dark_count_prob > 0.0:
        m = m + (rng.random(herald.size) < params.dark_count_prob)
        n = n + (rng.random(herald.size) < params.dark_count_prob)
    return m, n


# ---------------------------------------------------------------------------
# batched pipeline
# ---------------------------------------------------------------------------

@dataclass
class LinkTally:
    """Aggregated outcome of many write/herald/readout trials."""

    trains: int
    heralded: int
    pmn_counts: np.ndarray            # (2, 2) clamped click-pattern counts
    window_counts: np.ndarray         # (N, 2) herald counts per (window, detector)
    detector_clicks: int              # Stokes clicks over ALL windows (no first-click cut)

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
    law = _link_law(params, storage_time)
    n_modes = params.mode_count
    chunk = max(1, _CHUNK_SLOTS // (2 * n_modes))
    heralded = detector_clicks = 0
    pmn_counts = np.zeros(4, dtype=np.int64)
    window_counts = np.zeros(2 * n_modes, dtype=np.int64)
    for done in range(0, trains, chunk):
        n = min(chunk, trains - done)
        slot, k, photons = _sample_lit(law, n, rng)
        window, start, click1, click2 = _stokes_clicks(slot, photons, n, params, rng)
        row, detector = _first_herald(window, click1, click2, n_modes, rng)
        herald, at = window[row], start[row]
        # every lit window clicks, so a heralded train's lit slots run from its
        # herald window to the next heralded train's, and no other train has any
        lit = np.append(at[1:], slot.size) - at
        m, n_clicks = _readout_counts(slot, k, herald, at, lit, law, rng)
        heralded += row.size
        pmn_counts += np.bincount(2 * np.minimum(m, 1) + np.minimum(n_clicks, 1), minlength=4)
        window_counts += np.bincount(2 * (herald % n_modes) + detector, minlength=2 * n_modes)
        detector_clicks += int(click1.sum()) + int(click2.sum())
    return LinkTally(
        trains=trains,
        heralded=heralded,
        pmn_counts=pmn_counts.reshape(2, 2),
        window_counts=window_counts.reshape(n_modes, 2),
        detector_clicks=detector_clicks,
    )


# ---------------------------------------------------------------------------
# closed forms (same model, no sampling)
# ---------------------------------------------------------------------------

def expected_window_detection(params: LinkParams) -> float:
    """Exact per-window sum of both Stokes detectors' click probabilities, the
    mean of the window's click law; a train's detection is mode_count times it."""
    _, one, both = _link_law(params, 0.0).window_clicks
    return one + 2.0 * both


def expected_herald_probability(params: LinkParams) -> float:
    """Exact P(a train has a clicking window); 0 for a link that can never herald."""
    return _link_law(params, 0.0).herald_prob


def _leak_laws(law: _LinkLaw) -> np.ndarray:
    """(N, 4) click law of the train's other excited slots, by herald window i:
    P(click at aS_R, click at aS_L) in cells 2*m + n, as in `LinkTally`.

    `other_slots` are excited with q_pre and q_post, and each flags
    aS_R or aS_L with y = q*leak/2 <= 1/3. With A = (1-y)^n and B = (1-2y)^n
    over both groups, the cells are B, A - B twice, and (1-A)^2 - (A^2 - B),
    whose first term is at most twice it; log A, log B, log(B/A) and
    log(B/A^2) are sums of n*log1p terms."""
    y = np.array([law.q_pre, law.q_post]) * law.leak / 2.0
    r = y / (1.0 - y)
    log_a, log_b, log_ba, log_baa = (law.other_slots()
                                     @ np.log1p(-np.stack([y, 2.0 * y, r, r * r], axis=1))).T
    one = np.exp(log_a) * -np.expm1(log_ba)
    both = np.expm1(log_a) ** 2 - np.exp(2.0 * log_a) * -np.expm1(log_baa)
    return np.stack([np.exp(log_b), one, one, both], axis=1)


def expected_pmn(params: LinkParams, storage_time: float) -> PmnTable:
    """Closed-form PmnTable for the sampling model of `run_link_trials`: the
    click law of the heralded window's own spin waves (each detected with
    p_ret) and each field's dark count, and of the other slots' leaks."""
    law = _link_law(params, storage_time)
    side = np.array(_click_law(law.p_ret, params.dark_count_prob, MAX_EXCITATION))
    own = side.T @ law.manifold().T @ side   # k_L (rows) feeds aS_L
    # the leaks are independent of it: cell k sums own[i] * leaks[j] over i | j == k
    cell = np.arange(4)
    cells = np.bincount((cell[:, None] | cell).ravel(),
                        np.outer(own, law.window_probs @ _leak_laws(law)).ravel(), minlength=4)
    return PmnTable(*(cells / cells.sum()))


def fringe_visibility(params: LinkParams, storage_time: float) -> tuple[float, float]:
    """Closed-form fringe of the heralded anti-Stokes interference.

    Returns (amplitude, effective visibility): the expected conditional count
    rate at detector D_aS1 as the analysis phase theta is scanned is
    amplitude * (1 + V_eff * cos(theta)). The Stokes + anti-Stokes path phase
    is held constant interferometrically and only shifts the fringe, which the
    fitted visibility does not see, so it is taken as 0.

    Only the single-shared-excitation manifold interferes; its contrast is
    capped by visibility_cap. Double excitations, crosstalk leakage, and dark
    counts contribute phase-independent background, so V_eff <= visibility_cap
    and it decays with storage time as the signal fades into that background.
    """
    law = _link_law(params, storage_time)
    p_ret, w = law.p_ret, law.manifold()
    w_coherent = w[1, 0] + w[0, 1]
    incoherent = float((np.add.outer(_K, _K) * w).sum()) - w_coherent   # mean k_L + k_R

    n_pre, n_post = law.other_slots().T
    other_excited = float((law.window_probs * (n_pre * law.q_pre + n_post * law.q_post)).sum())
    background = other_excited * law.leak / 2.0 + params.dark_count_prob

    coherent = w_coherent * p_ret / 2.0
    amplitude = coherent + incoherent * p_ret / 2.0 + background
    v_eff = 0.0 if amplitude == 0.0 else params.visibility_cap * coherent / amplitude
    return amplitude, v_eff


def fringe_expectation(theta, storage_time: float, params: LinkParams):
    """Expected conditional D_aS1 rate at analysis phase ``theta`` (radians).

    Accepts a scalar or an array of phases.
    """
    amplitude, v_eff = fringe_visibility(params, storage_time)
    return amplitude * (1.0 + v_eff * np.cos(np.asarray(theta, dtype=float)))
