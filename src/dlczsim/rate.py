"""Closed-form rate engine for a nested repeater chain.

One entanglement-generation attempt is allowed per communication interval
T_cc = L0/c. Generation succeeds with the N-mode multiplexed probability,
swaps at level i with the retrieval-limited probability at the mean waiting
time of the level below, and the final readout multiplies one more retrieval
factor; `chain_law` computes that law once. The recursion uses mean times
throughout; the samplers in `chain_sim` read the same law and quantify how
optimistic that is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config_io import ChainParams
from .errors import ParameterError, StalledChainError

__all__ = ["ChainLaw", "ChainReport", "chain_law", "multiplexed_success", "swap_chain"]


@dataclass(frozen=True)
class ChainLaw:
    """A chain's per-interval law: the recursion and both samplers read it."""

    p0: float                     # single-mode generation probability
    p_gen: float                  # P0^(N), the N-mode generation probability
    q: float                      # f * R0 * eta_TD, a swap's success at zero age
    decay: float                  # T_cc / tau0, retrieval decay per interval


@dataclass(frozen=True)
class ChainReport:
    """Everything `swap_chain` derives from a ChainParams."""

    law: ChainLaw
    p0_linear: float              # N * p0, the small-probability approximation
    t_cc: float
    t0: float
    level_success: list[float]    # P_i, i = 1..n
    level_time: list[float]       # t_i, i = 1..n
    p_pr: float
    rate_hz: float


def chain_law(params: ChainParams) -> ChainLaw:
    """The chain's generation, swap and decay law.

    p0 = chi * exp(-L0 / (2 L_att)) * eta_FC * eta_TD: the photon travels half
    the link to the midpoint station, gets frequency converted, and is
    detected. Raises StalledChainError(0) if P0^(N) is exactly zero.
    """
    p0 = params.chi * math.exp(-params.l0 / (2.0 * params.l_att)) * params.eta_fc * params.eta_td
    p_gen = multiplexed_success(p0, params.mode_count)
    if p_gen == 0.0:
        raise StalledChainError(0, "chain stalled: elementary generation probability is 0")
    q = params.swap_intrinsic_factor * params.r0 * params.eta_td
    return ChainLaw(p0=p0, p_gen=p_gen, q=q, decay=params.t_cc / params.tau0)


def multiplexed_success(p0: float, n_modes: int) -> float:
    """Probability that at least one of N independent mode attempts succeeds.

    Evaluated exactly as 1 - (1 - p0)^N, not the N*p0 approximation.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ParameterError(f"p0 must lie in [0, 1], got {p0!r}")
    if n_modes < 1:
        raise ParameterError(f"n_modes must be >= 1, got {n_modes}")
    return -math.expm1(n_modes * math.log1p(-p0)) if p0 < 1.0 else 1.0


def swap_chain(params: ChainParams) -> ChainReport:
    """Evaluate the mean-time recursion and the end-to-end rate.

    t0 = T_cc / P0^(N); then for each swap level
    P_i = q * exp(-t_{i-1}/tau0) and t_i = t_{i-1} / P_i, with q = f * R0 * eta_TD;
    finally P_pr = R0 * exp(-t_n/tau0) and
    rate = P0^(N) * prod(P_i) * P_pr / T_cc.

    Raises StalledChainError (with the offending level) if any probability in
    the cascade is exactly zero, and ParameterError if the rate overflows (a
    subnormal T_cc). A level time that overflows is the limit of a diverging
    mean time: the probabilities after it vanish and the rate is 0.
    """
    law = chain_law(params)
    t_cc = params.t_cc
    t = t0 = t_cc / law.p_gen
    level_success: list[float] = []
    level_time: list[float] = []
    product = 1.0
    for level in range(1, params.n_levels + 1):
        p_i = law.q * math.exp(-t / params.tau0)
        if p_i == 0.0:
            raise StalledChainError(level)
        t = t / p_i
        product *= p_i
        level_success.append(p_i)
        level_time.append(t)

    p_pr = params.r0 * math.exp(-t / params.tau0)
    rate = law.p_gen * product * p_pr / t_cc
    if not math.isfinite(rate):
        raise ParameterError(f"rate = {rate!r} Hz is not finite: T_cc = {t_cc!r} s is too "
                             "short for the recursion to divide by")
    return ChainReport(
        law=law,
        p0_linear=params.mode_count * law.p0,
        t_cc=t_cc,
        t0=t0,
        level_success=level_success,
        level_time=level_time,
        p_pr=p_pr,
        rate_hz=rate,
    )
