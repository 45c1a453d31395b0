"""Closed-form rate engine for a nested repeater chain.

One entanglement-generation attempt is allowed per communication interval
T_cc = L0/c. Generation succeeds with the N-mode multiplexed probability,
swaps at level i succeed with the retrieval-limited probability evaluated at
the mean waiting time of the level below, and the final readout multiplies
one more retrieval factor. The recursion uses mean times throughout; the
Monte Carlo counterpart in `chain_sim` quantifies how optimistic that is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config_io import ChainParams
from .errors import ParameterError, StalledChainError

__all__ = ["ChainReport", "elementary_p0", "multiplexed_success", "swap_chain"]


@dataclass(frozen=True)
class ChainReport:
    """Everything `swap_chain` derives from a ChainParams."""

    p0: float
    p0_multiplexed: float
    p0_linear: float              # N * p0, the small-probability approximation
    t_cc: float
    t0: float
    level_success: list[float]    # P_i, i = 1..n
    level_time: list[float]       # t_i, i = 1..n
    p_pr: float
    rate_hz: float


def elementary_p0(params: ChainParams) -> float:
    """Single-mode generation success probability per interval.

    chi * exp(-L0 / (2 L_att)) * eta_FC * eta_TD: the photon travels half the
    link to the midpoint station, gets frequency converted, and is detected.
    """
    return (params.chi
            * math.exp(-params.l0 / (2.0 * params.l_att))
            * params.eta_fc
            * params.eta_td)


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
    P_i = f * R0 * exp(-t_{i-1}/tau0) * eta_TD and t_i = t_{i-1} / P_i;
    finally P_pr = R0 * exp(-t_n/tau0) and
    rate = P0^(N) * prod(P_i) * P_pr / T_cc.

    Raises StalledChainError (with the offending level) if any probability in
    the cascade is exactly zero, and ParameterError if the rate overflows (a
    subnormal T_cc). A level time that overflows is the limit of a diverging
    mean time: the probabilities after it vanish and the rate is 0.
    """
    p0 = elementary_p0(params)
    p0_multi = multiplexed_success(p0, params.mode_count)
    t_cc = params.t_cc
    if p0_multi == 0.0:
        raise StalledChainError(0, "chain stalled: elementary generation probability is 0")

    t = t_cc / p0_multi
    t0 = t
    level_success: list[float] = []
    level_time: list[float] = []
    product = 1.0
    for level in range(1, params.n_levels + 1):
        p_i = (params.swap_intrinsic_factor * params.r0
               * math.exp(-t / params.tau0) * params.eta_td)
        if p_i == 0.0:
            raise StalledChainError(level)
        t = t / p_i
        product *= p_i
        level_success.append(p_i)
        level_time.append(t)

    p_pr = params.r0 * math.exp(-t / params.tau0)
    rate = p0_multi * product * p_pr / t_cc
    if not math.isfinite(rate):
        raise ParameterError(f"rate = {rate!r} Hz is not finite: T_cc = {t_cc!r} s is too "
                             "short for the recursion to divide by")
    return ChainReport(
        p0=p0,
        p0_multiplexed=p0_multi,
        p0_linear=params.mode_count * p0,
        t_cc=t_cc,
        t0=t0,
        level_success=level_success,
        level_time=level_time,
        p_pr=p_pr,
        rate_hz=rate,
    )
