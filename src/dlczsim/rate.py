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

from .errors import ParameterError, StalledChainError, check_fields

__all__ = ["ChainParams", "ChainReport", "elementary_p0", "multiplexed_success", "swap_chain"]


# check_fields spec of ChainParams, also the [chain] keys config_io reads and
# the parameters `sweep` may vary
CHAIN_FIELDS = (
    ("l0", float, "> 0"),
    ("l_att", float, "> 0"),
    ("n_levels", int, ">= 0"),
    ("fiber_speed", float, "> 0"),
    ("eta_fc", float, "in [0, 1]"),
    ("eta_td", float, "in [0, 1]"),
    ("chi", float, "in [0, 1]"),
    ("mode_count", int, ">= 1"),
    ("r0", float, "in [0, 1]"),
    ("tau0", float, "> 0"),
    ("swap_intrinsic_factor", float, "in [0, 1]"),
)


@dataclass(frozen=True)
class ChainParams:
    """Topology and efficiency constants of one repeater chain.

    l0       elementary link length, km.
    l_att    fiber attenuation length, km.
    n_levels nesting depth n; the chain spans 2**n * l0 km.
    fiber_speed  signal speed in fiber, km/s.
    eta_fc   memory-to-telecom frequency-conversion efficiency.
    eta_td   total detection efficiency (Stokes and anti-Stokes channels).
    chi      Stokes excitation probability per attempt.
    mode_count   temporal modes N per communication interval.
    r0       retrieval efficiency at zero delay.
    tau0     memory lifetime, seconds.
    swap_intrinsic_factor  extra per-swap success factor; 1 by default because
        the rate recursion carries no Bell-measurement penalty, 0.5 models a
        linear-optics BSM.
    """

    l0: float = 63.0
    l_att: float = 22.0
    n_levels: int = 4
    fiber_speed: float = 2.0e5
    eta_fc: float = 0.46
    eta_td: float = 0.9
    chi: float = 0.01
    mode_count: int = 100
    r0: float = 0.8
    tau0: float = 16.0
    swap_intrinsic_factor: float = 1.0

    def __post_init__(self):
        check_fields(self, CHAIN_FIELDS)
        if not 0.0 < self.t_cc < math.inf:
            raise ParameterError(
                f"T_cc = l0/fiber_speed = {self.t_cc!r} s is not a positive finite time")

    @property
    def t_cc(self) -> float:
        """Communication interval L0/c, seconds."""
        return self.l0 / self.fiber_speed


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
