"""Node strategies and the incentive calculus for skipping work.

Strategies are inert tags consumed by the protocol event loop; the utility
functions quantify whether a selfish node gains by free-loading (guessing
the round seed instead of executing) or by colluding on a shared seed.
Rewards R, deposits D, and costs c1 (honest execution), c2 (free-loading
overhead), c3 (collusion overhead) are abstract units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HONEST = "honest"
BYZ_SINGLE = "byz_single"
BYZ_MULTI = "byz_multi"
FREELOADER = "freeloader"
COLLUDER = "colluder"
SILENT = "silent"

_KINDS = {HONEST, BYZ_SINGLE, BYZ_MULTI, FREELOADER, COLLUDER, SILENT}


@dataclass(frozen=True)
class Strategy:
    """Behavior tag for one node.

    byz_single: all such nodes submit one shared incorrect root and seed.
    byz_multi:  incorrect roots split over `fanout` values.
    freeloader: reuses the prior winning root; guesses the round seed with
                success probability `gamma`.
    colluder:   correct root, seed shared within `group`.
    silent:     commits, never reveals.
    """

    kind: str
    fanout: int = 2
    gamma: float = 0.0
    group: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind: {self.kind}")
        if self.kind == BYZ_MULTI and self.fanout < 2:
            raise ValueError("multi-root adversary needs fanout >= 2")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("seed-guess probability must lie in [0, 1]")


@dataclass(frozen=True)
class UtilityParams:
    """Inputs of the incentive comparison; `gamma1`/`gamma2` are the
    coalition's chances of clearing the reward and forfeiture thresholds."""

    reward: float
    deposit: float
    beta: float
    gamma: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self) -> None:
        if min(self.reward, self.deposit, self.c1, self.c2, self.c3) < 0:
            raise ValueError("rewards, deposits, and costs are non-negative")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("error budget must lie in [0, 1)")
        for g in (self.gamma, self.gamma1, self.gamma2):
            if not 0.0 <= g <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


def utility_honest(p: UtilityParams) -> float:
    """Expected payoff of executing faithfully: win R unless the consensus
    errs, forfeit D when it does, pay the computation cost."""
    return (1.0 - p.beta) * p.reward - p.beta * p.deposit - p.c1


def utility_freeload(p: UtilityParams) -> float:
    """Expected payoff of guessing the seed: the honest payoff with
    probability gamma, certain forfeiture otherwise, plus the snooping cost."""
    return (p.gamma * ((1.0 - p.beta) * p.reward - p.beta * p.deposit)
            - (1.0 - p.gamma) * p.deposit - p.c2)


def nash_condition(p: UtilityParams) -> bool:
    """Whether honesty strictly beats free-loading.

    Exact form of the comparison: R + D > (c1 - c2) / ((1-beta)(1-gamma)).
    A perfect guesser (gamma = 1) can only be beaten on costs.
    """
    if p.gamma == 1.0:
        return p.c1 < p.c2
    return (p.reward + p.deposit) * (1.0 - p.beta) * (1.0 - p.gamma) > p.c1 - p.c2


def utility_collude(p: UtilityParams):
    """Expected payoff of a coalition member plus, for the certain-majority
    case gamma1 = 1, the equilibrium slack c3 - c1."""
    value = (p.gamma1 * ((1.0 - p.beta) * p.reward - p.beta * p.deposit)
             - p.gamma2 * p.deposit - p.c3)
    epsilon = p.c3 - p.c1 if p.gamma1 == 1.0 else None
    return value, epsilon


def estimate_gammas(m_total: int, q: float, th1: float, th2: float,
                    coalition_size: int, trials: int = 100_000,
                    seed: int = 0):
    """Monte Carlo estimate of the coalition's threshold probabilities.

    gamma1 = P(|C ∩ ES| > th1 |ES|), gamma2 = P(|C ∩ ES| < th2 |ES|) when
    every pool node joins the set independently with probability q.
    """
    if not 0 <= coalition_size <= m_total:
        raise ValueError("coalition size out of range")
    rng = np.random.default_rng(seed)
    inside = rng.binomial(coalition_size, q, size=trials)
    outside = rng.binomial(m_total - coalition_size, q, size=trials)
    size = inside + outside
    gamma1 = float(np.mean(inside > th1 * size))
    gamma2 = float(np.mean(inside < th2 * size))
    return gamma1, gamma2
