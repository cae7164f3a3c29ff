"""Node strategies and the incentive calculus for skipping work.

`KINDS` declares each node strategy once: what a node of that kind submits,
whether it reveals, and the one parameter it reads. The utility functions
quantify whether a selfish node gains by free-loading (guessing the round
seed instead of executing) or by colluding on a shared seed.
Rewards R, deposits D, and costs c1 (honest execution), c2 (free-loading
overhead), c3 (collusion overhead) are abstract units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .hashing import be8

HONEST = "honest"


@dataclass(frozen=True)
class Strategy:
    """Behavior tag for one node: a kind of `KINDS`, and the one field that
    the kind reads; the other fields keep their defaults."""

    kind: str
    fanout: int = 2
    gamma: float = 0.0
    group: int = 0

    def __post_init__(self) -> None:
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown strategy kind: {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            ok = kind.accepts(value) if f.name == kind.param else value == f.default
            if not ok:
                raise ValueError(f"{self.kind} cannot take {f.name}={value!r}")


@dataclass(frozen=True)
class Kind:
    """One strategy kind. `rule(strategy, node_id, tid, round_index, prf)`
    gives the hash preimages (tuples of byte strings) of the seed and root a
    node submits, None for the honest execution's, and the caller hashes
    them; `prf(*parts)` is the caller's pseudo-random integer below 2**256.
    `param` names the Strategy field the kind reads, `accepts` its values."""

    rule: Callable
    reveals: bool = True
    param: Optional[str] = None
    accepts: Optional[Callable] = None


def _freeloader(s, node_id, tid, round_index, prf):
    """Honest in round 1; afterwards reuses that round's root, the correct
    one, and guesses the round seed with probability `gamma`."""
    tag = be8(node_id) + tid + be8(round_index)
    if round_index == 1 or prf(b"freeload", tag) / 2.0 ** 256 < s.gamma:
        return None, None
    return (b"bad-guess", tag), None


KINDS = {
    HONEST: Kind(lambda *_: (None, None)),
    "silent": Kind(lambda *_: (None, None), reveals=False),   # commits, never reveals
    # one incorrect root and seed, shared by every such node
    "byz_single": Kind(lambda s, node_id, tid, rnd, prf: (
        (b"byz-seed", tid, be8(rnd)), (b"byz-root", tid))),
    # incorrect roots split over `fanout` values by node id
    "byz_multi": Kind(
        lambda s, node_id, tid, rnd, prf: (
            (b"byz-seed", tid, be8(rnd), be8(node_id % s.fanout)),
            (b"byz-root", tid, be8(node_id % s.fanout))),
        param="fanout", accepts=lambda v: type(v) is int and v >= 2),
    "freeloader": Kind(_freeloader, param="gamma",
                       accepts=lambda v: type(v) in (int, float) and 0 <= v <= 1),
    # the correct root, and a seed shared within `group`
    "colluder": Kind(
        lambda s, node_id, tid, rnd, prf: (
            (b"collusion", tid, be8(rnd), be8(s.group)), None),
        param="group", accepts=lambda v: type(v) is int and 0 <= v < 2 ** 64),
}


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


def estimate_gammas(m_total: int, q: float, th1: float, th2: float, coalition_size: int):
    """Exact threshold probabilities of the coalition, summed over the
    pairs (|C ∩ ES|, |ES \\ C|) of two independent binomial counts.

    gamma1 = P(|C ∩ ES| > th1 |ES|), gamma2 = P(|C ∩ ES| < th2 |ES|) when
    every pool node joins the set independently with probability q.
    """
    if not (0 <= coalition_size <= m_total and 0.0 <= q <= 1.0):
        raise ValueError("coalition size or membership probability out of range")
    def pmf(n: int) -> list:
        if q in (0.0, 1.0):
            return [float(k == n * q) for k in range(n + 1)]
        weights = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                            + k * math.log(q) + (n - k) * math.log1p(-q)) for k in range(n + 1)]
        total = math.fsum(weights)  # normalizing cancels rounding common to every k
        return [w / total for w in weights]
    outside = pmf(m_total - coalition_size)
    gamma1 = gamma2 = 0.0
    for inside, p_inside in enumerate(pmf(coalition_size)):
        gamma1 += p_inside * sum(p for b, p in enumerate(outside) if inside > th1 * (inside + b))
        gamma2 += p_inside * sum(p for b, p in enumerate(outside) if inside < th2 * (inside + b))
    return min(gamma1, 1.0), min(gamma2, 1.0)  # a sum of rounded terms can pass 1
