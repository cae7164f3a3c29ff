"""Multi-round adaptive consensus by parallel sequential likelihood tests.

Each candidate state root gets one running score. With c_{k,j} submissions
for root k out of C_j total in round j, the score after round i is the exact
integer

    L_{k,i} = sum_{j<=i} (2 c_{k,j} - C_j) C_j,

and a root wins as soon as its score strictly exceeds the real-valued
threshold T derived from the stake-pool size M, the per-node inclusion
probability q, the design Byzantine fraction f_max, and the error budget
beta. The scheme is a bank of sequential probability ratio tests, one per
root, under a Gaussian approximation of the per-round membership counts;
at most one score can ever exceed a positive threshold, and an adversary
maximizes its acceptance chance by pooling all submissions on a single
incorrect root (both properties are exercised in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional


class DegenerateParams(ValueError):
    """Parameter combination outside the scheme's domain."""


class NoSolution(ValueError):
    """A sizing search found no admissible operating point."""


@dataclass(frozen=True)
class ConsensusParams:
    """Operating point: pool size M, Byzantine design fraction, per-node
    inclusion probability, and error budget."""

    m_total: int
    f_max: float
    q: float
    beta: float

    def __post_init__(self) -> None:
        if self.m_total <= 0:
            raise DegenerateParams("pool size must be positive")
        if not 0.0 < self.f_max < 0.5:
            raise DegenerateParams("design Byzantine fraction must lie in (0, 0.5)")
        if not 0.0 < self.q <= 1.0:
            raise DegenerateParams("inclusion probability must lie in (0, 1]")
        # beta = 0.5 gives a zero threshold; values above 0.5 void the
        # guarantees but keep the algebra meaningful, so only (0, 1) is hard.
        if not 0.0 < self.beta < 1.0:
            raise DegenerateParams("error budget must lie in (0, 1)")


def threshold(params: ConsensusParams) -> float:
    """Acceptance threshold for the integer score.

    ln((1-beta)/beta) * 2 q (1-q) M (1-f_max) f_max / ((1-f_max) - f_max)
    """
    f = params.f_max
    denom = (1.0 - f) - f   # positive: ConsensusParams keeps f_max below 1/2
    rate = 2.0 * params.q * (1.0 - params.q) * params.m_total * (1.0 - f) * f
    return math.log((1.0 - params.beta) / params.beta) * rate / denom


@dataclass(frozen=True)
class RoundTally:
    """Submission counts of one round, grouped by root."""

    round_index: int
    counts: Mapping[bytes, int]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts are non-negative")


@dataclass(frozen=True)
class LikelihoodTable:
    """Exact integer running scores per root.

    A root first seen in round j is back-charged the sum of squared totals of
    the earlier rounds, so its score equals the full sum from round 1
    regardless of when it first appeared.
    """

    scores: Mapping[bytes, int] = field(default_factory=dict)
    rounds_elapsed: int = 0
    charge: int = 0  # sum of C_j^2 over elapsed rounds

    def score(self, root: bytes) -> int:
        return self.scores.get(root, -self.charge)

    def leader(self):
        if not self.scores:
            return None, None
        best = max(self.scores, key=lambda r: (self.scores[r], r))
        return best, self.scores[best]


def update_likelihoods(table: LikelihoodTable, tally: RoundTally) -> LikelihoodTable:
    """Fold one round into the table: every known root gets its increment,
    roots absent from the round contribute -C_j^2."""
    if tally.round_index != table.rounds_elapsed + 1:
        raise ValueError(
            f"tally for round {tally.round_index}, table at {table.rounds_elapsed}")
    total = sum(tally.counts.values())
    scores = {root: s - total * total for root, s in table.scores.items()}
    for root, count in tally.counts.items():
        if count == 0 and root not in scores:
            continue
        base = scores.get(root, -table.charge - total * total)
        scores[root] = base + 2 * count * total
    return LikelihoodTable(scores=scores, rounds_elapsed=tally.round_index,
                           charge=table.charge + total * total)


def step(table: LikelihoodTable, params: ConsensusParams) -> Optional[bytes]:
    """The accepted root, whose score strictly exceeds the threshold, or
    None to continue (a score exactly at the threshold continues)."""
    root, best = table.leader()
    if root is not None and best > threshold(params):
        return root
    return None


def expected_rounds(params: ConsensusParams, f: float) -> float:
    """Wald approximation of the expected round count at actual Byzantine
    fraction f, for the single-incorrect-root adversary."""
    if f <= 0.0:
        raise DegenerateParams("the approximation needs a non-empty Byzantine side")
    if f > params.f_max:
        raise DegenerateParams("actual fraction above the design fraction")
    beta = params.beta
    # Gaussian moments of honest/Byzantine membership counts at fraction f
    m, q = params.m_total, params.q
    mu_h = q * (1.0 - f) * m
    mu_b = q * f * m
    var_h, var_b = mu_h * (1.0 - q), mu_b * (1.0 - q)
    numerator = ((1.0 - beta) * math.log((1.0 - beta) / beta)
                 + beta * math.log(beta / (1.0 - beta)))
    drift = (((mu_h - mu_b) ** 2 + var_h - var_b) / (2.0 * var_b)
             + 0.5 * math.log(var_b / var_h))
    return numerator / drift


def _bisect(past, lo: float, hi: float) -> float:
    """q after 200 halvings of [lo, hi] toward where `past(q)` turns from false to true."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve_q_for_expected_rounds(m_total: int, f_max: float, beta: float,
                                target_rounds: float) -> float:
    """Inclusion probability q at which the design-point round count of the
    Wald/Gaussian `expected_rounds` equals `target_rounds` (bisection), or
    `NoSolution` if no q in (0, 1) reaches it, as for a NaN target. The
    exact walk mean there is lower: for 5 rounds at M=1600, beta=1e-20,
    3.847 at f = f_max = 0.35 (q = 0.04232) and 3.315 at 0.45 (q = 0.3410)."""
    if math.isnan(target_rounds):
        raise NoSolution("the target round count is NaN")
    lo, hi = 1e-9, 1.0 - 1e-9

    def rounds_at(q: float) -> float:
        return expected_rounds(ConsensusParams(m_total, f_max, q, beta), f_max)

    if rounds_at(hi) > target_rounds:
        raise NoSolution("target below the achievable round count at q -> 1")
    if rounds_at(lo) < target_rounds:
        raise NoSolution("target above the achievable round count at q -> 0")
    return _bisect(lambda q: rounds_at(q) <= target_rounds, lo, hi)


def one_round_q(m_total: int, f_max: float, beta: float) -> float:
    """Smallest q at which an all-honest first round crosses the threshold.

    With a single root and the expected qM submissions, the round-1 score is
    (qM)^2; bisect for the q where it meets the threshold. The expected set
    size q*M is the headline design figure. Parameters outside
    `ConsensusParams`' domain raise `DegenerateParams`.
    """
    ConsensusParams(m_total, f_max, 1.0, beta)
    log_odds = math.log((1.0 - beta) / beta)
    rate = (1.0 - f_max) * f_max / ((1.0 - f_max) - f_max)
    if log_odds <= 0.0:
        raise NoSolution("an error budget of 1/2 or more gives no positive threshold")

    def excess(q: float) -> float:
        return q * m_total - 2.0 * log_odds * rate * (1.0 - q)

    return _bisect(lambda q: excess(q) > 0.0, 0.0, 1.0)


def ns1_size(f_max: float, m_total: int, beta: float) -> int:
    """Execution-set size for the one-shot majority baseline.

    Smallest n whose probability of a Byzantine majority stays below beta,
    estimated by the local-limit form of the Binomial(n, f_max) majority
    tail, exp(-n KL(1/2 || f_max)) * sqrt(2 / (pi n)). Saturates at the pool
    size when no admissible n exists below it.
    """
    ConsensusParams(m_total, f_max, 1.0, beta)
    kl = -0.5 * math.log(4.0 * f_max * (1.0 - f_max))
    for n in range(1, m_total + 1):
        if math.exp(-n * kl) * math.sqrt(2.0 / (math.pi * n)) < beta:
            return n
    return m_total
