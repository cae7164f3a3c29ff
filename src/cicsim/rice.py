"""Randomness-inserted contract execution.

Each consensus round re-executes the same transaction but interleaves the run
with seed updates at pseudorandomly chosen instruction indices, so the
submitted digest (final seed, state root) differs between rounds while the
root stays comparable. The instruction array is tiled by segments of size
2^k with k = 1,2,2,3,3,3,4,4,4,4,...: every exponent k repeats k times. One
update lands inside each executed segment, offset from the segment start by
the integer value of the current seed's first k bits.

Per-round seed chain: the round-1 seed is shared public entropy; round j's
starting seed is the (j-1)-fold hash of it. At each scheduled index the seed
absorbs the current state root, seed <- sha256(seed || root). A run that
halts at T before reaching the segment's scheduled index simply ends; the
skipped update is what the schedule's bounds quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .hashing import WORD_BYTES, first_bits, sha256
from .merkle_state import CicState, MerkleRoot


# --- segment schedule -------------------------------------------------------

def segment_exponent(index: int) -> int:
    """K[index] for the 1-based segment index: exponent k repeats k times."""
    if index < 1:
        raise ValueError("segment index is 1-based")
    return math.ceil((math.sqrt(1 + 8 * index) - 1) / 2)


def group_end(k: int) -> int:
    """Last dynamic index covered by segments of exponent <= k."""
    if k < 1:
        return 0
    return (k - 1) * 2 ** (k + 1) + 2


def segment_start(index: int) -> int:
    """First dynamic index of the 1-based segment `index`."""
    k = segment_exponent(index)
    position = index - (k - 1) * k // 2  # 1-based position within the k-group
    return 1 + group_end(k - 1) + (position - 1) * 2 ** k


def exponent_of_total(total: int) -> int:
    """Exponent k of the segment group containing dynamic index `total`."""
    if total < 1:
        raise ValueError("dynamic indices are 1-based")
    k = 1
    while total > group_end(k):
        k += 1
    return k


# --- seed chain --------------------------------------------------------------

@dataclass(frozen=True)
class Seed:
    """A round's seed-chain value."""

    value: bytes
    round_index: int

    def __post_init__(self) -> None:
        if len(self.value) != WORD_BYTES:
            raise ValueError("seed is exactly 32 bytes")
        if self.round_index < 1:
            raise ValueError("rounds are 1-based")


def init_seed(round_index: int, round1_entropy: bytes) -> Seed:
    """Starting seed for a round: the (round-1)-fold hash of round-1 entropy."""
    if round_index < 1:
        raise ValueError("rounds are 1-based")
    value = round1_entropy
    for _ in range(round_index - 1):
        value = sha256(value)
    return Seed(value=value, round_index=round_index)


def update_seed(seed: Seed, state_root: bytes) -> Seed:
    return Seed(value=sha256(seed.value, state_root), round_index=seed.round_index)


# --- interruption cursor -----------------------------------------------------

@dataclass(frozen=True)
class SegmentCursor:
    """Position in the segment schedule: the last scheduled segment and its
    update index t_f, which lies in [segment_start, segment_start + 2^k - 1]
    for the segment's exponent k. The next subarray starts at t_f + 1.
    """

    segment_index: int
    t_f: int

    @classmethod
    def initial(cls) -> "SegmentCursor":
        return cls(segment_index=0, t_f=0)


def next_indices(cursor: SegmentCursor, seed: Seed):
    """Bounds of the next subarray: t_i follows the previous update index and
    t_f is the next segment's update index drawn from the current seed."""
    index = cursor.segment_index + 1
    t_f = segment_start(index) + first_bits(seed.value, segment_exponent(index))
    return cursor.t_f + 1, t_f, SegmentCursor(segment_index=index, t_f=t_f)


# --- digests and the execution driver ---------------------------------------

@dataclass(frozen=True)
class Digest:
    """What a node submits: the final seed and the final state root.

    Consensus groups digests by root alone; seeds feed the reward split.
    """

    seed: bytes
    root: MerkleRoot

    def same_solution(self, other: "Digest") -> bool:
        return self.root.value == other.root.value

    def encode(self) -> bytes:
        return self.seed + self.root.value


@dataclass(frozen=True)
class RiceTrace:
    """Full record of one round's run, for schedule analysis and tracing."""

    round_index: int
    total: int
    update_indices: tuple
    digest: Digest

    @property
    def phi(self) -> int:
        return len(self.update_indices)

    def last_update_fraction(self) -> Optional[float]:
        if not self.update_indices:
            return None
        return (self.total - self.update_indices[-1]) / self.total

    def terminal_exponent(self) -> int:
        """Exponent of the segment group containing the final index T."""
        return exponent_of_total(self.total)

    def last_update_exponent(self) -> Optional[int]:
        """Exponent of the segment holding the last executed seed update."""
        if not self.update_indices:
            return None
        return exponent_of_total(self.update_indices[-1])


def rice_execute(executable, state: CicState, data: bytes, round_index: int,
                 round1_entropy: bytes, gas_limit: Optional[int] = None) -> Digest:
    digest, _ = rice_execute_traced(executable, state, data, round_index,
                                    round1_entropy, gas_limit=gas_limit)
    return digest


def rice_execute_traced(executable, state: CicState, data: bytes, round_index: int,
                        round1_entropy: bytes, gas_limit: Optional[int] = None):
    """Run one round: alternate subarray execution with seed updates.

    `executable` is any substrate with the cursor protocol: its
    `start(state, data, gas_limit=)` returns a cursor whose
    `resume(t_i, t_f)` runs the dynamic-index subarray [t_i, t_f] and returns
    (cursor, last index run), with `halted`, `dynamic_index` and
    `root_bytes()`; `toy_vm.check_resume` holds the rules every resume
    obeys. Substrates are an assembled Program (the interpreter), a
    ComputeModel and the synthetic runner (both closed form). Returns
    (Digest, RiceTrace).
    """
    seed = init_seed(round_index, round1_entropy)
    cursor = executable.start(state, data, gas_limit=gas_limit)
    schedule = SegmentCursor.initial()
    updates: list = []
    while True:
        t_i, t_f, schedule = next_indices(schedule, seed)
        cursor, last = cursor.resume(t_i, t_f)
        if cursor.halted:
            digest = Digest(seed=seed.value, root=MerkleRoot(cursor.root_bytes()))
            return digest, RiceTrace(round_index=round_index, total=last,
                                     update_indices=tuple(updates), digest=digest)
        seed = update_seed(seed, cursor.root_bytes())
        updates.append(last)


# --- schedule bounds and cross-round analysis --------------------------------

def phi_bounds(trace: RiceTrace):
    """Update-count band ((k-1)k/2, k(k+1)/2] for the run's terminal exponent.

    The exponent is taken from the segment of the *last executed update* (for
    a run whose scheduled index in the final segment falls beyond T, that is
    the previous segment); with that reading the band is exact for every run.
    """
    k = trace.last_update_exponent()
    if k is None:
        return None
    return (k - 1) * k // 2, k * (k + 1) // 2


def check_phi_bounds(trace: RiceTrace) -> bool:
    bounds = phi_bounds(trace)
    if bounds is None:
        return trace.total <= 2  # nothing executed far enough to update
    lo, hi = bounds
    return lo < trace.phi <= hi


def check_total_exponent(trace: RiceTrace) -> bool:
    """Group relation 2^k (k-2) + 2 < T <= 2^(k+1) (k-1) + 2 for k of T."""
    k = trace.terminal_exponent()
    return 2 ** k * (k - 2) + 2 < trace.total <= 2 ** (k + 1) * (k - 1) + 2


@dataclass(frozen=True)
class RoundScheduleStats:
    round_index: int
    phi: int
    terminal_exponent: int
    last_update_exponent: Optional[int]
    last_update_fraction: Optional[float]
    strong_unmatched: int
    update_indices: tuple


@dataclass(frozen=True)
class ScheduleReport:
    total: int
    rounds: tuple


def analyze_schedule(total: int, traces: Sequence[RiceTrace]) -> ScheduleReport:
    """Cross-round schedule report: per-round update sets, strong unmatched
    counts (indices never used by any earlier round), and tail fractions.

    A single round is vacuously unmatched against the empty history, so its
    strong count equals its update count.
    """
    if not traces:
        raise ValueError("at least one round is required")
    if any(t.total != total for t in traces):
        raise ValueError("all rounds must execute the same instruction array")
    seen: set = set()
    rounds = []
    for trace in traces:
        indices = set(trace.update_indices)
        strong = len(indices - seen)
        rounds.append(RoundScheduleStats(
            round_index=trace.round_index,
            phi=trace.phi,
            terminal_exponent=trace.terminal_exponent(),
            last_update_exponent=trace.last_update_exponent(),
            last_update_fraction=trace.last_update_fraction(),
            strong_unmatched=strong,
            update_indices=trace.update_indices,
        ))
        seen |= indices
    return ScheduleReport(total=total, rounds=tuple(rounds))


def strong_unmatched_tail_bound(k: int, round_index: int, b2: int, x: int) -> float:
    """Lower bound on P(X >= x) for the strong-unmatched count of a round-i
    run ending in a 2^k segment: the binomial tail with one trial per segment
    of exponent within [b2, k-1] and per-trial success 1 - (i-1)/2^b2.
    """
    from scipy.stats import binom

    if not 1 <= b2 <= k:
        raise ValueError("b2 must lie in [1, k]")
    n = (k - 1) * k // 2 - (b2 - 1) * b2 // 2
    p = max(0.0, 1.0 - (round_index - 1) / 2 ** b2)
    return float(binom.sf(x - 1, n, p))
