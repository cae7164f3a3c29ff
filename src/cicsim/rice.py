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


# --- seed chain and schedule ------------------------------------------------

def init_seed(round_index: int, round1_entropy: bytes) -> bytes:
    """Starting seed for a round: the (round-1)-fold hash of round-1 entropy."""
    if round_index < 1:
        raise ValueError("rounds are 1-based")
    seed = round1_entropy
    for _ in range(round_index - 1):
        seed = sha256(seed)
    if len(seed) != WORD_BYTES:
        raise ValueError("seed is exactly 32 bytes")
    return seed


def update_index(segment: int, seed: bytes) -> int:
    """Scheduled seed-update index in the 1-based `segment`: the segment's
    start plus the integer value of the seed's first k bits."""
    return segment_start(segment) + first_bits(seed, segment_exponent(segment))


# --- digests and the execution driver ---------------------------------------

@dataclass(frozen=True)
class Digest:
    """What a node submits: the final seed and the final state root.

    Consensus groups digests by root alone; seeds feed the reward split.
    """

    seed: bytes
    root: MerkleRoot

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
    updates: list = []
    last = 0
    while True:
        # subarray [last + 1, t_f], t_f the next segment's update index
        cursor, last = cursor.resume(last + 1, update_index(len(updates) + 1, seed))
        if cursor.halted:
            digest = Digest(seed=seed, root=MerkleRoot(cursor.root_bytes()))
            return digest, RiceTrace(round_index=round_index, total=last,
                                     update_indices=tuple(updates), digest=digest)
        seed = sha256(seed, cursor.root_bytes())
        updates.append(last)


# --- schedule bounds and cross-round analysis --------------------------------

def phi_bounds(trace: RiceTrace):
    """Update-count band ((k-1)k/2, k(k+1)/2] for the run's terminal exponent.

    The exponent is taken from the segment of the *last executed update* (for
    a run whose scheduled index in the final segment falls beyond T, that is
    the previous segment); with that reading the band is exact for every run.
    """
    if not trace.update_indices:
        return None
    k = exponent_of_total(trace.update_indices[-1])
    return (k - 1) * k // 2, k * (k + 1) // 2


def check_phi_bounds(trace: RiceTrace) -> bool:
    bounds = phi_bounds(trace)
    if bounds is None:
        return trace.total <= 2  # nothing executed far enough to update
    lo, hi = bounds
    return lo < trace.phi <= hi


def check_total_exponent(trace: RiceTrace) -> bool:
    """Group relation 2^k (k-2) + 2 < T <= 2^(k+1) (k-1) + 2 for k of T."""
    k = exponent_of_total(trace.total)
    return 2 ** k * (k - 2) + 2 < trace.total <= 2 ** (k + 1) * (k - 1) + 2


def strong_unmatched(traces: Sequence[RiceTrace]) -> list:
    """Per round, the strong unmatched count: how many of its update indices
    no earlier round used. A first round is vacuously all unmatched.
    """
    if len({trace.total for trace in traces}) > 1:
        raise ValueError("all rounds must execute the same instruction array")
    seen: set = set()
    counts = []
    for trace in traces:
        indices = set(trace.update_indices)
        counts.append(len(indices - seen))
        seen |= indices
    return counts
