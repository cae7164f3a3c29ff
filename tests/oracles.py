"""Independent second implementations used as test oracles.

Everything here is deliberately written in a different style from the
library (recursion instead of iteration, direct simulation instead of
closed forms) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# --- recursive Merkle builder over sorted items --------------------------------

def merkle_root_oracle(cid: bytes, code: bytes, storage: dict) -> bytes:
    def level_up(nodes):
        if len(nodes) == 1:
            return nodes[0]
        paired = [sha(nodes[i] + nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
        if len(nodes) % 2 == 1:
            paired.append(nodes[-1])
        return level_up(paired)

    if storage:
        leaves = [sha(k + v) for k, v in sorted(storage.items())]
        tree = level_up(leaves)
    else:
        tree = sha(b"cicsim/empty-storage-tree/v1")
    return sha(cid + code + tree)


def inclusion_path_oracle(storage: dict, key: bytes) -> tuple:
    """Audit path of `key`, leaf to storage root, rebuilt from scratch: a
    (sibling, sibling_is_right) step per level where the node has a sibling."""
    def climb(nodes, idx):
        if len(nodes) == 1:
            return ()
        sibling = idx + 1 if idx % 2 == 0 else idx - 1
        step = ((nodes[sibling], sibling > idx),) if sibling < len(nodes) else ()
        parents = [sha(nodes[i] + nodes[i + 1]) if i + 1 < len(nodes) else nodes[i]
                   for i in range(0, len(nodes), 2)]
        return step + climb(parents, idx // 2)

    keys = sorted(storage)
    return climb([sha(k + storage[k]) for k in keys], keys.index(key))


# --- naive single-step interpreter for the same ISA -----------------------------

MASK = (1 << 256) - 1


def _oracle_steps(instructions, entry: int, storage: dict, data: bytes):
    """Yield (pc, regs, storage, steps, halted) after every instruction,
    ending with the halt. The yielded registers and storage are live."""
    regs = [0] * 16
    words = [data[i:i + 32].ljust(32, b"\0") for i in range(0, len(data), 32)]
    for i, w in enumerate(words):
        regs[8 + i] = int.from_bytes(w, "big")
    store = dict(storage)
    pc = entry
    steps = 0
    while True:
        op, a, b, c = instructions[pc]
        steps += 1
        pc += 1
        if op == 0:        # const
            regs[a] = b
        elif op == 1:      # mov
            regs[a] = regs[b]
        elif op == 2:
            regs[a] = (regs[b] + regs[c]) & MASK
        elif op == 3:
            regs[a] = (regs[b] - regs[c]) & MASK
        elif op == 4:
            regs[a] = (regs[b] * regs[c]) & MASK
        elif op == 5:
            regs[a] = regs[b] % regs[c] if regs[c] else 0
        elif op == 6:
            regs[a] = regs[b] ^ regs[c]
        elif op == 7:
            regs[a] = regs[b] & regs[c]
        elif op == 8:
            regs[a] = int(regs[b] < regs[c])
        elif op == 9:
            regs[a] = int(regs[b] == regs[c])
        elif op == 10:     # jmp
            pc = a
        elif op == 11:     # jnz
            if regs[a]:
                pc = b
        elif op == 12:     # load
            store_key = regs[b].to_bytes(32, "big")
            regs[a] = int.from_bytes(store.get(store_key, b"\0" * 32), "big")
        elif op == 13:     # store
            store[regs[a].to_bytes(32, "big")] = regs[b].to_bytes(32, "big")
        elif op == 14:     # hash
            regs[a] = int.from_bytes(sha(regs[b].to_bytes(32, "big")), "big")
        else:              # halt
            yield pc, regs, store, steps, True
            return
        yield pc, regs, store, steps, False


def run_program_oracle(instructions, entry: int, storage: dict, data: bytes,
                       max_steps: int = 10_000_000):
    """Step-by-step re-interpretation; returns (storage, executed_count).

    `storage` maps 32-byte keys to 32-byte values and is copied, not shared.
    """
    for _, _, store, steps, halted in _oracle_steps(instructions, entry, storage, data):
        if halted:
            return store, steps
        if steps >= max_steps:
            break
    raise AssertionError("oracle exceeded the step budget")


def oracle_state_after(instructions, entry: int, storage: dict, data: bytes, k: int):
    """(pc, regs, storage, steps) after the first k >= 1 instructions, or
    after the halt if it comes sooner; copies, not live."""
    for pc, regs, store, steps, halted in _oracle_steps(instructions, entry, storage, data):
        if steps == k or halted:
            return pc, list(regs), dict(store), steps


# --- sortition by the float rule -------------------------------------------------

SORT_PROOF_TAG = b"cicsim/sortition-proof/v1"


def sortition_oracle(sk: bytes, nonce: bytes, q: float):
    """(selected, output, proof): selected iff sha256(sk || nonce), read as a
    float fraction of 2^256, is below q; output and proof only if selected."""
    output = sha(sk + nonce)
    if int.from_bytes(output, "big") / 2 ** 256 < q:
        return True, output, sha(SORT_PROOF_TAG + sk + nonce)
    return False, None, None


# --- direct evaluation of the threshold and round formulas ----------------------

def threshold_oracle(m: int, q: float, f_max: float, beta: float) -> float:
    return (math.log((1 - beta) / beta)
            * (2 * q * (1 - q) * m * (1 - f_max) * f_max)
            / ((1 - f_max) - f_max))


def expected_rounds_oracle(m: int, q: float, beta: float, f: float) -> float:
    mu_h = q * (1 - f) * m
    mu_b = q * f * m
    v_h = mu_h * (1 - q)
    v_b = mu_b * (1 - q)
    top = (1 - beta) * math.log((1 - beta) / beta) + beta * math.log(beta / (1 - beta))
    bottom = ((mu_h - mu_b) ** 2 + v_h - v_b) / (2 * v_b) + math.log(math.sqrt(v_b / v_h))
    return top / bottom


def one_round_size_oracle(m: int, f_max: float, beta: float,
                          steps: int = 400) -> float:
    """Bisection on q for (qM)^2 = threshold(q); returns q*M."""
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (mid * m) ** 2 > threshold_oracle(m, mid, f_max, beta):
            hi = mid
        else:
            lo = mid
    return hi * m


# --- exact coalition threshold probabilities ------------------------------------

def gamma_oracle(m: int, q: float, th1: float, th2: float, coalition: int):
    """Exact P(inside > th1 * size) and P(inside < th2 * size) by summing the
    product of the two binomial pmfs."""
    from scipy.stats import binom

    import numpy as np

    a = np.arange(coalition + 1)
    pa = binom.pmf(a, coalition, q)
    b = np.arange(m - coalition + 1)
    pb = binom.pmf(b, m - coalition, q)
    gamma1 = gamma2 = 0.0
    for inside, p_inside in zip(a, pa):
        size = inside + b
        gamma1 += p_inside * pb[inside > th1 * size].sum()
        gamma2 += p_inside * pb[inside < th2 * size].sum()
    return float(gamma1), float(gamma2)


# --- schedule recomputation by brute cumulative sums ----------------------------

def segment_table_oracle(limit: int):
    """(start, exponent) for every segment up to dynamic index `limit`,
    built by literally walking k = 1,2,2,3,3,3,..."""
    table = []
    start = 1
    k = 1
    repeat = 1
    while start <= limit:
        table.append((start, k))
        start += 2 ** k
        repeat -= 1
        if repeat == 0:
            k += 1
            repeat = k
    return table


def rice_round_oracle(total: int, root_at, round_index: int, entropy: bytes):
    """One RICE round over a run of `total` instructions whose state root
    after index t is `root_at(t)`: walk the segment table, put each update at
    the segment start plus the seed's first k bits, and absorb the root there
    into the seed, until an update would fall at or past the halt. Returns
    (final seed, final root, update indices)."""
    seed = entropy
    for _ in range(round_index - 1):
        seed = sha(seed)
    updates = []
    for start, k in segment_table_oracle(total):
        index = start + (int.from_bytes(seed, "big") >> (256 - k))
        if index >= total:
            break
        seed = sha(seed + root_at(index))
        updates.append(index)
    return seed, root_at(total), updates


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


# --- canonical event encoding ---------------------------------------------------

def canonical_line(event: dict) -> str:
    """An event's log line by the definition: plain `json.dumps`."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


# --- likelihood property batches (vectorized) ---------------------------------

def random_tally_batch(rng: np.random.Generator, trials: int, max_roots: int = 5,
                       max_rounds: int = 6, scale: int = 200):
    """Random per-round counts, shape (trials, rounds, roots)."""
    n_rounds = int(rng.integers(1, max_rounds + 1))
    n_roots = int(rng.integers(2, max_roots + 1))
    return rng.integers(0, scale, size=(trials, n_rounds, n_roots)).astype(np.int64)


def scores_from_counts(counts: np.ndarray) -> np.ndarray:
    """Integer scores (2 c - C) C summed over rounds, per trial and root."""
    totals = counts.sum(axis=2, keepdims=True)
    return ((2 * counts - totals) * totals).sum(axis=1)


def count_double_crossings(counts: np.ndarray, gate: float) -> int:
    """Trials where two roots' running scores exceed the gate at the same
    round (must be zero for any positive gate)."""
    totals = counts.sum(axis=2, keepdims=True)
    increments = (2 * counts - totals) * totals
    running = np.cumsum(increments, axis=1)
    return int((np.sum(running > gate, axis=2) >= 2).sum())


def merged_vs_split_margin(counts_split: np.ndarray) -> np.ndarray:
    """Per-trial margin (merged-root score) - max(split incorrect scores)
    when the first root is honest and the rest merge their counts."""
    honest = counts_split[:, :, :1]
    bad = counts_split[:, :, 1:]
    merged = np.concatenate([honest, bad.sum(axis=2, keepdims=True)], axis=2)
    split_max = scores_from_counts(counts_split)[:, 1:].max(axis=1)
    merged_score = scores_from_counts(merged)[:, 1]
    return merged_score - split_max


# --- exact first passage of the two-root consensus walk -------------------------

def walk_increment_pmf(n_hon: int, n_byz: int, q: float):
    """(lowest value, pmf) of one round's increment nh^2 - nb^2 of the
    two-root score walk, for independent nh ~ Bin(n_hon, q) and
    nb ~ Bin(n_byz, q), by summing the product of the two pmfs over every
    pair of counts. Counts of probability below 1e-24 are left out: the
    binomial tails fall off geometrically, so what is dropped is of that
    order."""
    from scipy.stats import binom

    def counts(n):
        pmf = binom.pmf(np.arange(n + 1), n, q)
        k = np.flatnonzero(pmf >= 1e-24)
        return k, pmf[k]

    (kh, ph), (kb, pb) = counts(n_hon), counts(n_byz)
    values = (kh[:, None] ** 2 - kb[None, :] ** 2).ravel()
    low = int(values.min())
    return low, np.bincount(values - low, weights=np.outer(ph, pb).ravel())


def walk_first_passage(m: int, q: float, f_max: float, beta: float, f: float,
                       max_rounds: int = 100):
    """Exact round-count law of the two-root walk with no sampling.

    The walk starts at 0 and continues while |walk| <= threshold; each round
    the pmf of the undecided walk is convolved (scipy FFT) with the
    increment pmf, and the mass beyond +threshold is accepted for the right
    root, the mass beyond -threshold for the wrong one. Returns
    (p_right, p_wrong, undecided): per-round first-passage probabilities
    for rounds 1, 2, ... and the mass still undecided after `max_rounds`.
    Stops early once the undecided mass falls below 1e-18. FFT rounding
    leaves a noise floor near 1e-16 on every returned probability."""
    from scipy import fft

    gate = threshold_oracle(m, q, f_max, beta)
    if gate < 0:
        raise ValueError("the walk oracle needs a non-negative threshold")
    n_byz = round(f * m)
    low, step = walk_increment_pmf(m - n_byz, n_byz, q)
    top = math.floor(gate)                      # undecided walk values: -top..top
    undecided = np.zeros(2 * top + 1)
    undecided[top] = 1.0
    size = undecided.size + step.size - 1
    n = fft.next_fast_len(size, real=True)
    step_hat = fft.rfft(step, n)
    value = np.arange(size) - top + low         # walk value of each convolved entry
    above, below = value > top, value < -top
    inside = ~(above | below)
    p_right, p_wrong = [], []
    for _ in range(max_rounds):
        moved = fft.irfft(fft.rfft(undecided, n) * step_hat, n)[:size]
        p_right.append(float(moved[above].sum()))
        p_wrong.append(float(moved[below].sum()))
        undecided = np.zeros(2 * top + 1)
        undecided[value[inside] + top] = moved[inside]
        if undecided.sum() < 1e-18:
            break
    return np.array(p_right), np.array(p_wrong), float(max(undecided.sum(), 0.0))
