"""Shared randomness and secret sortition, simulation-grade.

`random_gen` is the public randomness beacon: a PRF over an experiment seed
and a monotone counter, so whole experiments replay bit-exactly. Sortition
is a keyed PRF standing in for a VRF: a node is selected for an execution
set when PRF(sk, nonce), read as a uniform fraction, falls below the
per-node inclusion probability q. Selection is secret (it depends only on
the node's own sk) and independent across nodes. Each `NodeKeys` keeps the
midstate sha256(sk) from keygen, so a check hashes only the nonce, and the
test out / 2^256 < q is exact in integers as out < `sortition_bound(q)`, as
correctly rounded int/int division is monotone in the numerator. Proof
verification is simulation-grade: a registry oracle maps pk back to the
node's keys and re-runs `check_sort` on them, mimicking a real VRF's
verifiability without its cryptography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .hashing import WORD_MODULUS, be8, sha256, to_word

_SORT_PROOF_TAG = b"cicsim/sortition-proof/v1"
_SK_TAG = b"cicsim/node-sk/v1"
_PK_TAG = b"cicsim/node-pk/v1"


def random_gen(experiment_seed: bytes, counter: int) -> bytes:
    """Deterministic 32-byte beacon output for (seed, counter)."""
    return sha256(experiment_seed, be8(counter))


@dataclass(frozen=True, slots=True)
class NodeKeys:
    node_id: int
    pk: bytes
    sk: bytes
    prf: "hashlib._Hash" = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prf", hashlib.sha256(self.sk))

    def __reduce__(self):
        # hash objects do not pickle; the midstate is rebuilt from sk
        return (NodeKeys, (self.node_id, self.pk, self.sk))


def keygen(experiment_seed: bytes, node_id: int) -> NodeKeys:
    sk = sha256(_SK_TAG, experiment_seed, be8(node_id))
    return NodeKeys(node_id=node_id, pk=sha256(_PK_TAG, sk), sk=sk)


class SortResult(NamedTuple):
    """Outcome of one sortition check; `output` is None when not selected."""

    selected: bool
    output: Optional[bytes]
    proof: Optional[bytes]

    def encode(self) -> bytes:
        """Fixed-width serialization used inside commitments."""
        if not self.selected:
            return bytes(64)
        return self.output + self.proof


NOT_SELECTED = SortResult(selected=False, output=None, proof=None)


def sortition_bound(threshold_q: float) -> int:
    """The least integer X with X / 2^256 >= q, by bisection over [0, 2^256]."""
    if not 0.0 <= threshold_q <= 1.0:
        raise ValueError(f"inclusion probability out of range: {threshold_q}")
    lo, hi = 0, WORD_MODULUS
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / WORD_MODULUS >= threshold_q:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _Thresholds(dict):
    """q -> `sortition_bound(q)` as bytes that a 32-byte output is below iff
    it is below the bound: its 32-byte word, or for 2^256 33 bytes of 0xff."""

    def __missing__(self, threshold_q: float) -> bytes:
        bound = sortition_bound(threshold_q)
        if len(self) >= 1024:
            self.clear()
        self[threshold_q] = word = b"\xff" * 33 if bound == WORD_MODULUS else to_word(bound)
        return word


_THRESHOLDS = _Thresholds()


def check_sort(keys: NodeKeys, nonce: bytes, threshold_q: float) -> SortResult:
    """Secret self-check of execution-set membership for one transaction.

    Selected iff PRF(sk, nonce) as a fraction of 2^256 is below q. The
    output doubles as the node's round-specific pseudorandom tag; the proof
    is re-derivable only with sk (or, in simulation, via the oracle).
    """
    prf = keys.prf.copy()
    prf.update(nonce)
    output = prf.digest()
    if output < _THRESHOLDS[threshold_q]:
        return SortResult(True, output, sha256(_SORT_PROOF_TAG, keys.sk, nonce))
    return NOT_SELECTED


class SortitionOracle:
    """Simulator-held registry standing in for VRF proof verification.

    Holds the pk -> `NodeKeys` map; verification re-runs `check_sort` on the
    registered keys and accepts a selected claim only if it is exactly that
    result. Nothing outside the oracle ever needs another node's sk.
    """

    def __init__(self) -> None:
        self._by_pk: dict = {}

    def register(self, keys: NodeKeys) -> None:
        existing = self._by_pk.get(keys.pk)
        if existing is not None and existing.sk != keys.sk:
            raise ValueError("pk already registered with a different sk")
        self._by_pk[keys.pk] = keys

    def verify(self, pk: bytes, nonce: bytes, threshold_q: float,
               result: SortResult) -> bool:
        keys = self._by_pk.get(pk)
        return (keys is not None and result.selected
                and check_sort(keys, nonce, threshold_q) == result)
