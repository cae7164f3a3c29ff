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
verification is simulation-grade: a registry oracle maps pk back to sk and
re-derives, mimicking a real VRF's verifiability without its cryptography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .hashing import WORD_MODULUS, be8, sha256

_SORT_PROOF_TAG = b"cicsim/sortition-proof/v1"
_SK_TAG = b"cicsim/node-sk/v1"
_PK_TAG = b"cicsim/node-pk/v1"


def random_gen(experiment_seed: bytes, counter: int) -> bytes:
    """Deterministic 32-byte beacon output for (seed, counter)."""
    return sha256(experiment_seed, be8(counter))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SortResult:
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


@lru_cache(maxsize=1024)
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


def check_sort(keys: NodeKeys, nonce: bytes, threshold_q: float) -> SortResult:
    """Secret self-check of execution-set membership for one transaction.

    Selected iff PRF(sk, nonce) as a fraction of 2^256 is below q. The
    output doubles as the node's round-specific pseudorandom tag; the proof
    is re-derivable only with sk (or, in simulation, via the oracle).
    """
    prf = keys.prf.copy()
    prf.update(nonce)
    output = prf.digest()
    if int.from_bytes(output, "big") < sortition_bound(threshold_q):
        return SortResult(selected=True, output=output,
                          proof=sha256(_SORT_PROOF_TAG, keys.sk, nonce))
    return NOT_SELECTED


class SortitionOracle:
    """Simulator-held registry standing in for VRF proof verification.

    Holds the pk -> sk map; verification re-derives the sortition output and
    proof from sk and checks the selection condition. Nothing outside the
    oracle ever needs another node's sk.
    """

    def __init__(self) -> None:
        self._by_pk: dict = {}

    def register(self, keys: NodeKeys) -> None:
        existing = self._by_pk.get(keys.pk)
        if existing is not None and existing != keys.sk:
            raise ValueError("pk already registered with a different sk")
        self._by_pk[keys.pk] = keys.sk

    def verify(self, pk: bytes, nonce: bytes, threshold_q: float,
               result: SortResult) -> bool:
        sk = self._by_pk.get(pk)
        if sk is None or not result.selected:
            return False
        expected = sha256(sk, nonce)
        return (result.output == expected
                and result.proof == sha256(_SORT_PROOF_TAG, sk, nonce)
                and int.from_bytes(expected, "big") < sortition_bound(threshold_q))
