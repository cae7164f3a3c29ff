"""SHA-256 helpers and fixed-width word encoding.

Every hash in the simulator is a single SHA-256 over the byte-exact
concatenation of fixed-width 32-byte operands, so digests are reproducible
across platforms and languages.
"""

from __future__ import annotations

import hashlib

WORD_BYTES = 32
WORD_BITS = 256
WORD_MODULUS = 1 << WORD_BITS
WORD_MASK = WORD_MODULUS - 1


def sha256(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def to_word(value: int) -> bytes:
    """Encode a non-negative integer as a 32-byte big-endian word."""
    if not 0 <= value < WORD_MODULUS:
        raise ValueError(f"value out of 256-bit range: {value}")
    return value.to_bytes(WORD_BYTES, "big")


def from_word(word: bytes) -> int:
    if len(word) != WORD_BYTES:
        raise ValueError(f"expected {WORD_BYTES} bytes, got {len(word)}")
    return int.from_bytes(word, "big")


def as_word(value: "int | bytes") -> bytes:
    """Coerce an int or a 32-byte string to the canonical word encoding."""
    if isinstance(value, bytes):
        if len(value) != WORD_BYTES:
            raise ValueError(f"expected {WORD_BYTES} bytes, got {len(value)}")
        return value
    return to_word(value)


def be8(value: int) -> bytes:
    """8-byte big-endian counter encoding, used for PRF inputs."""
    return value.to_bytes(8, "big")


def first_bits(word: bytes, k: int) -> int:
    """Big-endian integer formed by the first k bits of a 32-byte word."""
    if not 1 <= k <= WORD_BITS:
        raise ValueError(f"bit count out of range: {k}")
    return int.from_bytes(word, "big") >> (WORD_BITS - k)
