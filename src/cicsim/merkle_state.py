"""Merkle-committed key-value contract state.

A contract state is the triple (cid, code, storage): a 256-bit contract
identity, an immutable 256-bit program reference, and a map of 256-bit keys
to 256-bit values. The state root is a binary Merkle tree over the sorted
storage entries, bound to (cid, code). Equal contents give equal roots, any
single write changes the root, and inclusion of any (key, value) pair can be
proven against the root.

Tree shape: leaves are sha256(key || value) over keys in ascending byte
order; internal nodes are sha256(left || right); an odd node is promoted
unchanged to the next level. The root of empty storage is a fixed sentinel.
The full root is sha256(cid || code || storage_root).

`storage_root` computes the storage root from scratch. `StorageTree` keeps
every level of the tree between calls, for a single owner whose storage
changes a few keys at a time (the interpreter cursor, at each RICE seed
update): given the keys written since its last root, it rehashes only the
paths above rewritten leaves and, where keys were inserted, the nodes whose
positions shifted. Its root is the same function of storage as
`storage_root`.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .hashing import WORD_BYTES, as_word, sha256

EMPTY_STORAGE_ROOT = sha256(b"cicsim/empty-storage-tree/v1")
ZERO_WORD = bytes(WORD_BYTES)


@dataclass(frozen=True)
class MerkleRoot:
    """A 256-bit state commitment."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != WORD_BYTES:
            raise ValueError("a root is exactly 32 bytes")

    def hex(self) -> str:
        return self.value.hex()

    def __bytes__(self) -> bytes:
        return self.value


def _parents(level: list[bytes]) -> list[bytes]:
    """The level above `level`: pairs are hashed, an odd last node is
    promoted. On the slice `level[2 * lo:2 * hi]` it gives nodes lo..hi-1."""
    nxt = [sha256(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
    if len(level) % 2:
        nxt.append(level[-1])
    return nxt


def _tree_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """All tree levels bottom-up; the root is the one node of the last
    level when there are leaves."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        levels.append(_parents(levels[-1]))
    return levels


def storage_root(storage: Mapping[bytes, bytes]) -> bytes:
    if not storage:
        return EMPTY_STORAGE_ROOT
    leaves = [sha256(k, storage[k]) for k in sorted(storage)]
    return _tree_levels(leaves)[-1][0]


class StorageTree:
    """The storage tree of one mutable storage map, kept between roots.

    The first `root` call builds the tree from all of storage. Each later
    call is told which keys were written since the previous one; keys are
    never removed. A rewritten key rehashes its leaf and its path to the
    root. Inserted keys go in by bisection: their leaves are hashed and every
    node right of the first inserted position is recomputed, because
    positions shift; nodes to its left, and the leaves of unchanged keys,
    are kept.
    """

    __slots__ = ("keys", "levels")

    def __init__(self):
        self.keys: list[bytes] = []
        self.levels: list[list[bytes]] | None = None

    def root(self, storage: Mapping[bytes, bytes], written) -> bytes:
        """Storage root of `storage`, which differs from the storage of the
        previous call only at the keys in `written`."""
        if self.levels is None:
            self.keys = sorted(storage)
            self.levels = _tree_levels([sha256(k, storage[k]) for k in self.keys])
        elif written:
            self._refresh(storage, written)
        return self.levels[-1][0] if self.keys else EMPTY_STORAGE_ROOT

    def _refresh(self, storage: Mapping[bytes, bytes], written) -> None:
        keys, levels = self.keys, self.levels
        leaves = levels[0]
        rewritten, fresh = [], []
        for k in written:
            i = bisect_left(keys, k)
            if i < len(keys) and keys[i] == k:
                rewritten.append(i)
            else:
                fresh.append(k)
        # from position `start` of a level on, every node is recomputed; left
        # of it, only the nodes in `runs`
        start = len(keys)
        if fresh:
            fresh_set = set(fresh)
            start = bisect_left(keys, min(fresh))
            old = iter(leaves[start:])
            tail = sorted(keys[start:] + fresh)
            new_leaves = []
            for k in tail:
                leaf = None if k in fresh_set else next(old)
                new_leaves.append(sha256(k, storage[k]) if k in written else leaf)
            keys[start:] = tail
            leaves[start:] = new_leaves
        # sorted, disjoint runs [lo, hi) of rewritten positions left of `start`
        runs = []
        for i in sorted(rewritten):
            if i >= start:
                break
            leaves[i] = sha256(keys[i], storage[keys[i]])
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        level = 0
        while len(levels[level]) > 1:
            prev = levels[level]
            if level + 1 == len(levels):
                levels.append([])
            nxt = levels[level + 1]
            if start < len(prev):
                start >>= 1
                nxt[start:] = _parents(prev[2 * start:])
            else:
                start = len(nxt)
            up = []
            for lo, hi in runs:
                lo, hi = lo >> 1, min((hi + 1) >> 1, start)
                if up and up[-1][1] >= lo:
                    up[-1][1] = hi
                elif lo < hi:
                    up.append([lo, hi])
            for lo, hi in up:
                nxt[lo:hi] = _parents(prev[2 * lo:2 * hi])
            runs = up
            level += 1


class CicState:
    """Contract state with value semantics: writes return a new snapshot.

    Snapshots share no mutable structure, so a state may be handed to any
    number of concurrent readers. The root is computed lazily and cached.
    """

    __slots__ = ("cid", "code", "_storage", "_root")

    def __init__(self, cid: "int | bytes", code: "int | bytes",
                 storage: Mapping[bytes, bytes] | None = None):
        self.cid = as_word(cid)
        self.code = as_word(code)
        self._storage: dict[bytes, bytes] = dict(storage) if storage else {}
        self._root: MerkleRoot | None = None

    @property
    def storage(self) -> Mapping[bytes, bytes]:
        return dict(self._storage)

    def get(self, key: "int | bytes") -> bytes:
        return self._storage.get(as_word(key), ZERO_WORD)

    def put(self, key: "int | bytes", value: "int | bytes") -> "CicState":
        new = CicState(self.cid, self.code, self._storage)
        new._storage[as_word(key)] = as_word(value)
        return new

    def put_many(self, items: Mapping[bytes, bytes]) -> "CicState":
        new = CicState(self.cid, self.code, self._storage)
        for k, v in items.items():
            new._storage[as_word(k)] = as_word(v)
        return new

    def keys(self) -> Iterator[bytes]:
        return iter(sorted(self._storage))

    def __len__(self) -> int:
        return len(self._storage)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CicState):
            return NotImplemented
        return (self.cid == other.cid and self.code == other.code
                and self._storage == other._storage)

    def root(self) -> MerkleRoot:
        if self._root is None:
            self._root = MerkleRoot(sha256(self.cid, self.code, storage_root(self._storage)))
        return self._root


def root(state: CicState) -> MerkleRoot:
    """Canonical digest of a state; insertion-order independent."""
    return state.root()


@dataclass(frozen=True)
class InclusionProof:
    """Audit path for one storage entry, leaf to storage root.

    Each step is (sibling_hash, sibling_is_right). Levels where the node was
    promoted without a sibling contribute no step.
    """

    key: bytes
    value: bytes
    path: tuple = field(default_factory=tuple)


def prove_inclusion(state: CicState, key: "int | bytes") -> InclusionProof:
    key = as_word(key)
    items = sorted(state.storage)
    if key not in items:
        raise KeyError(f"key not in storage: {key.hex()}")
    value = state.get(key)
    levels = _tree_levels([sha256(k, state.get(k)) for k in items])
    idx = items.index(key)
    path = []
    for level in levels[:-1]:
        sibling = idx ^ 1
        if sibling < len(level):
            path.append((level[sibling], bool(sibling > idx)))
        idx //= 2
    return InclusionProof(key=key, value=value, path=tuple(path))


def verify_inclusion(state_root_: MerkleRoot, cid: "int | bytes", code: "int | bytes",
                     proof: InclusionProof) -> bool:
    node = sha256(proof.key, proof.value)
    for sibling, sibling_is_right in proof.path:
        node = sha256(node, sibling) if sibling_is_right else sha256(sibling, node)
    return sha256(as_word(cid), as_word(code), node) == state_root_.value


def dump_fixture(state: CicState) -> str:
    """Canonical JSON fixture: sorted hex keys, 64 hex chars per word."""
    doc = {
        "cid": state.cid.hex(),
        "code": state.code.hex(),
        "storage": {k.hex(): state.get(k).hex() for k in sorted(state.storage)},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_fixture(text: str) -> CicState:
    doc = json.loads(text)
    storage = {bytes.fromhex(k): bytes.fromhex(v) for k, v in doc["storage"].items()}
    return CicState(bytes.fromhex(doc["cid"]), bytes.fromhex(doc["code"]), storage)
