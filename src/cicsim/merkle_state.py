"""Merkle-committed key-value contract state.

A contract state is the triple (cid, code, storage): a 256-bit contract
identity, an immutable 256-bit program reference, and a map of 256-bit keys
to 256-bit values. The state root is a binary Merkle tree over the sorted
storage entries, bound to (cid, code). Equal contents give equal roots, any
single write changes the root, and inclusion of any (key, value) pair can be
proven against the root.

Tree shape: leaves are sha256(key || value) over keys in ascending order;
internal nodes are sha256(left || right); an odd node is promoted unchanged
to the next level. The root of empty storage is a fixed sentinel. The full
root is sha256(cid || code || storage_root).

`CicState`, `StorageTree` and the interpreter cursor all hold storage as
words, int keys to int values. Keys and values are 32-byte big-endian words
only at the edges: where they come in, where they are handed out, and in
`_word_leaf`, the one leaf encoding; ints sort as those encodings do.
`StorageTree` is the one tree algorithm. It keeps every level between
calls and, given the keys written since its last root, rehashes the paths
above rewritten leaves and recomputes, level by level, the tail of nodes
whose positions an insert shifted. A tree is built by inserting every key
into an empty one: `storage_root` does so from scratch, and a `CicState`
keeps the tree it builds for its proofs and cursors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

from .hashing import WORD_BYTES, as_word, from_word, sha256, to_word

EMPTY_STORAGE_ROOT = sha256(b"cicsim/empty-storage-tree/v1")


@dataclass(frozen=True)
class MerkleRoot:
    """A 256-bit state commitment."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != WORD_BYTES:
            raise ValueError("a root is exactly 32 bytes")

    def hex(self) -> str:
        return self.value.hex()


def _parents(level: list[bytes]) -> list[bytes]:
    """The level above `level`: pairs are hashed, an odd last node is
    promoted. On the slice `level[2 * lo:]` it gives the nodes from lo on."""
    nxt = [sha256(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
    if len(level) % 2:
        nxt.append(level[-1])
    return nxt


def _word_leaf(key: int, value: int) -> bytes:
    """The leaf of an entry: sha256 of its key and value as 32-byte words,
    `to_word`'s encoding inlined."""
    return sha256(key.to_bytes(WORD_BYTES, "big"), value.to_bytes(WORD_BYTES, "big"))


def storage_root(words: Mapping[int, int]) -> bytes:
    """The storage root of `words` (int keys to int values), from scratch."""
    return StorageTree([], [[]]).root(words, words)


class StorageTree:
    """The storage tree of one mutable storage map, kept between roots.

    It holds the sorted keys and every level of the tree, and starts empty
    or from another tree's copy. Each `root` call is told which keys were
    written since the previous one, or the start; keys are never removed.
    Written keys go in by bisection, in ascending order: a present key's
    leaf is rehashed and its position marked dirty, a new key's leaf is
    inserted. Dirty positions move up a level at a time, each dirty parent
    rehashed in place. From the first inserted position on, positions
    shift, so every node of each level is recomputed as a slice.
    """

    __slots__ = ("keys", "levels")

    def __init__(self, keys: list[int], levels: list[list[bytes]]):
        self.keys = keys
        self.levels = levels

    def root(self, storage: Mapping[int, int], written) -> bytes:
        """Storage root of `storage`, which differs from the storage of the
        previous call, or the start, only at the keys in `written`."""
        if written:
            self._refresh(storage, written)
        return self.levels[-1][0] if self.keys else EMPTY_STORAGE_ROOT

    def _refresh(self, storage: Mapping[int, int], written) -> None:
        keys, levels = self.keys, self.levels
        leaves = levels[0]
        # in ascending order, an insert shifts no position taken before it;
        # from position `start` of a level on, every node is recomputed, and
        # left of it only the `dirty` ones
        dirty, start = set(), len(keys)
        for k in sorted(written):
            i = bisect_left(keys, k)
            if i < len(keys) and keys[i] == k:
                dirty.add(i)
            else:
                keys.insert(i, k)
                leaves.insert(i, b"")
                start = min(start, i)
            leaves[i] = _word_leaf(k, storage[k])
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
            dirty = {i >> 1 for i in dirty if i >> 1 < start}
            last = len(prev) - 1
            for p in dirty:
                i = 2 * p
                nxt[p] = sha256(prev[i], prev[i + 1]) if i < last else prev[i]
            level += 1


class CicState:
    """Contract state with value semantics: writes return a new snapshot.

    Snapshots share no mutable structure, so a state may be handed to any
    number of concurrent readers. The root is computed lazily and cached.
    Storage is held once, as words. Keys and values are checked as they come
    in (`ValueError` unless 32-byte strings, or ints of 256 bits outside the
    constructor) and go out as 32-byte words. A state keeps the `StorageTree`
    it builds on first use; proofs read it and each cursor copies it.
    """

    __slots__ = ("cid", "code", "_words", "_root", "_tree")

    def __init__(self, cid: "int | bytes", code: "int | bytes",
                 storage: Mapping[bytes, bytes] | None = None):
        self.cid = as_word(cid)
        self.code = as_word(code)
        if storage and not all(isinstance(w, bytes) and len(w) == WORD_BYTES
                               for w in chain(storage, storage.values())):
            raise ValueError(f"storage keys and values must be {WORD_BYTES}-byte words")
        self._words = {from_word(k): from_word(v) for k, v in storage.items()} if storage else {}
        self._root: MerkleRoot | None = None
        self._tree: StorageTree | None = None

    @property
    def storage(self) -> Mapping[bytes, bytes]:
        return {to_word(k): to_word(v) for k, v in self._words.items()}

    def get(self, key: "int | bytes") -> bytes:
        return to_word(self._words.get(from_word(as_word(key)), 0))

    def put(self, key: "int | bytes", value: "int | bytes") -> "CicState":
        return self.put_many({key: value})

    def put_many(self, items: "Mapping[int | bytes, int | bytes]") -> "CicState":
        new = CicState(self.cid, self.code)
        new._words = {**self._words,
                      **{from_word(as_word(k)): from_word(as_word(v)) for k, v in items.items()}}
        return new

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CicState):
            return NotImplemented
        return (self.cid == other.cid and self.code == other.code
                and self._words == other._words)

    def root(self) -> MerkleRoot:
        if self._root is None:
            self._root = MerkleRoot(sha256(self.cid, self.code, storage_root(self._words)))
        return self._root

    def _kept(self) -> StorageTree:
        if self._tree is None:
            self._tree = StorageTree([], [[]])
            self._tree.root(self._words, self._words)
        return self._tree

    def working_copy(self) -> "tuple[dict[int, int], StorageTree]":
        """Copies of the storage as words and of the kept tree, for a cursor to change."""
        tree = self._kept()
        return dict(self._words), StorageTree(list(tree.keys), [list(level) for level in tree.levels])


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
    key = from_word(as_word(key))
    if key not in state._words:
        raise KeyError(f"key not in storage: {to_word(key).hex()}")
    tree = state._kept()
    idx = bisect_left(tree.keys, key)
    path = []
    for level in tree.levels[:-1]:
        sibling = idx ^ 1
        if sibling < len(level):
            path.append((level[sibling], bool(sibling > idx)))
        idx //= 2
    return InclusionProof(key=to_word(key), value=to_word(state._words[key]), path=tuple(path))


def verify_inclusion(state_root_: MerkleRoot, cid: "int | bytes", code: "int | bytes",
                     proof: InclusionProof) -> bool:
    node = sha256(proof.key, proof.value)
    for sibling, sibling_is_right in proof.path:
        node = sha256(node, sibling) if sibling_is_right else sha256(sibling, node)
    return sha256(as_word(cid), as_word(code), node) == state_root_.value
