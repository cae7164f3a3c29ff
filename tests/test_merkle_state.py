"""Merkle state: root determinism, write sensitivity, proofs, fixtures."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cicsim.hashing import sha256, to_word
from cicsim.merkle_state import (CicState, EMPTY_STORAGE_ROOT, MerkleRoot,
                                 StorageTree, dump_fixture, load_fixture,
                                 prove_inclusion, root, storage_root,
                                 verify_inclusion)

from oracles import merkle_root_oracle, sha


def make_state(**items) -> CicState:
    state = CicState(1, 2)
    for k, v in items.items():
        state = state.put(int(k), v)
    return state


def test_read_after_write():
    state = CicState(1, 2).put(10, 99)
    assert state.get(10) == to_word(99)
    assert state.get(11) == bytes(32)


def test_same_write_is_idempotent_for_the_root():
    once = CicState(1, 2).put(10, 99)
    twice = once.put(10, 99)
    assert root(once) == root(twice)


def test_different_values_change_the_root():
    a = CicState(1, 2).put(10, 1)
    b = CicState(1, 2).put(10, 2)
    assert root(a) != root(b)
    # oracle recomputation of both trees
    assert root(a).value == merkle_root_oracle(a.cid, a.code, dict(a.storage))
    assert root(b).value == merkle_root_oracle(b.cid, b.code, dict(b.storage))


def test_empty_root_is_the_defined_constant():
    assert storage_root({}) == EMPTY_STORAGE_ROOT
    assert root(CicState(1, 2)).value == sha(to_word(1) + to_word(2) + EMPTY_STORAGE_ROOT)


def test_insertion_order_is_irrelevant():
    ab = CicState(1, 2).put(b"\x00" * 31 + b"a", 1).put(b"\x00" * 31 + b"b", 2)
    ba = CicState(1, 2).put(b"\x00" * 31 + b"b", 2).put(b"\x00" * 31 + b"a", 1)
    assert root(ab) == root(ba)


def test_three_key_fixture_matches_independent_builder():
    state = make_state(**{"3": 30, "1": 10, "2": 20})
    assert root(state).value == merkle_root_oracle(state.cid, state.code,
                                                   dict(state.storage))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 64), st.integers(0, 2 ** 64),
                       max_size=12),
       st.randoms(use_true_random=False))
def test_root_invariant_under_permutation_and_matches_oracle(items, rng):
    entries = list(items.items())
    rng.shuffle(entries)
    state = CicState(7, 8)
    for k, v in entries:
        state = state.put(k, v)
    expected = merkle_root_oracle(state.cid, state.code,
                                  {to_word(k): to_word(v) for k, v in items.items()})
    assert root(state).value == expected


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
                       min_size=1, max_size=9))
def test_every_key_proves_inclusion(items):
    state = CicState(3, 4)
    for k, v in items.items():
        state = state.put(k, v)
    for k in items:
        proof = prove_inclusion(state, k)
        assert verify_inclusion(root(state), state.cid, state.code, proof)


def test_tampered_proof_fails():
    state = make_state(**{"1": 10, "2": 20, "3": 30})
    proof = prove_inclusion(state, 2)
    bad = MerkleRoot(sha(b"not-the-root"))
    assert not verify_inclusion(bad, state.cid, state.code, proof)
    wrong_cid = to_word(99)
    assert not verify_inclusion(root(state), wrong_cid, state.code, proof)


def test_value_semantics_snapshots_do_not_alias():
    base = make_state(**{"1": 10})
    fork = base.put(2, 20)
    assert len(base) == 1 and len(fork) == 2
    assert root(base) != root(fork)


def test_fixture_round_trip_is_canonical():
    state = make_state(**{"5": 50, "4": 40})
    text = dump_fixture(state)
    again = load_fixture(text)
    assert again == state
    assert dump_fixture(again) == text
    assert text.index("\"cid\"") < text.index("\"storage\"")


# --- the kept tree against the from-scratch oracle --------------------------------

CID, CODE = to_word(5), to_word(6)
# a narrow key range, so inserts land before, among and after present keys
small_words = st.integers(0, 300).map(to_word)
# one batch: rewrites of present keys, picked by index into the sorted keys
# and given values no key holds yet, plus a map of keys that may or may not
# be present
batches = st.lists(st.tuples(st.lists(st.integers(0, 2 ** 16), max_size=8),
                             st.dictionaries(small_words, small_words, max_size=8)),
                   max_size=8)


def tree_root_after_batches(initial: dict, writes) -> None:
    """Apply each batch of writes to one storage map and check the tree's
    root against the oracle after every batch."""
    storage = dict(initial)
    tree = StorageTree()
    for picks, batch in [((), {})] + list(writes):
        present = sorted(storage)
        batch = {**{present[p % len(present)]: to_word(1000 + p % 2 ** 16)
                    for p in picks if present},
                 **batch}
        storage.update(batch)
        got = tree.root(storage, set(batch))
        assert sha256(CID, CODE, got) == merkle_root_oracle(CID, CODE, storage)
        assert got == storage_root(storage)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(small_words, small_words, max_size=40), batches)
@example(initial={}, writes=[((), {to_word(3): to_word(1)}), ((), {to_word(1): to_word(2)})])
def test_storage_tree_matches_the_oracle_after_every_batch(initial, writes):
    tree_root_after_batches(initial, writes)


def test_storage_tree_inserts_before_among_and_after_odd_levels():
    # every present count from 0 to 33 (odd and even level sizes at every
    # height), with inserts left of all keys, between them and right of all,
    # and rewrites alone of the first, the last and every key
    for present in range(34):
        initial = {to_word(100 + 2 * n): to_word(n) for n in range(present)}
        writes = [
            ((), {to_word(1): to_word(1)}),                                   # before all
            ((), {to_word(101 + 2 * n): to_word(7) for n in range(0, present, 3)}),  # among
            ((), {to_word(1000 + n): to_word(n) for n in range(5)}),          # after all
            ((0,), {}), ((-1,), {}), (tuple(range(present + 6)), {}),         # rewrites
            ((-1,), {to_word(0): to_word(3), to_word(100 + present): to_word(3),
                     to_word(2000): to_word(3)}),                             # all kinds
        ]
        tree_root_after_batches(initial, writes)
