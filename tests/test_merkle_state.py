"""Merkle state: root determinism, write sensitivity, proofs, the kept tree."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cicsim import merkle_state
from cicsim.hashing import as_word, from_word, sha256, to_word
from cicsim.merkle_state import (CicState, EMPTY_STORAGE_ROOT, MerkleRoot,
                                 StorageTree, prove_inclusion, storage_root,
                                 verify_inclusion)
from cicsim.toy_vm import compute_program

from oracles import inclusion_path_oracle, merkle_root_oracle, sha, tree_rehash_count


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
    assert once.root() == twice.root()


def test_different_values_change_the_root():
    a = CicState(1, 2).put(10, 1)
    b = CicState(1, 2).put(10, 2)
    assert a.root() != b.root()
    # oracle recomputation of both trees
    assert a.root().value == merkle_root_oracle(a.cid, a.code, dict(a.storage))
    assert b.root().value == merkle_root_oracle(b.cid, b.code, dict(b.storage))


def test_empty_root_is_the_defined_constant():
    assert storage_root({}) == EMPTY_STORAGE_ROOT
    assert CicState(1, 2).root().value == sha(to_word(1) + to_word(2) + EMPTY_STORAGE_ROOT)


def test_insertion_order_is_irrelevant():
    ab = CicState(1, 2).put(b"\x00" * 31 + b"a", 1).put(b"\x00" * 31 + b"b", 2)
    ba = CicState(1, 2).put(b"\x00" * 31 + b"b", 2).put(b"\x00" * 31 + b"a", 1)
    assert ab.root() == ba.root()


def test_three_key_fixture_matches_independent_builder():
    state = make_state(**{"3": 30, "1": 10, "2": 20})
    assert state.root().value == merkle_root_oracle(state.cid, state.code,
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
    assert state.root().value == expected


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
                       min_size=1, max_size=9))
def test_every_key_proves_inclusion(items):
    state = CicState(3, 4)
    for k, v in items.items():
        state = state.put(k, v)
    for k in items:
        proof = prove_inclusion(state, k)
        assert verify_inclusion(state.root(), state.cid, state.code, proof)


def test_tampered_proof_fails():
    state = make_state(**{"1": 10, "2": 20, "3": 30})
    proof = prove_inclusion(state, 2)
    bad = MerkleRoot(sha(b"not-the-root"))
    assert not verify_inclusion(bad, state.cid, state.code, proof)
    wrong_cid = to_word(99)
    assert not verify_inclusion(state.root(), wrong_cid, state.code, proof)


@pytest.mark.parametrize("storage", [{b"k": b"v"}, {to_word(1): b"v"}, {b"\x05": to_word(5)},
                                     {to_word(1): 1}, {1: to_word(1)},
                                     {to_word(1): bytearray(32)},
                                     {to_word(1): to_word(2), to_word(2): bytes(33)}])
def test_storage_that_is_not_32_byte_words_is_rejected(storage):
    # a one-byte key would otherwise sit apart from the word it encodes: the
    # interpreter holds storage as ints, where the two are the same key
    with pytest.raises(ValueError, match="32-byte words"):
        CicState(1, 2, storage)


def test_put_coerces_to_words():
    state = CicState(1, 2, {to_word(5): to_word(6)}).put(5, 7).put_many({to_word(8): 9, 10: 11})
    assert state.storage == {to_word(5): to_word(7), to_word(8): to_word(9),
                             to_word(10): to_word(11)}
    # keys and values are checked where they come in, whether ints or bytes,
    # with the error `as_word` gives; a non-int number is no word
    for bad in (-1, 2 ** 256, b"\x05", bytes(31), bytes(33), 3.0, 1.5):
        with pytest.raises((ValueError, AttributeError)) as expected:
            as_word(bad)
        for call in (lambda: state.put(bad, 1), lambda: state.put(1, bad),
                     lambda: state.put_many({bad: 1}), lambda: state.put_many({1: 2, 3: bad}),
                     lambda: state.get(bad), lambda: prove_inclusion(state, bad)):
            with pytest.raises(type(expected.value)) as raised:
                call()
            assert str(raised.value) == str(expected.value)
    assert len(state) == 3


def test_value_semantics_snapshots_do_not_alias():
    base = make_state(**{"1": 10})
    fork = base.put(2, 20)
    assert len(base) == 1 and len(fork) == 2
    assert base.root() != fork.root()


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
    root against the oracle after every batch, and the hashes it spent
    against the count an incremental tree needs. The tree is fed the same
    writes held as words, as the interpreter cursor holds them."""
    storage = dict(initial)
    words = {from_word(k): from_word(v) for k, v in storage.items()}
    _, tree = CicState(CID, CODE, initial).working_copy()
    hashes = []

    def counting_sha256(*parts):
        hashes.append(parts)
        return sha256(*parts)

    for picks, batch in [((), {})] + list(writes):
        present = sorted(storage)
        batch = {**{present[p % len(present)]: to_word(1000 + p % 2 ** 16)
                    for p in picks if present},
                 **batch}
        storage.update(batch)
        words.update({from_word(k): from_word(v) for k, v in batch.items()})
        hashes.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(merkle_state, "sha256", counting_sha256)
            got = tree.root(words, {from_word(k) for k in batch})
        assert sha256(CID, CODE, got) == merkle_root_oracle(CID, CODE, storage)
        # a kept tree agrees with one built from scratch
        assert got == storage_root(words)
        keys = sorted(storage)
        fresh = [keys.index(k) for k in batch if k not in present]
        assert len(hashes) == tree_rehash_count(len(keys), [keys.index(k) for k in batch],
                                                min(fresh, default=len(keys)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(small_words, small_words, max_size=40), batches)
@example(initial={}, writes=[((), {to_word(3): to_word(1)}), ((), {to_word(1): to_word(2)})])
def test_storage_tree_matches_the_oracle_after_every_batch(initial, writes):
    tree_root_after_batches(initial, writes)


def test_storage_tree_inserts_before_among_and_after_odd_levels():
    # every present count from 0 to 33 (odd and even level sizes at every
    # height), with inserts left of all keys, between them and right of all,
    # rewrites alone of the first, the last and every key, ascending runs
    # that land, batch after batch, before the present keys as `rice_vm`'s
    # inserts do, a run straddling present keys, and rewrites beside inserts
    for present in range(34):
        initial = {to_word(100 + 2 * n): to_word(n) for n in range(present)}
        writes = [
            ((), {to_word(1): to_word(1)}),                                   # before all
            ((), {to_word(101 + 2 * n): to_word(7) for n in range(0, present, 3)}),  # among
            ((), {to_word(1000 + n): to_word(n) for n in range(5)}),          # after all
            ((0,), {}), ((-1,), {}), (tuple(range(present + 6)), {}),         # rewrites
            ((-1,), {to_word(0): to_word(3), to_word(100 + present): to_word(3),
                     to_word(2000): to_word(3)}),                             # all kinds
            *(((), {to_word(first + n): to_word(n) for n in range(run)})     # runs before
              for first, run in ((20, 1), (21, 2), (23, 3), (26, 5), (31, 9), (40, 17))),
            ((), {to_word(k): to_word(5) for k in (95, 103, 105, 109)}),      # straddling
            ((1, 2, -2), {to_word(97): to_word(2), to_word(99): to_word(2),
                          to_word(3000): to_word(2)}),                        # rewrites beside
        ]
        tree_root_after_batches(initial, writes)
    # from-scratch builds: one batch of every key into an empty tree
    for count in (1, 2, 3, 7, 9, 15, 17, 31, 33, 63, 65):
        tree_root_after_batches({}, [((), {to_word(3 * n): to_word(n) for n in range(count)})])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(small_words, small_words, min_size=1, max_size=40),
       st.dictionaries(small_words, small_words, max_size=8))
def test_proofs_from_the_kept_levels_match_the_oracle(items, writes):
    # the first proof builds the state's kept tree and later ones read it; a
    # state written after that builds its own
    state = CicState(CID, CODE, items)
    for later in (state, state.put_many(writes)):
        storage = later.storage
        for key in sorted(storage, reverse=True):
            proof = prove_inclusion(later, key)
            assert proof.path == inclusion_path_oracle(storage, key)
            assert (proof.key, proof.value) == (key, storage[key])
            assert verify_inclusion(later.root(), CID, CODE, proof)
    assert state.storage == items


# small ints recur as keys across draws; wide ones use all 32 bytes
any_words = st.one_of(st.integers(0, 300), st.integers(0, 2 ** 256 - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(any_words, any_words, max_size=20), st.lists(any_words, max_size=4))
def test_a_state_from_bytes_from_ints_or_from_a_cursor_is_one_state(items, probes):
    # storage comes in as a bytes map, as ints through `put_many`, or as the
    # words of an un-run cursor; all three are one state
    encoded = {to_word(k): to_word(v) for k, v in items.items()}
    from_bytes = CicState(CID, CODE, encoded)
    from_ints = CicState(CID, CODE).put_many(items)
    from_cursor = compute_program().start(from_bytes).state
    root = merkle_root_oracle(CID, CODE, encoded)
    for state in (from_bytes, from_ints, from_cursor):
        assert state == from_bytes and len(state) == len(items)
        assert state.storage == encoded
        for key in list(items) + probes:
            assert state.get(key) == state.get(to_word(key)) == to_word(items.get(key, 0))
        assert state.root().value == root
        for key in items:
            proof = prove_inclusion(state, key)
            assert proof.path == inclusion_path_oracle(encoded, to_word(key))
            assert (proof.key, proof.value) == (to_word(key), encoded[to_word(key)])
            assert verify_inclusion(state.root(), CID, CODE, proof)
