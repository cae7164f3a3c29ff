"""Beacon determinism, sortition statistics, and the verification oracle."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cicsim import randomness
from cicsim.hashing import sha256
from cicsim.randomness import (NOT_SELECTED, NodeKeys, SortitionOracle, SortResult,
                               check_sort, keygen, random_gen, sortition_bound)
from oracles import SORT_PROOF_TAG, sha, sortition_oracle

SEED = sha256(b"randomness-tests")


def test_beacon_is_deterministic_and_counter_sensitive():
    assert random_gen(SEED, 0) == random_gen(SEED, 0)
    assert random_gen(SEED, 0) != random_gen(SEED, 1)
    assert random_gen(sha256(b"other"), 0) != random_gen(SEED, 0)


def test_beacon_uniformity_chi_square():
    # first byte of 1e6 draws over 256 bins at the 1% level
    draws = 1_000_000
    counts = np.zeros(256, dtype=np.int64)
    for i in range(draws):
        counts[random_gen(SEED, i)[0]] += 1
    expected = draws / 256
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < chi2.ppf(0.99, 255)


def test_sortition_extremes():
    keys = keygen(SEED, 1)
    nonce = sha256(b"nonce")
    assert check_sort(keys, nonce, 1.0).selected
    assert not check_sort(keys, nonce, 0.0).selected
    with pytest.raises(ValueError):
        check_sort(keys, nonce, 1.5)


@pytest.mark.parametrize("q", [0.0, 1e-300, 0.125, 0.5, 1 - 2 ** -53, 1.0])
def test_sortition_bound_is_the_least_integer_reaching_q(q):
    x = sortition_bound(q)
    assert x / 2 ** 256 >= q
    if x >= 1:
        assert (x - 1) / 2 ** 256 < q


@pytest.mark.parametrize("q", [-1e-300, 1.5, math.nan])
def test_sortition_bound_rejects_q_outside_the_unit_interval(q):
    with pytest.raises(ValueError):
        sortition_bound(q)


@settings(max_examples=300, deadline=None)
@given(sk=st.binary(min_size=32, max_size=32), nonce=st.binary(min_size=32, max_size=32),
       q=st.floats(0.0, 1.0), at_own_fraction=st.sampled_from([None, -1, 0, 1]))
def test_check_sort_and_verify_agree_with_the_float_rule(sk, nonce, q, at_own_fraction):
    if at_own_fraction is not None:
        # q just below, at or just above this node's own fraction, where the rule flips
        fraction = int.from_bytes(sha(sk + nonce), "big") / 2 ** 256
        q = [math.nextafter(fraction, 0.0), fraction,
             math.nextafter(fraction, 1.0)][at_own_fraction + 1]
    keys = NodeKeys(node_id=0, pk=sha(b"pk" + sk), sk=sk)
    expected = sortition_oracle(sk, nonce, q)
    result = check_sort(keys, nonce, q)
    assert (result.selected, result.output, result.proof) == expected
    # the oracle, shown the genuine output and proof, accepts iff the rule selects
    oracle = SortitionOracle()
    oracle.register(keys)
    claim = SortResult(selected=True, output=sha(sk + nonce),
                       proof=sha(SORT_PROOF_TAG + sk + nonce))
    assert oracle.verify(keys.pk, nonce, q, claim) == expected[0]


def test_node_keys_round_trip_with_their_midstate():
    keys = keygen(SEED, 7)
    nonce = sha256(b"round-trip")
    # a check copies the midstate, so it can be repeated
    assert check_sort(keys, nonce, 0.5) == check_sort(keys, nonce, 0.5)
    for twin in (pickle.loads(pickle.dumps(keys)), copy.deepcopy(keys),
                 NodeKeys(node_id=7, pk=keys.pk, sk=keys.sk)):
        assert twin == keys and hash(twin) == hash(keys)
        assert twin.prf is not keys.prf and twin.prf.digest() == keys.prf.digest()
        for j in range(64):
            n = sha256(nonce, bytes([j]))
            assert check_sort(twin, n, 0.3) == check_sort(keys, n, 0.3)
    assert repr(keys) == f"NodeKeys(node_id=7, pk={keys.pk!r}, sk={keys.sk!r})"


def test_selection_probability_and_variance():
    # E[|ES|] = 200 and Var ~ Mq(1-q) = 175 for M=1600, q=0.125
    m, q, nonces = 1600, 0.125, 2000
    all_keys = [keygen(SEED, i) for i in range(m)]
    sizes = np.empty(nonces, dtype=np.int64)
    for j in range(nonces):
        nonce = random_gen(SEED, 10_000 + j)
        sizes[j] = sum(check_sort(k, nonce, q).selected for k in all_keys)
    mean = sizes.mean()
    assert abs(mean - 200) <= 200 * 0.02
    # sample-variance tolerance: sd of s^2 is ~ var * sqrt(2/(n-1)) ~ 5.5
    assert abs(sizes.var(ddof=1) - 175) <= 30


def test_selection_is_independent_across_nodes():
    # pairwise correlation of membership indicators stays near zero
    m, q, nonces = 40, 0.3, 600
    all_keys = [keygen(SEED, i) for i in range(m)]
    table = np.empty((nonces, m), dtype=np.int8)
    for j in range(nonces):
        nonce = random_gen(SEED, 50_000 + j)
        table[j] = [check_sort(k, nonce, q).selected for k in all_keys]
    corr = np.corrcoef(table.T)
    off_diag = corr[~np.eye(m, dtype=bool)]
    # Bonferroni over 780 pairs at the 0.1% family level: |rho| < ~5/sqrt(n)
    assert np.abs(off_diag).max() < 5 / np.sqrt(nonces)


def test_oracle_verifies_genuine_results_and_rejects_forgeries():
    oracle = SortitionOracle()
    keys = keygen(SEED, 3)
    oracle.register(keys)
    nonce = sha256(b"it-nonce")
    q = 0.9
    result = check_sort(keys, nonce, q)
    assert result.selected
    assert oracle.verify(keys.pk, nonce, q, result)
    # unknown key, tampered output, tampered proof, wrong nonce
    stranger = keygen(SEED, 4)
    assert not oracle.verify(stranger.pk, nonce, q, result)
    forged = type(result)(selected=True, output=sha256(b"x"), proof=result.proof)
    assert not oracle.verify(keys.pk, nonce, q, forged)
    forged = type(result)(selected=True, output=result.output, proof=sha256(b"x"))
    assert not oracle.verify(keys.pk, nonce, q, forged)
    assert not oracle.verify(keys.pk, sha256(b"other-nonce"), q, result)


def _claims(keys, stranger, nonce, other_nonce, q, junk):
    """(pk, claim) pairs a node could reveal: its own result, the same with a
    forged output, proof or `selected`, its result at another nonce, a
    stranger's result, and its own result under the stranger's pk."""
    own = check_sort(keys, nonce, q)
    genuine = SortResult(True, sha(keys.sk + nonce), sha(SORT_PROOF_TAG + keys.sk + nonce))
    return [(keys.pk, claim) for claim in (
        own, genuine, NOT_SELECTED,
        SortResult(True, junk, genuine.proof), SortResult(True, genuine.output, junk),
        SortResult(True, None, None), SortResult(False, genuine.output, genuine.proof),
        check_sort(keys, other_nonce, q), check_sort(stranger, nonce, q),
        check_sort(keys, nonce, 1.0))] + [(stranger.pk, own), (stranger.pk, genuine)]


@settings(max_examples=200, deadline=None)
@given(sk=st.binary(min_size=32, max_size=32), other_sk=st.binary(min_size=32, max_size=32),
       nonce=st.binary(min_size=32, max_size=32), q=st.floats(0.0, 1.0),
       junk=st.binary(min_size=32, max_size=32))
def test_verify_is_check_sort_rerun_on_the_registered_keys(sk, other_sk, nonce, q, junk):
    """A claim verifies iff it is selected and equal to `check_sort` run on
    the keys registered under its pk; an unregistered pk verifies nothing."""
    keys = NodeKeys(node_id=0, pk=sha(b"pk" + sk), sk=sk)
    stranger = NodeKeys(node_id=1, pk=sha(b"pk" + other_sk), sk=other_sk)
    oracle = SortitionOracle()
    oracle.register(keys)
    other_nonce = sha(b"other" + nonce)
    for pk, claim in _claims(keys, stranger, nonce, other_nonce, q, junk):
        registered = keys if pk == keys.pk else None
        expected = (registered is not None and claim.selected
                    and check_sort(registered, nonce, q) == claim)
        assert oracle.verify(pk, nonce, q, claim) == expected, claim


def test_verify_hashes_once_per_valid_claim(monkeypatch):
    """The output comes from the keys' PRF midstate, so a valid claim costs
    one hash, its proof's; a claim that is not selected costs none."""
    calls = []

    def counting(*parts):
        calls.append(parts)
        return sha256(*parts)

    monkeypatch.setattr(randomness, "sha256", counting)
    oracle = SortitionOracle()
    keys = keygen(SEED, 6)
    oracle.register(keys)
    for j in range(20):
        nonce = sha256(b"count", bytes([j]))
        result = check_sort(keys, nonce, 1.0)
        calls.clear()
        assert oracle.verify(keys.pk, nonce, 1.0, result)
        assert len(calls) == 1
        calls.clear()
        assert not oracle.verify(keys.pk, nonce, 1.0, NOT_SELECTED)
        assert not calls


def test_register_refuses_a_pk_under_another_sk():
    oracle = SortitionOracle()
    keys = keygen(SEED, 8)
    oracle.register(keys)
    # the same keys again, even under another node id, are accepted
    oracle.register(keys)
    oracle.register(NodeKeys(node_id=9, pk=keys.pk, sk=keys.sk))
    with pytest.raises(ValueError, match="different sk"):
        oracle.register(NodeKeys(node_id=8, pk=keys.pk, sk=sha256(b"impostor")))
    nonce = sha256(b"after-refusal")
    assert oracle.verify(keys.pk, nonce, 1.0, check_sort(keys, nonce, 1.0))


def test_result_encoding_is_fixed_width():
    keys = keygen(SEED, 5)
    selected = check_sort(keys, sha256(b"n"), 1.0)
    missed = check_sort(keys, sha256(b"n"), 0.0)
    assert len(selected.encode()) == 64
    assert len(missed.encode()) == 64
    assert missed.encode() == bytes(64)


def test_keygen_is_unique_per_node():
    keys = {keygen(SEED, i).pk for i in range(100)}
    assert len(keys) == 100
