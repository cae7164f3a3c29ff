"""Consensus engine: threshold, scores, decisions, sizing formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicsim.hashing import sha256
from cicsim.miracle import (ConsensusParams, DegenerateParams,
                            LikelihoodTable, RoundTally, expected_rounds,
                            ns1_size, one_round_q, solve_q_for_expected_rounds,
                            step, threshold, update_likelihoods)

from oracles import (expected_rounds_oracle, one_round_size_oracle,
                     scores_from_counts, threshold_oracle, walk_first_passage)

A, B, C = sha256(b"root-a"), sha256(b"root-b"), sha256(b"root-c")


def params(m=1600, f_max=0.40, q=0.125, beta=1e-10) -> ConsensusParams:
    return ConsensusParams(m_total=m, f_max=f_max, q=q, beta=beta)


def table_from(rounds):
    table = LikelihoodTable()
    for i, counts in enumerate(rounds, 1):
        table = update_likelihoods(table, RoundTally(i, counts))
    return table


def test_threshold_reference_point():
    value = threshold(params())
    assert value == pytest.approx(threshold_oracle(1600, 0.125, 0.40, 1e-10), rel=1e-12)
    assert value == pytest.approx(9.671e3, rel=1e-3)
    # the rate factor alone is 420 at this operating point
    assert value / math.log((1 - 1e-10) / 1e-10) == pytest.approx(420.0, rel=1e-9)


def test_threshold_degenerates():
    assert threshold(params(beta=0.5)) == 0.0
    assert threshold(params(f_max=0.499)) > threshold(params(f_max=0.40))
    with pytest.raises(DegenerateParams):
        ConsensusParams(1600, 0.5, 0.125, 1e-10)
    with pytest.raises(DegenerateParams):
        ConsensusParams(1600, 0.4, 0.125, 0.0)


def test_single_round_hand_arithmetic():
    table = table_from([{A: 30, B: 10}])
    assert table.score(A) == 800
    assert table.score(B) == -800


def test_symmetric_round_scores_zero():
    table = table_from([{A: 20, B: 20}])
    assert table.score(A) == table.score(B) == 0


def test_two_round_accumulation():
    table = table_from([{A: 30, B: 10}, {A: 25, B: 15}])
    assert table.score(A) == 800 + 400
    assert table.score(B) == -800 - 400


def test_late_root_is_back_charged():
    table = table_from([{A: 30, B: 10}, {A: 20, B: 10, C: 10}])
    # C's score must equal the full sum from round 1: -40^2 + (2*10-40)*40
    assert table.score(C) == -1600 - 800
    # and an unseen root reads as minus the accumulated charge
    assert table.score(sha256(b"never")) == -(40 ** 2) - (40 ** 2)


def test_empty_round_changes_nothing_but_advances():
    table = table_from([{A: 30, B: 10}])
    table = update_likelihoods(table, RoundTally(2, {}))
    assert table.rounds_elapsed == 2
    assert table.score(A) == 800


def test_round_index_discipline():
    table = table_from([{A: 1}])
    with pytest.raises(ValueError):
        update_likelihoods(table, RoundTally(3, {A: 1}))


def test_step_continue_accept_and_tie():
    p = params(m=100, q=0.5, f_max=0.4, beta=1e-3)
    gate = threshold(p)
    below = table_from([{A: int(math.sqrt(gate)) - 1}])
    assert step(below, p) is None
    above = table_from([{A: int(math.sqrt(gate)) + 2}])
    assert step(above, p) == A
    # an exact tie continues: craft a table whose score equals the gate
    tie = LikelihoodTable(scores={A: int(gate)}, rounds_elapsed=1, charge=0)
    if int(gate) == gate:
        assert step(tie, p) is None


ROOTS = [sha256(b"oracle-root", bytes([i])) for i in range(5)]


@settings(max_examples=200, deadline=None)
@given(rounds=st.lists(st.dictionaries(st.integers(0, 4), st.just(0) | st.integers(0, 30),
                                       max_size=5), min_size=1, max_size=8),
       p=st.sampled_from([params(m=100, q=0.5, f_max=0.4, beta=1e-3),
                          params(m=1600, q=0.125, f_max=0.4, beta=1e-10),
                          params(m=40, q=0.3, f_max=0.4, beta=0.5)]))
def test_table_and_step_match_the_score_oracle_every_round(rounds, p):
    """Random per-round counts, with roots first seen late, zero counts and
    empty rounds: after every round each root's score is the oracle's sum,
    and `step` returns a root exactly when its oracle score exceeds the
    threshold (at most one can), else None."""
    gate = threshold(p)
    table = LikelihoodTable()
    history = np.zeros((1, 0, len(ROOTS)), dtype=np.int64)
    for index, counts in enumerate(rounds, 1):
        table = update_likelihoods(table, RoundTally(
            index, {ROOTS[i]: c for i, c in counts.items()}))
        row = [[[counts.get(i, 0) for i in range(len(ROOTS))]]]
        history = np.concatenate([history, np.array(row, dtype=np.int64)], axis=1)
        expected = scores_from_counts(history)[0]
        assert [table.score(root) for root in ROOTS] == expected.tolist()
        over = [root for root, score in zip(ROOTS, expected) if score > gate]
        assert len(over) <= 1
        assert step(table, p) == (over[0] if over else None)


@pytest.mark.parametrize("f_max", [0.30, 0.40, 0.45])
def test_exact_error_stays_within_the_budget(f_max):
    """The paper's error guarantee with no sampling: against Byzantine
    nodes pooled on one wrong root, the walk oracle's exact P(wrong) is at
    most beta at f = f_max and f = f_max - 0.05 (M=1600, q=0.125). Every
    beta here is at least 1e-10, far above the oracle's FFT noise floor
    (~1e-16), so each comparison is resolved even where P(wrong) itself sits
    at the floor; budgets near 1e-14 or below need direct convolution."""
    for beta in (1e-2, 1e-6, 1e-10):
        for f in (f_max, f_max - 0.05):
            _, p_wrong, _ = walk_first_passage(1600, 0.125, f_max, beta, f)
            assert p_wrong.sum() <= beta, (f_max, beta, f, p_wrong.sum())


def test_expected_rounds_reference_points():
    p = params(m=1600, q=0.125, f_max=0.45, beta=1e-10)
    value = expected_rounds(p, 0.45)
    assert value == pytest.approx(expected_rounds_oracle(1600, 0.125, 1e-10, 0.45),
                                  rel=1e-12)
    assert value == pytest.approx(9.0, abs=0.05)
    with pytest.raises(DegenerateParams):
        expected_rounds(p, 0.0)
    with pytest.raises(DegenerateParams):
        expected_rounds(p, 0.46)


def test_expected_rounds_monotone_in_f():
    p = params(m=1600, q=0.125, f_max=0.45, beta=1e-10)
    values = [expected_rounds(p, f) for f in (0.05, 0.15, 0.25, 0.35, 0.45)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_solve_q_hits_the_target():
    q = solve_q_for_expected_rounds(1600, 0.35, 1e-20, 5.0)
    p = ConsensusParams(1600, 0.35, q, 1e-20)
    assert expected_rounds(p, 0.35) == pytest.approx(5.0, rel=1e-6)


def test_one_round_size_against_bisection_oracle():
    for f_max, expected in [(0.35, 66.92), (0.45, 199.53), (0.05, 4.85)]:
        q = one_round_q(1600, f_max, 1e-20)
        size = q * 1600
        assert size == pytest.approx(one_round_size_oracle(1600, f_max, 1e-20),
                                     abs=1e-6)
        assert size == pytest.approx(expected, abs=0.05)
        # the solved point is the crossing: slightly above passes, below fails
        gate_hi = threshold(ConsensusParams(1600, f_max, q * 1.001, 1e-20))
        assert (q * 1.001 * 1600) ** 2 > gate_hi
    # f_max = 1/2 zeroes the rate's denominator: outside the domain, not a crash
    with pytest.raises(DegenerateParams):
        one_round_q(1600, 0.5, 1e-20)


def test_ns1_sizing_series():
    assert ns1_size(0.35, 1600, 1e-20) == pytest.approx(897, abs=5)
    assert ns1_size(0.40, 1600, 1e-20) == 1600
    assert ns1_size(0.45, 1600, 1e-20) == 1600
    assert ns1_size(0.05, 1600, 1e-20) == pytest.approx(49, rel=0.10)
    with pytest.raises(DegenerateParams):
        ns1_size(0.5, 1600, 1e-20)


def test_ns1_monotone_in_f_max():
    sizes = [ns1_size(f, 1600, 1e-20) for f in (0.05, 0.15, 0.25, 0.35)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_theorem_structure_on_random_tallies():
    # no two scores above a positive gate, and merging beats splitting
    rng = np.random.default_rng(1234)
    p = params(m=400, q=0.3, f_max=0.45, beta=0.01)
    gate = threshold(p)
    for _ in range(300):
        rounds = rng.integers(1, 5)
        roots = [A, B, C]
        tallies = []
        for j in range(1, rounds + 1):
            counts = {r: int(rng.integers(0, 120)) for r in roots}
            tallies.append(RoundTally(j, counts))
        table = table_from([t.counts for t in tallies])
        above = [r for r in roots if table.score(r) > max(gate, 0)]
        assert len(above) <= 1
