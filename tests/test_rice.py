"""Schedule arithmetic, seed chains, digests, and the appendix-style bounds."""

import hashlib
import random

import pytest

from cicsim.hashing import sha256, to_word
from cicsim.merkle_state import CicState
from cicsim.rice import (Seed, SegmentCursor, analyze_schedule,
                         check_phi_bounds, check_total_exponent,
                         exponent_of_total, group_end, init_seed, next_indices,
                         phi_bounds, rice_execute, rice_execute_traced,
                         segment_exponent, segment_start,
                         strong_unmatched_tail_bound, update_seed)
from cicsim.toy_vm import (ComputeModel, assemble, compute_data,
                           compute_program, run_full)

from oracles import segment_table_oracle


def test_exponent_sequence_prefix():
    assert [segment_exponent(i) for i in range(1, 11)] == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]


def test_segment_starts_match_cumulative_sums():
    assert [segment_start(i) for i in range(1, 9)] == [1, 3, 7, 11, 19, 27, 35, 51]
    table = segment_table_oracle(10 ** 6)
    for index, (start, k) in enumerate(table, 1):
        assert segment_start(index) == start
        assert segment_exponent(index) == k


def test_group_containment_of_totals():
    # brute walk of the oracle table vs the closed-form group classifier
    for total in [1, 2, 3, 10, 11, 34, 35, 60, 98, 99, 1000, 54321]:
        k = exponent_of_total(total)
        assert group_end(k - 1) < total <= group_end(k)


def test_seed_initialization_chain():
    entropy = sha256(b"round-1-entropy")
    assert init_seed(1, entropy).value == entropy
    assert init_seed(2, entropy).value == hashlib.sha256(entropy).digest()
    expected = entropy
    for _ in range(3):
        expected = hashlib.sha256(expected).digest()
    assert init_seed(4, entropy).value == expected


def test_update_index_from_seed_prefix_bits():
    # first two bits "10" -> offset 2 inside segment 2 (k=2, start 3)
    seed = Seed(value=b"\x80" + bytes(31), round_index=1)
    cursor = SegmentCursor.initial()
    _, _, cursor = next_indices(cursor, seed)      # segment 1
    t_i, t_f, cursor = next_indices(cursor, seed)  # segment 2
    index = cursor.segment_index
    assert segment_exponent(index) == 2 and segment_start(index) == 3
    assert t_f - segment_start(index) == 2
    assert cursor.t_f == t_f == 5


def test_next_indices_cover_contiguously():
    seed = init_seed(1, sha256(b"contiguous"))
    cursor = SegmentCursor.initial()
    previous_end = 0
    for _ in range(12):
        t_i, t_f, cursor = next_indices(cursor, seed)
        assert t_i == previous_end + 1
        start = segment_start(cursor.segment_index)
        assert start <= t_f < start + 2 ** segment_exponent(cursor.segment_index)
        previous_end = t_f
        seed = update_seed(seed, sha256(b"root", to_word(t_f)))


def test_trivial_program_has_zero_updates():
    program = assemble("func main\n  halt\n")
    state = CicState(1, program.code_id)
    _, trace = rice_execute_traced(program, state, b"", 1, sha256(b"e"))
    assert trace.total == 1
    assert trace.phi == 0
    assert trace.digest.seed == init_seed(1, sha256(b"e")).value
    assert trace.digest.root == state.root()


def test_rounds_share_roots_but_not_seeds():
    model = ComputeModel()
    state = CicState(2, model.code_id)
    entropy = sha256(b"shared-entropy")
    d1 = rice_execute(model, state, compute_data(40), 1, entropy)
    d2 = rice_execute(model, state, compute_data(40), 2, entropy)
    assert d1.root == d2.root
    assert d1.seed != d2.seed
    assert d1.same_solution(d2)
    # determinism: identical inputs give a bit-identical digest
    assert rice_execute(model, state, compute_data(40), 1, entropy) == d1


def test_digest_matches_plain_execution_root():
    program = compute_program()
    state = CicState(3, program.code_id)
    final, _ = run_full(program, state, compute_data(25))
    digest = rice_execute(program, state, compute_data(25), 1, sha256(b"x"))
    assert digest.root == final.root()


def test_phi_band_for_a_run_ending_in_the_fourth_group():
    # T = 60 sits in (34, 98]; the update count must land in (6, 10]
    eta = (60 - 5) // 6  # closest benchmark length: T = 59
    model = ComputeModel()
    state = CicState(4, model.code_id)
    for salt in range(20):
        _, trace = rice_execute_traced(model, state, compute_data(eta), 1,
                                       sha256(b"band", to_word(salt)))
        assert 6 < trace.phi <= 10
        assert check_phi_bounds(trace)


def test_schedule_bounds_hold_on_vm_and_model_runs():
    rng = random.Random(5)
    model = ComputeModel()
    for trial in range(60):
        eta = rng.randint(1, 4000)
        state = CicState(trial, model.code_id)
        _, trace = rice_execute_traced(model, state, compute_data(eta), 1,
                                       sha256(b"t", to_word(trial)))
        assert trace.total == 6 * eta + 5
        assert check_phi_bounds(trace), trace
        assert check_total_exponent(trace)
        lo, hi = phi_bounds(trace)
        assert lo < trace.phi <= hi


def test_single_round_report_is_vacuously_strong():
    model = ComputeModel()
    state = CicState(5, model.code_id)
    _, trace = rice_execute_traced(model, state, compute_data(100), 1, sha256(b"s"))
    report = analyze_schedule(trace.total, [trace])
    assert report.rounds[0].strong_unmatched == trace.phi


def test_strong_unmatched_across_rounds():
    model = ComputeModel()
    state = CicState(6, model.code_id)
    entropy = sha256(b"multi-round")
    traces = [rice_execute_traced(model, state, compute_data(300), j, entropy)[1]
              for j in (1, 2, 3)]
    report = analyze_schedule(traces[0].total, traces)
    for stats, trace in zip(report.rounds, traces):
        assert stats.phi == trace.phi
    first = set(traces[0].update_indices)
    second = set(traces[1].update_indices)
    assert report.rounds[1].strong_unmatched == len(second - first)
    assert report.rounds[1].strong_unmatched >= 1


def test_mismatched_totals_are_rejected():
    model = ComputeModel()
    state = CicState(7, model.code_id)
    t1 = rice_execute_traced(model, state, compute_data(10), 1, sha256(b"a"))[1]
    t2 = rice_execute_traced(model, state, compute_data(11), 2, sha256(b"a"))[1]
    with pytest.raises(ValueError):
        analyze_schedule(t1.total, [t1, t2])


def test_tail_bound_is_a_valid_probability_and_monotone():
    values = [strong_unmatched_tail_bound(10, 2, 3, x) for x in range(0, 30)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_empirical_unmatched_tail_dominates_the_binomial_bound():
    # second-round strong-unmatched counts at terminal k=10 must sit above
    # the binomial lower bound for every cutoff and admissible b2
    from cicsim.experiments import rice_unmatched_rows

    rows = rice_unmatched_rows(k=10, trials=400, rounds=2, seed=sha256(b"dom"))
    xs = sorted(r["strong_unmatched"] for r in rows)
    n = len(xs)
    for b2 in (2, 3, 4):
        for x in range(1, 45, 4):
            empirical = sum(v >= x for v in xs) / n
            bound = strong_unmatched_tail_bound(10, 2, b2, x)
            # allow three-sigma Monte Carlo slack on the empirical side
            slack = 3 * (bound * (1 - bound) / n) ** 0.5
            assert empirical >= bound - slack - 1e-9, (b2, x, empirical, bound)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        init_seed(0, sha256(b"e"))
    with pytest.raises(ValueError):
        segment_exponent(0)
    with pytest.raises(ValueError):
        Seed(value=b"short", round_index=1)
    with pytest.raises(ValueError):
        strong_unmatched_tail_bound(5, 2, 9, 1)
