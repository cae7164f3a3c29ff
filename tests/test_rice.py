"""Schedule arithmetic, seed chains, digests, and the appendix-style bounds."""

import hashlib
import random

import pytest

from cicsim.hashing import sha256, to_word
from cicsim.merkle_state import CicState
from cicsim.experiments import SyntheticRunner
from cicsim.rice import (check_phi_bounds, check_total_exponent,
                         exponent_of_total, group_end, init_seed, phi_bounds,
                         rice_execute_traced, segment_exponent,
                         segment_start, strong_unmatched, update_index)
from cicsim.toy_vm import (ComputeModel, assemble, compute_data,
                           compute_program, run_full)

from oracles import (merkle_root_oracle, oracle_state_after, rice_round_oracle,
                     run_program_oracle, segment_table_oracle,
                     strong_unmatched_tail_bound)


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
    assert init_seed(1, entropy) == entropy
    assert init_seed(2, entropy) == hashlib.sha256(entropy).digest()
    expected = entropy
    for _ in range(3):
        expected = hashlib.sha256(expected).digest()
    assert init_seed(4, entropy) == expected


def test_update_index_from_seed_prefix_bits():
    # first two bits "10" -> offset 2 inside segment 2 (k=2, start 3)
    seed = b"\x80" + bytes(31)
    assert segment_exponent(2) == 2 and segment_start(2) == 3
    assert update_index(2, seed) == 5
    assert update_index(1, seed) == 2  # first bit "1" -> offset 1 in segment 1


def test_update_indices_fall_inside_their_segments():
    seed = init_seed(1, sha256(b"contiguous"))
    table = segment_table_oracle(10 ** 4)
    for segment in range(1, 13):
        t_f = update_index(segment, seed)
        start, k = table[segment - 1]
        assert start <= t_f < start + 2 ** k
        assert t_f == start + (int.from_bytes(seed, "big") >> (256 - k))
        seed = sha256(seed, sha256(b"root", to_word(t_f)))


def _interpreter_run(program, state, data):
    """(total, root_at) of a plain run, from the stepping oracle and the
    recursive Merkle builder."""
    instructions, entry = program.instructions, program.entry()
    _, total = run_program_oracle(instructions, entry, state.storage, data)

    def root_at(t):
        store = oracle_state_after(instructions, entry, state.storage, data, t)[2]
        return merkle_root_oracle(state.cid, state.code, store)
    return total, root_at


@pytest.mark.parametrize("round_index", [1, 2, 3])
def test_rice_rounds_match_the_schedule_oracle(round_index):
    entropy = sha256(b"oracle-entropy")
    program = compute_program(key=7)
    state = CicState(sha256(b"oracle-cic"), program.code_id).put(7, 40)
    data = compute_data(30)
    total, root_at = _interpreter_run(program, state, data)
    runner = SyntheticRunner(5000, sha256(b"oracle-salt"))
    cases = [(program, state, data, total, root_at),
             (ComputeModel(key=7), state, data, total, root_at),
             (runner, None, b"", runner.total, runner.root_at)]
    for substrate, st, dt, t, roots in cases:
        digest, trace = rice_execute_traced(substrate, st, dt, round_index, entropy)
        seed, root, updates = rice_round_oracle(t, roots, round_index, entropy)
        assert trace.total == t
        assert list(trace.update_indices) == updates
        assert (digest.seed, digest.root.value) == (seed, root)
        assert trace.digest == digest and trace.round_index == round_index
        assert updates  # every case runs past several segments


def test_trivial_program_has_zero_updates():
    program = assemble("func main\n  halt\n")
    state = CicState(1, program.code_id)
    _, trace = rice_execute_traced(program, state, b"", 1, sha256(b"e"))
    assert trace.total == 1
    assert trace.phi == 0
    assert trace.digest.seed == init_seed(1, sha256(b"e"))
    assert trace.digest.root == state.root()


def test_rounds_share_roots_but_not_seeds():
    model = ComputeModel()
    state = CicState(2, model.code_id)
    entropy = sha256(b"shared-entropy")
    d1, _ = rice_execute_traced(model, state, compute_data(40), 1, entropy)
    d2, _ = rice_execute_traced(model, state, compute_data(40), 2, entropy)
    assert d1.root == d2.root
    assert d1.seed != d2.seed
    # determinism: identical inputs give a bit-identical digest
    assert rice_execute_traced(model, state, compute_data(40), 1, entropy)[0] == d1


def test_digest_matches_plain_execution_root():
    program = compute_program()
    state = CicState(3, program.code_id)
    final, _ = run_full(program, state, compute_data(25))
    digest, _ = rice_execute_traced(program, state, compute_data(25), 1, sha256(b"x"))
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
    assert strong_unmatched([trace]) == [trace.phi]


def test_strong_unmatched_across_rounds():
    model = ComputeModel()
    state = CicState(6, model.code_id)
    entropy = sha256(b"multi-round")
    traces = [rice_execute_traced(model, state, compute_data(300), j, entropy)[1]
              for j in (1, 2, 3)]
    counts = strong_unmatched(traces)
    first, second, third = (set(t.update_indices) for t in traces)
    assert counts[0] == traces[0].phi
    assert counts[1] == len(second - first)
    assert counts[1] >= 1
    assert counts[2] == len(third - first - second)


def test_mismatched_totals_are_rejected():
    model = ComputeModel()
    state = CicState(7, model.code_id)
    t1 = rice_execute_traced(model, state, compute_data(10), 1, sha256(b"a"))[1]
    t2 = rice_execute_traced(model, state, compute_data(11), 2, sha256(b"a"))[1]
    with pytest.raises(ValueError):
        strong_unmatched([t1, t2])


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
        init_seed(1, b"short")
    with pytest.raises(ValueError):
        strong_unmatched_tail_bound(5, 2, 9, 1)
