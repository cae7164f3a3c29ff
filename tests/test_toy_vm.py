"""VM semantics: counting, interruption, composability, the benchmark twin."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicsim.experiments import SyntheticRunner
from cicsim.hashing import sha256, to_word
from cicsim.merkle_state import CicState
from cicsim.toy_vm import (ComputeModel, GasExhausted, InvalidResume, Program,
                           Transaction, assemble, compute_data, compute_length,
                           compute_program, random_program, run_full, run_sub,
                           start)

from oracles import run_program_oracle


def fresh_state(program: Program) -> CicState:
    return CicState(11, program.code_id)


def test_immediate_halt_is_one_instruction():
    program = assemble("func main\n  halt\n")
    state = fresh_state(program)
    final, total = run_full(program, state)
    assert total == 1
    assert final == state


def test_straight_line_count_matches_stepping_oracle():
    program = assemble("""
func main
  const r1 4
  const r2 5
  add r3 r1 r2
  mul r4 r3 r3
  store r1 r4
  halt
""")
    state = fresh_state(program)
    final, total = run_full(program, state)
    assert total == 6  # the halt is counted
    oracle_store, oracle_steps = run_program_oracle(
        program.instructions, program.entry(), {}, b"")
    assert oracle_steps == total
    assert dict(final.storage) == oracle_store
    assert final.get(4) == to_word(81)


def test_compute_benchmark_is_affine_in_eta():
    program = compute_program()
    for eta in (0, 1, 2, 7, 23):
        state = fresh_state(program)
        final, total = run_full(program, state, compute_data(eta))
        assert total == compute_length(eta) == 6 * eta + 5
        assert final.get(0) == to_word(eta)
        _, oracle_steps = run_program_oracle(
            program.instructions, program.entry(), {}, compute_data(eta))
        assert oracle_steps == total


def test_gas_exhaustion_on_the_budget_boundary():
    program = compute_program()
    state = fresh_state(program)
    needed = compute_length(4)
    final, total = run_full(program, state, compute_data(4), gas_limit=needed)
    assert total == needed
    with pytest.raises(GasExhausted):
        run_full(program, state, compute_data(4), gas_limit=needed - 1)


def test_run_sub_whole_array_equals_run_full():
    program = compute_program()
    state = fresh_state(program)
    full_state, total = run_full(program, state, compute_data(6))
    cursor = start(program, state, compute_data(6))
    cursor, last = run_sub(program, cursor, 1, total)
    assert cursor.halted and last == total
    assert cursor.state == full_state


def test_run_sub_past_the_end_reports_the_true_total():
    program = compute_program()
    state = fresh_state(program)
    _, total = run_full(program, state, compute_data(3))
    cursor = start(program, state, compute_data(3))
    cursor, last = run_sub(program, cursor, 1, total + 500)
    assert cursor.halted and last == total < total + 500


def test_resume_validation():
    program = compute_program()
    state = fresh_state(program)
    cursor = start(program, state, compute_data(3))
    cursor, _ = run_sub(program, cursor, 1, 4)
    with pytest.raises(InvalidResume):
        run_sub(program, cursor, 5, 9, data=b"different")
    # every substrate shares the same resume rules
    total = compute_length(3)
    for executable in (program, ComputeModel(), SyntheticRunner(total, b"salt")):
        cursor = executable.start(state, compute_data(3))
        cursor, _ = cursor.resume(1, 4)
        with pytest.raises(InvalidResume):
            cursor.resume(9, 12)                 # skips index 5
        with pytest.raises(InvalidResume):
            cursor.resume(5, 4)                  # empty subarray
        cursor, last = cursor.resume(5, total + 100)
        assert cursor.halted and last == cursor.dynamic_index == total
        with pytest.raises(InvalidResume):
            cursor.resume(total + 1, total + 2)  # already halted


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.data())
def test_split_anywhere_matches_run_full(eta, data):
    program = compute_program()
    state = fresh_state(program)
    full_state, total = run_full(program, state, compute_data(eta))
    cut = data.draw(st.integers(1, total - 1))
    cursor = start(program, state, compute_data(eta))
    cursor, last = run_sub(program, cursor, 1, cut)
    assert last == cut and not cursor.halted
    cursor, last = run_sub(program, cursor, cut + 1, total)
    assert cursor.halted and last == total
    assert cursor.state == full_state
    assert cursor.state.root() == full_state.root()


def test_chained_random_partitions_compose():
    rng = random.Random(7)
    for trial in range(20):
        program = random_program(rng)
        state = CicState(trial, program.code_id)
        full_state, total = run_full(program, state)
        cuts = sorted(rng.sample(range(1, total), min(5, total - 1)))
        cursor = start(program, state)
        t_i = 1
        for cut in cuts:
            cursor, last = run_sub(program, cursor, t_i, cut)
            t_i = last + 1
        cursor, last = run_sub(program, cursor, t_i, total)
        assert cursor.halted and last == total
        assert cursor.state == full_state


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False),
       st.dictionaries(st.integers(0, 2 ** 32).map(to_word),
                       st.integers(0, 2 ** 32).map(to_word), max_size=6))
def test_cursor_root_matches_the_state_root_at_every_interruption(rng, storage):
    # the cursor's kept tree against the from-scratch root of its snapshot,
    # with roots taken after some segments and skipped after others
    program = random_program(rng)
    state = CicState(21, program.code_id, storage)
    _, total = run_full(program, state)
    cursor = start(program, state)
    t_i = 1
    while not cursor.halted:
        cursor, last = cursor.resume(t_i, t_i + rng.randrange(1, 40))
        t_i = last + 1
        if cursor.halted or rng.random() < 0.7:
            assert cursor.root_bytes() == cursor.state.root().value
    assert last == total


def test_random_programs_match_the_stepping_oracle():
    rng = random.Random(99)
    for trial in range(15):
        program = random_program(rng)
        state = CicState(trial, program.code_id)
        final, total = run_full(program, state)
        oracle_store, oracle_steps = run_program_oracle(
            program.instructions, program.entry(), {}, b"")
        assert oracle_steps == total
        assert dict(final.storage) == oracle_store


def test_compute_model_matches_interpreter_states_and_totals():
    program = compute_program()
    model = ComputeModel()
    assert model.code_id == program.code_id
    for eta in (0, 1, 5, 17):
        state = CicState(4, program.code_id)
        vm_final, total = run_full(program, state, compute_data(eta))
        assert model.final_state(state, eta) == vm_final
        # interior states agree at every prefix length
        for t in range(0, total + 1, max(total // 7, 1)):
            cursor = start(program, state, compute_data(eta))
            if t:
                run_sub(program, cursor, 1, t)
            assert model.state_at(state, eta, t) == cursor.state


def test_compute_model_gas_semantics_match_the_vm():
    model = ComputeModel()
    state = CicState(4, model.code_id)
    cursor = model.start(state, compute_data(4), gas_limit=compute_length(4) - 1)
    with pytest.raises(GasExhausted):
        cursor.resume(1, compute_length(4))


def test_transaction_validation():
    with pytest.raises(ValueError):
        Transaction(tid=b"t" * 32, cid=b"c" * 32, data=b"", gas_limit=0, gas_price=1)
    tx = Transaction(tid=b"t" * 32, cid=b"c" * 32, data=b"", gas_limit=10, gas_price=1)
    assert tx.nonce is None
    assert tx.with_nonce(sha256(b"n")).nonce == sha256(b"n")
