"""VM semantics: counting, interruption, composability, the benchmark twin."""

import pickle
import random
from dataclasses import replace
from itertools import takewhile, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicsim.experiments import SyntheticRunner
from cicsim.hashing import sha256, to_word
from cicsim import toy_vm
from cicsim.merkle_state import CicState, prove_inclusion
from cicsim.rice import rice_execute_traced
from cicsim.toy_vm import (AssemblyError, ComputeModel, GasExhausted, InvalidResume,
                           Program, Transaction, assemble, compute_data, compute_length,
                           compute_program, random_program, run_full, run_sub)

from oracles import oracle_state_after, run_program_oracle


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
    cursor = program.start(state, compute_data(6))
    cursor, last = run_sub(program, cursor, 1, total)
    assert cursor.halted and last == total
    assert cursor.state == full_state


def test_run_sub_past_the_end_reports_the_true_total():
    program = compute_program()
    state = fresh_state(program)
    _, total = run_full(program, state, compute_data(3))
    cursor = program.start(state, compute_data(3))
    cursor, last = run_sub(program, cursor, 1, total + 500)
    assert cursor.halted and last == total < total + 500


def test_resume_validation():
    program = compute_program()
    state = fresh_state(program)
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
    cursor = program.start(state, compute_data(eta))
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
        cursor = program.start(state)
        t_i = 1
        for cut in cuts:
            cursor, last = run_sub(program, cursor, t_i, cut)
            t_i = last + 1
        cursor, last = run_sub(program, cursor, t_i, total)
        assert cursor.halted and last == total
        assert cursor.state == full_state


# storage before a run: small keys the programs may load and store, large keys
# they never hit in practice, and zero-valued words, which are present keys
# all the same
prior_storage = st.dictionaries(
    st.one_of(st.integers(0, 2 ** 32), st.integers(2 ** 200, 2 ** 256 - 1)).map(to_word),
    st.one_of(st.just(0), st.integers(0, 2 ** 32)).map(to_word), max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), prior_storage)
def test_cursor_root_matches_the_state_root_at_every_interruption(rng, storage):
    # the cursor's kept tree against the from-scratch root of its snapshot,
    # with roots taken after some segments and skipped after others, and
    # snapshots taken between resumes that must not disturb the next root
    program = random_program(rng)
    state = CicState(21, program.code_id, storage)
    final, total = run_full(program, state)
    assert state == CicState(21, program.code_id, storage)  # the input is left as it was
    assert (final.storage, total) == run_program_oracle(program.instructions, program.entry(),
                                                        storage, b"")
    cursor = program.start(state)
    t_i = 1
    while not cursor.halted:
        cursor, last = cursor.resume(t_i, t_i + rng.randrange(1, 40))
        t_i = last + 1
        snapshot = cursor.state if rng.random() < 0.5 else None
        if cursor.halted or rng.random() < 0.7:
            got = cursor.root_bytes()
            assert got == cursor.state.root().value
            assert snapshot is None or snapshot.root().value == got
    assert last == total
    assert cursor.state == final and cursor.root_bytes() == final.root().value


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


# A loop whose body runs mov, which random_program never emits, and on every
# iteration a mod by zero, a load of an absent key and a hash; r8 holds the
# iteration count.
EVERY_OP_LOOP = """
func main
  mov r0 r8
  const r6 1
  const r7 0
loop:
  jnz r0 body
  halt
body:
  mov r1 r0
  mod r2 r1 r7
  hash r4 r1
  load r3 r4
  add r5 r5 r3
  xor r5 r5 r4
  store r1 r5
  store r2 r1
  sub r0 r0 r6
  jmp loop
"""


# Shapes random_program never has. A do-while loop closed by its own jnz:
DO_WHILE = """
func main
  mov r0 r8
  const r6 1
loop:
  add r1 r1 r0
  store r0 r1
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# a two-instruction block that jumps into a long one, so its trace is cut
# at twice its own length, in the middle of the long block:
JMP_INTO_A_LONG_BLOCK = """
func main
  const r1 7
  jmp long
back:
  halt
long:
  add r2 r2 r1
  mul r3 r2 r2
  xor r4 r3 r1
  hash r5 r4
  store r1 r5
  load r6 r1
  eq r7 r6 r5
  jnz r7 back
  halt
"""

# a jump to a label in the middle of the loop body:
JMP_INTO_A_BLOCK = """
func main
  mov r0 r8
  const r6 1
  jmp mid
top:
  add r1 r1 r0
mid:
  xor r2 r2 r1
  store r2 r0
  sub r0 r0 r6
  jnz r0 top
  halt
"""

# and a loop closed by jmp that never halts, whose trace ends in the jmp,
# before the pc it starts at:
SPIN = """
func main
  const r6 1
spin:
  add r1 r1 r6
  store r1 r1
  jmp spin
"""


# Loops whose loads and stores all go through one key register they never
# assign, so each keeps its storage slot in a local: one that only loads a
# key absent from storage, which must stay absent,
LOAD_ONLY = """
func main
  mov r0 r8
  const r1 99
  const r6 1
loop:
  load r2 r1
  add r3 r3 r2
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# one that only stores,
STORE_ONLY = """
func main
  mov r0 r8
  const r1 2
  const r6 1
loop:
  add r3 r3 r0
  store r1 r3
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# and one that hashes the slot's word on every iteration.
HASHED_SLOT = """
func main
  mov r0 r8
  const r1 3
  const r6 1
loop:
  load r2 r1
  hash r2 r2
  store r1 r2
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# Loops that compile generically: one that assigns its key register,
LOAD_OWN_KEY = """
func main
  mov r0 r8
  const r1 1
  const r6 1
loop:
  load r1 r1
  store r1 r0
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# one whose two key registers hold equal values, so they alias,
ALIASED_KEYS = """
func main
  mov r0 r8
  const r1 3
  const r2 3
  const r6 1
loop:
  load r3 r1
  add r3 r3 r6
  store r2 r3
  sub r0 r0 r6
  jnz r0 loop
  halt
"""

# and the update shape, whose key register advances every iteration.
UPDATE_LOOP = """
func main
  mov r0 r8
  const r3 1
loop:
  jnz r0 body
  halt
body:
  load r2 r1
  add r2 r2 r3
  store r1 r2
  add r1 r1 r3
  sub r0 r0 r3
  jmp loop
"""


def cursor_view(cursor):
    return cursor.pc, list(cursor.regs), cursor.state.storage, cursor.dynamic_index


def cut_view(cursor):
    """`cursor_view` and the state root from the cursor's kept tree, read at
    the cut as RICE reads it: right only if `written` holds every key stored
    since the last read."""
    return (*cursor_view(cursor), cursor.root_bytes())


def oracle_prefix(program, state, data, cap=300):
    """[None, `cut_view` after 1, ..., after T], T the halt or else cap, the
    root that of the oracle's storage from scratch, as `cursor.state.root()`
    computes it; and whether the program halted."""
    views = [None]
    for k in range(1, cap + 1):
        view = oracle_state_after(program.instructions, program.entry(), state.storage, data, k)
        if view[3] < k:
            return views, True
        views.append((*view, CicState(state.cid, state.code, view[2]).root().value))
    return views, False


def trace_sources(program):
    """The source `_compile_traces` generates for each trace of `program`."""
    make, sources = toy_vm._trace_source, []

    def record(code, pcs):
        sources.append(make(code, pcs))
        return sources[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toy_vm, "_trace_source", record)
        toy_vm._compile_traces(program.instructions, program.entries)
    return sources


def loop_trace(program):
    """The source of `program`'s one trace that runs as a loop."""
    (loop,) = [source for source in trace_sources(program) if "        if not r" in source]
    return loop


def test_compiled_traces_match_the_stepping_oracle_at_every_cut(monkeypatch):
    # traces run whole only where they fit before the cut or the gas limit,
    # so every prefix, every resume after it and every GasExhausted position
    # must equal the one-instruction-at-a-time oracle, whenever the program
    # is compiled: from its first instruction (COMPILE_AFTER 0), after any
    # number of single steps, or never (the single-stepper alone); and the
    # root read at every cut shows that `written` is complete there, also
    # where a loop defers its one slot's write to its exit
    rng = random.Random(61)
    cases = [(random_program(rng, max_iterations=12), b"") for _ in range(6)]
    cases += [(assemble(EVERY_OP_LOOP), to_word(9)), (assemble(DO_WHILE), to_word(9)),
              (assemble(JMP_INTO_A_LONG_BLOCK), b""), (assemble(JMP_INTO_A_BLOCK), to_word(9)),
              (assemble(SPIN), b""), (compute_program(), to_word(9)),
              (compute_program(key=9), to_word(9))]
    cases += [(assemble(source), to_word(9))
              for source in (LOAD_ONLY, STORE_ONLY, HASHED_SLOT, LOAD_OWN_KEY, ALIASED_KEYS)]
    storage = {to_word(n): to_word(n * n + 1) for n in range(4)}
    for program, data in cases:
        state = CicState(5, program.code_id, storage)
        oracle, halts = oracle_prefix(program, state, data)
        total = len(oracle) - 1
        for compile_after in (0, 10 ** 9):
            monkeypatch.setattr(toy_vm, "COMPILE_AFTER", compile_after)
            program = Program(program.instructions, program.entries, program.source)
            for k in range(1, total + 1):
                cursor = program.start(state, data)
                cursor, last = run_sub(program, cursor, 1, k)
                assert (last, cursor.halted) == (k, halts and k == total)
                assert cut_view(cursor) == oracle[k]
                if k < total:
                    cursor, last = run_sub(program, cursor, k + 1, total)
                    assert cut_view(cursor) == oracle[total]
            for limit in range(1, total):
                cursor = program.start(state, data, gas_limit=limit)
                with pytest.raises(GasExhausted):
                    run_sub(program, cursor, 1, total)
                assert cursor.dynamic_index == limit
                assert cut_view(cursor) == oracle[limit]
            assert (program.warmth[1] is None) == (compile_after > 0)
        for after in range(1, total):
            monkeypatch.setattr(toy_vm, "COMPILE_AFTER", after)
            fresh = Program(program.instructions, program.entries, program.source)
            cursor, last = run_sub(fresh, fresh.start(state, data), 1, total)
            assert cut_view(cursor) == oracle[total]
            assert fresh.warmth[0] == after and fresh.warmth[1] is not None


def loop_body(source):
    """The lines of a trace's `for` body."""
    lines = source.splitlines()
    start = lines.index("    for i in range(1, n + 1):") + 1
    return list(takewhile(lambda line: line.startswith("        "), lines[start:]))


def test_a_loop_keeps_its_one_storage_slot_in_a_local_only_where_the_rule_holds():
    # compute_program's loop loads and stores through r1 and never assigns
    # it: the slot is read once before the loop, written back once after
    loop = loop_trace(compute_program())
    assert not any("storage" in line or "written" in line for line in loop_body(loop))
    assert loop.count("slot = storage.get(r1, 0)") == loop.count("written.add(r1)") == 1
    assert loop.index("written.add(r1)") > loop.index("            break")
    # the update shape advances its key register, so its body keeps both
    loop = loop_trace(assemble(UPDATE_LOOP))
    body = "\n".join(loop_body(loop))
    assert "slot" not in loop
    assert "r2 = storage.get(r1, 0)" in body and "written.add(r1)" in body
    for source, slot, stores in [(LOAD_ONLY, True, False), (STORE_ONLY, True, True),
                                 (HASHED_SLOT, True, True), (LOAD_OWN_KEY, False, True),
                                 (ALIASED_KEYS, False, True)]:
        loop = loop_trace(assemble(source))
        assert ("slot" in loop) == slot and ("written.add" in loop) == stores


def test_a_program_compiles_once_it_has_single_stepped_compile_after():
    # single steps are summed over all runs of one Program, resumes included
    program = compute_program()
    state = fresh_state(program)
    run_full(program, state, compute_data(10))
    cursor = program.start(state, compute_data(10))
    run_sub(program, cursor, 1, 30)
    assert program.warmth == [compute_length(10) + 30, None]
    eta = (toy_vm.COMPILE_AFTER // 6) * 2
    final, total = run_full(program, state, compute_data(eta))
    assert program.warmth[0] == toy_vm.COMPILE_AFTER and program.warmth[1] is not None
    assert (final, total) == run_full(compute_program(), state, compute_data(eta))


def test_hand_built_programs_are_checked_and_pickle(monkeypatch):
    # traces are formatted from operands and steps are looked up by opcode,
    # so constructing a program checks that the opcode is known and the
    # operands are ints in range for their kinds (register 0..15, immediate
    # a word, label 0..len), before it either single-steps or compiles
    for bad in [(0, 1, "2; x", 0), (0, 1, 2.0, 0), (0, True, 2, 0),
                (16, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 2),
                (0, -1, 5, 0), (0, 16, 5, 0), (0, 1, 2 ** 256, 0),
                (2, 1, 2, 16), (10, 3, 0, 0), (11, 1, -1, 0)]:
        with pytest.raises(AssemblyError):
            Program(instructions=(bad, (15, 0, 0, 0)), entries={"main": 0}, source="")
    for edge in [(0, 15, 2 ** 256 - 1, 0), (10, 2, 0, 0), (11, 0, 0, 0)]:
        Program(instructions=(edge, (15, 0, 0, 0)), entries={"main": 0}, source="")
    # a compiled program holds functions, and still pickles
    monkeypatch.setattr(toy_vm, "COMPILE_AFTER", 0)
    program = assemble(EVERY_OP_LOOP)
    state = CicState(5, program.code_id)
    ran = run_full(program, state, to_word(3))
    assert program.warmth[1] is not None
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program and run_full(copy, state, to_word(3)) == ran


@pytest.mark.parametrize("line", ["add r1 r2", "const r1", "jmp", "jnz r1", "const r1 zz",
                                  "halt extra", "mov r1 r16", "func main", "jmp nowhere",
                                  "mov x1 r2", "const r1 -1", f"const r1 {2 ** 256}",
                                  "end:", "frob r1"])
def test_malformed_lines_raise_assembly_error_naming_the_line(line):
    with pytest.raises(AssemblyError, match="^line 4: "):
        assemble(f"func main\nend:\n  const r2 1\n  {line}\n  halt\n")


def test_compute_model_matches_interpreter_states_and_totals():
    program = compute_program()
    model = ComputeModel()
    assert model.code_id == program.code_id
    # the code id is memoised per key, never across keys
    keys = (7, 0, 7, 2 ** 256 - 1)
    assert [ComputeModel(key=k).code_id for k in keys] == [
        compute_program(k).code_id for k in keys]
    for eta in (0, 1, 5, 17):
        state = CicState(4, program.code_id)
        vm_final, total = run_full(program, state, compute_data(eta))
        assert model.final_state(state, eta) == vm_final
        # interior roots agree at every prefix length
        for t in range(0, total + 1, max(total // 7, 1)):
            cursor = program.start(state, compute_data(eta))
            closed = model.start(state, compute_data(eta))
            if t:
                run_sub(program, cursor, 1, t)
                closed.resume(1, t)
            assert closed.root_bytes() == cursor.state.root().value


def test_compute_model_gas_semantics_match_the_vm():
    model = ComputeModel()
    state = CicState(4, model.code_id)
    cursor = model.start(state, compute_data(4), gas_limit=compute_length(4) - 1)
    with pytest.raises(GasExhausted):
        cursor.resume(1, compute_length(4))


# (pre-state storage, counter key): the key alone, absent from an empty
# state, absent beside another key, a counter that wraps past 2**256 within
# the run, and the key beside a second key
CLOSED_FORM_STATES = [
    ({to_word(3): to_word(40)}, 3),
    ({}, 3),
    ({to_word(9): to_word(1)}, 3),
    ({to_word(3): to_word(2 ** 256 - 5)}, 3),
    ({to_word(3): to_word(40), to_word(9): to_word(1)}, 3),
]


@pytest.mark.parametrize("storage, key", CLOSED_FORM_STATES)
def test_compute_model_cursor_root_is_the_state_root_at_every_index(storage, key):
    # the cursor keeps its own tree; at every dynamic index its root must be
    # that of the interpreter's state, and a RICE round must leave the
    # pre-state's words, root and proofs as they were
    eta = 30
    model = ComputeModel(key=key)
    state = CicState(4, model.code_id, storage)

    def observed():
        return (state.storage, state.root(), [prove_inclusion(state, k) for k in sorted(storage)])
    before = observed()
    cursor = model.start(state, compute_data(eta))
    program = compute_program(key)
    interpreted = program.start(state, compute_data(eta))
    for t in range(1, compute_length(eta) + 1):
        assert cursor.resume(t, t) == (cursor, t)
        run_sub(program, interpreted, t, t)
        assert cursor.root_bytes() == interpreted.state.root().value
    assert cursor.halted and interpreted.halted
    final = run_full(program, state, compute_data(eta))[0]
    assert model.final_state(state, eta) == final
    assert final.get(key) == to_word((int.from_bytes(state.get(key), "big") + eta) % 2 ** 256)
    rice_execute_traced(model, state, compute_data(eta), 2, sha256(b"closed-form"))
    assert observed() == before


def test_compute_model_cursors_from_one_state_resume_interleaved():
    # two cursors of one state, resumed in turn, give the roots each gives
    # when run alone
    eta = 50
    model = ComputeModel(key=3)
    state = CicState(4, model.code_id, {to_word(3): to_word(40), to_word(9): to_word(1)})
    rng = random.Random(23)
    cuts = [sorted(rng.sample(range(1, compute_length(eta)), 12)) + [compute_length(eta)]
            for _ in range(2)]

    def step(cursor, t):
        cursor.resume(cursor.dynamic_index + 1, t)
        return cursor.root_bytes()
    alone = []
    for run in cuts:
        cursor = model.start(state, compute_data(eta))
        alone.append([step(cursor, t) for t in run])
    cursors = [model.start(state, compute_data(eta)) for _ in cuts]
    interleaved = [[], []]
    for pair in zip(*cuts):
        for i, t in enumerate(pair):
            interleaved[i].append(step(cursors[i], t))
    assert interleaved == alone
    assert alone[0][-1] == alone[1][-1] == model.final_state(state, eta).root().value


def test_transaction_validation():
    with pytest.raises(ValueError):
        Transaction(tid=b"t" * 32, cid=b"c" * 32, data=b"", gas_limit=0, gas_price=1)
    tx = Transaction(tid=b"t" * 32, cid=b"c" * 32, data=b"", gas_limit=10, gas_price=1)
    assert tx.nonce is None
    assert replace(tx, nonce=sha256(b"n")) == Transaction(
        tid=b"t" * 32, cid=b"c" * 32, data=b"", gas_limit=10, gas_price=1, nonce=sha256(b"n"))


# r8 = count, r9 = first key, r10 = increment: rewrites the keys of
# [first, first + count) that are present and inserts the others
REWRITE_AND_INSERT = """
func mix
  mov r0 r8
  mov r1 r9
  const r3 1
loop:
  jnz r0 body
  halt
body:
  load r2 r1
  add r2 r2 r10
  store r1 r2
  add r1 r1 r3
  sub r0 r0 r3
  jmp loop
"""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 40), st.integers(0, 2 ** 256 - 1), max_size=20),
       st.integers(0, 40), st.integers(0, 30),
       st.lists(st.integers(1, 60), max_size=6), st.lists(st.integers(1, 60), max_size=6))
def test_cursors_from_one_state_share_nothing_with_it_or_each_other(items, first, count,
                                                                    cuts_a, cuts_b):
    # both cursors start from copies of the storage as words and the tree the
    # state keeps; each one's root must be its own state's at every cut, and
    # the state must read as before once both have run
    storage = {to_word(k): to_word(v) for k, v in items.items()}
    data = to_word(count) + to_word(first) + to_word(5)
    for compile_after in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toy_vm, "COMPILE_AFTER", compile_after)
            program = assemble(REWRITE_AND_INSERT)
            state = CicState(9, program.code_id, storage)
            before = (state.root(), state.storage,
                      [prove_inclusion(state, k) for k in sorted(storage)])
            cursors = [program.start(state, data), program.start(state, data)]
            # each list of steps ends with a run to the halt
            for steps in zip_longest(cuts_a + [10 ** 6], cuts_b + [10 ** 6]):
                for cursor, step in zip(cursors, steps):
                    if step is not None and not cursor.halted:
                        run_sub(program, cursor, cursor.dynamic_index + 1,
                                cursor.dynamic_index + step)
                        assert cursor.root_bytes() == cursor.state.root().value
            assert all(cursor.halted for cursor in cursors)
            assert (state.root(), state.storage,
                    [prove_inclusion(state, k) for k in sorted(storage)]) == before
            final, _ = run_full(program, state, data)
            assert final == cursors[0].state == cursors[1].state
            assert final == run_full(program, CicState(9, program.code_id, storage), data)[0]


WRAP = """
func main
  const r0 2
  const r11 1
loop:
  add r1 r8 r9
  sub r2 r8 r9
  add r3 r9 r8
  sub r4 r9 r8
  add r5 r8 r8
  sub r6 r10 r10
  add r7 r1 r2
  sub r0 r0 r11
  jnz r0 loop
  halt
"""
WORD_MAX = 2 ** 256 - 1
edge_words = st.sampled_from([0, 1, 2, WORD_MAX - 1, WORD_MAX]) | st.integers(0, WORD_MAX)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edge_words, edge_words)
def test_add_and_sub_wrap_at_both_ends_stepped_and_compiled(x, y):
    data = to_word(x) + to_word(y) + to_word(0)
    w = WORD_MAX + 1
    expected = [(x + y) % w, (x - y) % w, (x + y) % w, (y - x) % w, 2 * x % w, 0, 2 * x % w]
    for compile_after in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toy_vm, "COMPILE_AFTER", compile_after)
            program = assemble(WRAP)
            state = CicState(5, program.code_id)
            cursor, total = run_sub(program, program.start(state, data), 1, 100)
            assert cursor.halted and (program.warmth[1] is None) == (compile_after > 0)
            assert cursor.regs[1:8] == expected
            assert cursor_view(cursor) == oracle_state_after(
                program.instructions, program.entry(), {}, data, total)
