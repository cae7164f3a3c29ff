"""Pinned artifact hashes: event logs, CSVs and traces stay byte-identical.

Every root, digest, event line and CSV byte must reproduce from a seed, so a
refactor proves itself by leaving these SHA-256 pins unchanged. Only
artifacts computed by pure-Python code are pinned (no numpy linear algebra),
so the pins do not depend on the BLAS build.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from cicsim import cli, experiments, protocol, rice, toy_vm
from cicsim.hashing import sha256, to_word
from cicsim.merkle_state import CicState

from oracles import canonical_line
from test_toy_vm import DO_WHILE, EVERY_OP_LOOP, JMP_INTO_A_BLOCK, JMP_INTO_A_LONG_BLOCK, SPIN

SEED = sha256(b"artifact-pins")
ROOT = Path(__file__).resolve().parent.parent


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_random_scenario_event_logs():
    h = hashlib.sha256()
    for index in range(100):
        result = protocol.run_scenario(experiments.random_scenario(index, SEED))
        assert result.lines == [canonical_line(e) for e in result.events]
        h.update("\n".join(result.lines).encode() + b"\n\n")
    assert h.hexdigest() == (
        "a271664e087836379c82cc280f88eb6199d0e370d001905e3d7dd50bef582010")


def test_protocol_demo_stdout():
    # demo 04 prints event dicts in their insertion order, a timeline and the
    # replay verdict; all pure-Python protocol code
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_protocol_run.py")],
                          capture_output=True, env=env, timeout=120, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "d8c4b5831de7f9e451fa6677723de25f9767bea280e4a6e961b9706c5bd0fc92")


def test_paper_scale_event_log(tmp_path):
    scenario = protocol.Scenario(
        seed=SEED.hex(), m_total=1600, q=0.125, f_max=0.45, beta=1e-6,
        strategies=(("honest", 880), ("byz_single", 720)))
    path = tmp_path / "paper.jsonl"
    result = protocol.run_scenario(scenario)
    assert result.lines == [canonical_line(e) for e in result.events]
    experiments.write_event_log(str(path), result)
    assert file_hash(path) == (
        "520e58509e2330e49fa996cd873c47a6e9a59d53126d090af41904c1ac05c89e")


def test_protocol_run_csv():
    spec = experiments.ExperimentSpec(kind="protocol_run", trials=12, seed=SEED.hex())
    csv_text = experiments.render_csv(*experiments.run(spec))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "bbc130fa7fe7f58e90c9514f604f0c434a8ae03ce6d5bd27d6a449894f89af80")


def test_rice_unmatched_csv():
    # the synthetic substrate
    spec = experiments.ExperimentSpec(kind="rice_unmatched", trials=40,
                                      params={"k": 9, "rounds": 3}, seed=SEED.hex())
    csv_text = experiments.render_csv(*experiments.run(spec))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "eba5d6afc39b24552815da3cfd250a579dbae41b3a2f4c055cce48ddb05b5c7b")


def test_rice_overhead_rows():
    # all three substrates: interpreter, closed-form model and synthetic; the
    # rows are pinned without the least-squares fit, which uses numpy
    rows = experiments.rice_overhead_rows(60, 100, 20_000, SEED, vm_fraction=0.4)
    csv_text = experiments.render_csv(rows, {})
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "220d643a82cbe7236d599c736961417a2cec30e9fb096813bde4ea7430db1fde")


def test_cli_rice_trace(tmp_path):
    # the closed-form model substrate
    path = tmp_path / "trace.jsonl"
    assert cli.main(["rice-trace", "--seed", SEED.hex(), "--eta", "500",
                     "--rounds", "3", "--out", str(path)]) == 0
    assert file_hash(path) == (
        "22f0516f2e26f0ab5a80a4da807ee4dec4bcfcb587b9e44c5f66d21b9d13d85f")


# r8 = key count, r9 = first key, r10 = increment. REWRITE_SRC reads and
# rewrites keys already in storage; INSERT_SRC stores keys that are not.
REWRITE_SRC = """
func rewrite
  mov r0 r8
  mov r1 r9
  mov r5 r10
  const r3 1
loop:
  jnz r0 body
  halt
body:
  load r2 r1
  add r2 r2 r5
  store r1 r2
  add r1 r1 r3
  sub r0 r0 r3
  jmp loop
"""

INSERT_SRC = """
func insert
  mov r0 r8
  mov r1 r9
  mov r5 r10
  const r3 1
loop:
  jnz r0 body
  halt
body:
  add r2 r1 r5
  store r1 r2
  add r1 r1 r3
  sub r0 r0 r3
  jmp loop
"""


def keyed_rice_digests(src: str, count: int, storage: dict, base: int) -> str:
    """Hash of three RICE rounds' digests and update indices on one input.

    The seed chain absorbs the state root at every update index, so the pin
    fixes every intermediate root of the run, not only the final one.
    """
    program = toy_vm.assemble(src)
    state = CicState(sha256(SEED, b"keyed-cid"), program.code_id, storage)
    data = to_word(count) + to_word(base) + to_word(7)
    h = hashlib.sha256()
    for round_index in (1, 2, 3):
        digest, trace = rice.rice_execute_traced(program, state, data, round_index,
                                                 sha256(SEED, b"keyed-entropy"))
        h.update(digest.encode())
        h.update(repr(trace.update_indices).encode())
    return h.hexdigest()


def test_rice_rewrite_digests():
    # 500 keys present; every store rewrites one of them
    base = int.from_bytes(sha256(SEED, b"rewrite-base"), "big") >> 1
    storage = {to_word(base + n): sha256(SEED, b"rewrite", to_word(n)) for n in range(500)}
    assert keyed_rice_digests(REWRITE_SRC, 500, storage, base) == (
        "000b4e0db2830c9b763c6b2f732a9b0c8f3cf41aff161ec1b754b0e0b7fa48c4")


def test_rice_insert_digests():
    # 2,000 fresh keys stored among 32 random present ones
    base = int.from_bytes(sha256(SEED, b"insert-base"), "big") >> 1
    storage = {sha256(SEED, b"insert-key", to_word(n)): sha256(SEED, b"insert", to_word(n))
               for n in range(32)}
    assert keyed_rice_digests(INSERT_SRC, 2000, storage, base) == (
        "4f50962feabe57f82dc19581c5b3cc83648721aa004aad7ae3ca2588669bd874")


PINNED_CODE_IDS = {
    "compute": "a264955d8ac1efc87c40e7c69e094a916a85289fe70137755f9db36f3670fd24",
    "EVERY_OP_LOOP": "b8b5eefb2b5f1d29a6c53178c948873fe1926644b7857b40fd52de77bafc82f1",
    "DO_WHILE": "caca35920b7eedd8fff0b217c980a83920fd9176c14fac8738fd2447fcf2e2ca",
    "JMP_INTO_A_LONG_BLOCK": "6ed19c46e7cefbcd50970e13bdd2942d3402a4a96c80223cea3e2b538b760ecd",
    "JMP_INTO_A_BLOCK": "77e2e12359a542eeeec34fa3ee1b06f91bfa640993995c3f513d8a4d45c84188",
    "SPIN": "b585f5373556dda832d7958e642c74028739e15ad0cce021c2c8cf8b063867df",
}


def test_program_code_ids():
    # the assembler's canonical text and decoding, pinned at their source:
    # compute_program, the hand-written shapes of test_toy_vm and 20 seeded
    # random programs
    hand_written = {"EVERY_OP_LOOP": EVERY_OP_LOOP, "DO_WHILE": DO_WHILE,
                    "JMP_INTO_A_LONG_BLOCK": JMP_INTO_A_LONG_BLOCK,
                    "JMP_INTO_A_BLOCK": JMP_INTO_A_BLOCK, "SPIN": SPIN}
    named = {"compute": toy_vm.compute_program(0),
             **{name: toy_vm.assemble(src) for name, src in hand_written.items()}}
    rng = random.Random(SEED)
    randoms = [toy_vm.random_program(rng) for _ in range(20)]
    assert {name: p.code_id.hex() for name, p in named.items()} == PINNED_CODE_IDS
    assert hashlib.sha256(b"".join(p.code_id for p in randoms)).hexdigest() == (
        "27209ec1b3983b87ed98e03784263ba4414f69cc5335590b7a8381623536be4f")
    decoded = repr([(p.instructions, p.entries) for p in [*named.values(), *randoms]])
    assert hashlib.sha256(decoded.encode()).hexdigest() == (
        "f58d28e31a74e4248dcdffb384d32bdf34a828b7173bdbaf312398deb3f8ec33")
