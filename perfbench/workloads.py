"""The benchmark's seeded workloads.

Each workload turns a 32-byte workload seed into its inputs, exposes one
operation `op(i)` that calls a public function of cicsim, and checks every
output of that operation. Operation i depends only on the seed and on i, so
a run replays exactly; only the number of operations that fit into the
measuring window varies with host speed.

Why each workload exists is written in NOTES.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math

from cicsim import experiments, miracle, protocol, rice, toy_vm
from cicsim.hashing import to_word
from cicsim.merkle_state import CicState


class CheckFailed(Exception):
    """An operation returned an output that fails verification."""


def derive(seed: bytes, *tags) -> bytes:
    """Sub-seed for one input: SHA-256 over the seed and the tags."""
    h = hashlib.sha256(seed)
    for tag in tags:
        h.update(tag if isinstance(tag, bytes) else str(tag).encode())
        h.update(b"\x00")
    return h.digest()


# Operation index -1 is the warm-up. Where an operation's cost depends on
# the draw of its inputs, the warm-up input comes from this fixed seed, so
# that set-up time does not vary with the workload seed.
WARMUP_SEED = derive(b"cicsim-perfbench/warm-up")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_protocol_run(result, audit: dict) -> None:
    """Conservation plus the log audit's window discipline and binding."""
    expect(result.conserved, "value not conserved")
    expect(audit["window_discipline"], "event outside its window")
    expect(audit["reveal_binding"], "reveal does not open its commitment")


class Workload:
    """One operation kind. Subclasses generate inputs in __init__."""

    name = ""
    # fixed operation count of the traced run, so per-layer counts repeat
    trace_ops = 0
    # the calibration loop (calibrate.py) whose drift matches this workload's
    calibration = "python"

    def __init__(self, seed: bytes):
        self.seed = seed

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def work(self, out) -> int:
        """Simulated work one operation completed, for work_per_s: events,
        instructions or Monte Carlo trials."""
        raise NotImplementedError

    def digest(self, out) -> bytes:
        """Digest of everything the operation computed, for golden checks."""
        raise NotImplementedError


# --- protocol ------------------------------------------------------------------

PAPER_M = 1600
PAPER_Q = 0.125
PAPER_F = 0.45
PAPER_BETA = 1e-6
PAPER_HONEST = 880          # M (1 - f): the actual fraction f is f_max
REPLAY_EVERY = 8            # replay identity is checked on every 8th run


class PaperProtocol(Workload):
    """Back-to-back paper-scale protocol runs, one transaction each."""

    name = "paper_protocol"
    trace_ops = 24

    def scenario(self, i: int) -> protocol.Scenario:
        seed = WARMUP_SEED if i < 0 else derive(self.seed, "paper", i)
        return protocol.Scenario(
            seed=seed.hex(), m_total=PAPER_M,
            q=PAPER_Q, f_max=PAPER_F, beta=PAPER_BETA,
            strategies=(("honest", PAPER_HONEST),
                        ("byz_single", PAPER_M - PAPER_HONEST)))

    def op(self, i: int):
        return protocol.run_scenario(self.scenario(i))

    def check(self, i: int, out) -> None:
        check_protocol_run(out, experiments.audit_event_log(out.events))
        expect(out.settled == 1, f"{out.settled} transactions settled, expected 1")
        if i % REPLAY_EVERY == 0:
            report = protocol.replay_check(out.scenario, out.lines)
            expect(report.identical,
                   f"replay diverges at event {report.first_divergence}")

    def work(self, out) -> int:
        return len(out.events)

    def digest(self, out) -> bytes:
        return derive(b"", out.total_blocks, "\n".join(out.lines))


BATCH_SCENARIOS = 4


class RandomBatch(Workload):
    """Successive criterion-9 batches with replay on."""

    name = "random_batch"
    trace_ops = 48

    def op(self, i: int):
        seed = WARMUP_SEED if i < 0 else derive(self.seed, "batch", i)
        return experiments.protocol_batch_rows(BATCH_SCENARIOS, seed)

    def check(self, i: int, out) -> None:
        expect(len(out) == BATCH_SCENARIOS, "batch returned the wrong row count")
        for row in out:
            for key in ("conserved", "window_discipline", "reveal_binding",
                        "replay_identical"):
                expect(row[key], f"scenario {row['trial']}: {key} is false")

    def work(self, out) -> int:
        return sum(row["events"] for row in out)

    def digest(self, out) -> bytes:
        return derive(b"", json.dumps(out, sort_keys=True))


# --- RICE on the interpreter ------------------------------------------------------

# r8 = key count, r9 = first key, r10 = increment. `update` rewrites keys
# that already exist, so the key set stays fixed; `insert` writes keys that
# do not, so the key set grows by one per iteration.
UPDATE_SRC = """
func update
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

PROGRAMS = {"update": toy_vm.assemble(UPDATE_SRC), "insert": toy_vm.assemble(INSERT_SRC)}
RICE_KINDS = ("compute", "update", "insert")
RICE_POOL = 4               # distinct (program, state, data) inputs per kind
UPDATE_KEYS = 500
INSERT_KEYS = 2000
INSERT_PRESENT = 32         # keys already in storage before the inserts
COMPUTE_ETA = 16_000        # T = 6 * eta + 5 = 96,005 instructions


class RiceVM(Workload):
    """One RICE round per operation on the interpreter, kinds in rotation.

    - compute: `compute_program` on one key; the interpreter does the work.
    - update: UPDATE_KEYS existing keys rewritten; the Merkle root over a
      fixed key set does the work.
    - insert: INSERT_KEYS fresh keys stored; the Merkle root over a growing
      key set does the work.

    Operation i runs kind i % 3 on one of RICE_POOL inputs of that kind,
    with its own round index and round-1 entropy, so no two operations share
    a seed schedule. The reference for every input is the final state of a
    plain `run_full`, computed during set-up.
    """

    name = "rice_vm"
    trace_ops = 36
    kinds = RICE_KINDS

    def __init__(self, seed: bytes):
        super().__init__(seed)
        self.inputs = {
            "compute": [self.compute_input(j) for j in range(RICE_POOL)],
            "update": [self.keyed_input("update", j, UPDATE_KEYS, self.update_storage)
                       for j in range(RICE_POOL)],
            "insert": [self.keyed_input("insert", j, INSERT_KEYS, self.insert_storage)
                       for j in range(RICE_POOL)],
        }
        self.reference = {}
        for kind, inputs in self.inputs.items():
            for j, (program, state, data) in enumerate(inputs):
                final, total = toy_vm.run_full(program, state, data)
                self.reference[kind, j] = (final.root().value, total)

    def kind_of(self, i: int) -> str:
        return RICE_KINDS[i % len(RICE_KINDS)]

    def round_args(self, i: int):
        j = (i // len(RICE_KINDS)) % RICE_POOL
        program, state, data = self.inputs[self.kind_of(i)][j]
        round_index = 1 + (i // (len(RICE_KINDS) * RICE_POOL)) % 3
        entropy = derive(self.seed, "rice", "entropy", i)
        return program, state, data, round_index, entropy

    def op(self, i: int):
        return rice.rice_execute_traced(*self.round_args(i))

    def plain(self, i: int):
        """The same input without randomness insertion."""
        program, state, data, _, _ = self.round_args(i)
        return toy_vm.run_full(program, state, data)

    def check(self, i: int, out) -> None:
        digest, trace = out
        j = (i // len(RICE_KINDS)) % RICE_POOL
        root, total = self.reference[self.kind_of(i), j]
        expect(digest.root.value == root, "RICE root differs from run_full's root")
        expect(trace.total == total, "RICE executed a different instruction count")
        expect(rice.check_phi_bounds(trace), "seed-update count outside its band")

    def work(self, out) -> int:
        return out[1].total

    def digest(self, out) -> bytes:
        digest, trace = out
        return derive(b"", digest.encode(), trace.total, trace.update_indices)

    def compute_input(self, j: int):
        raw = derive(self.seed, "compute", "key", j)
        key = int.from_bytes(raw[:4], "big")
        program = toy_vm.compute_program(key=key)
        state = CicState(derive(self.seed, "compute", "cid", j), program.code_id)
        state = state.put(key, int.from_bytes(raw[4:8], "big"))
        return program, state, toy_vm.compute_data(COMPUTE_ETA)

    def update_storage(self, j: int, base: int) -> dict:
        return {to_word(base + n): derive(self.seed, "update", "v", j, n)
                for n in range(UPDATE_KEYS)}

    def insert_storage(self, j: int, base: int) -> dict:
        return {derive(self.seed, "insert", "k", j, n): derive(self.seed, "insert", "v", j, n)
                for n in range(INSERT_PRESENT)}

    def keyed_input(self, kind: str, j: int, count: int, storage):
        """Input j of a keyed loop: registers hold (count, first key,
        increment); `storage(j, base)` is the storage before the run."""
        # 255 bits, so base + count never wraps past 2**256
        base = int.from_bytes(derive(self.seed, kind, "base", j), "big") >> 1
        increment = 1 + int.from_bytes(derive(self.seed, kind, "inc", j)[:2], "big")
        program = PROGRAMS[kind]
        state = CicState(derive(self.seed, kind, "cid", j), program.code_id,
                         storage(j, base))
        return program, state, to_word(count) + to_word(base) + to_word(increment)


# --- consensus Monte Carlo ---------------------------------------------------------

MC_TRIALS = 20_000


class ConsensusMC(Workload):
    """One sweep over a fixed grid of operating points per operation.

    Criterion 1's point (M=1600, q=0.125, f_max=0.45, beta=1e-6) and
    criterion 2's (f_max=0.35, beta=1e-20, q solved for five expected
    rounds), each at three actual Byzantine fractions. The six points cost
    different amounts, so one operation is the whole grid rather than one
    point: a median over a cyclic mix of six cost levels would jump between
    them from run to run.
    """

    name = "consensus_mc"
    trace_ops = 40
    calibration = "numpy"

    def __init__(self, seed: bytes):
        super().__init__(seed)
        c1 = miracle.ConsensusParams(PAPER_M, PAPER_F, PAPER_Q, PAPER_BETA)
        q2 = miracle.solve_q_for_expected_rounds(PAPER_M, 0.35, 1e-20, 5.0)
        c2 = miracle.ConsensusParams(PAPER_M, 0.35, q2, 1e-20)
        self.grid = ([(c1, f) for f in (0.45, 0.40, 0.30)]
                     + [(c2, f) for f in (0.0, 0.25, 0.35)])

    def op(self, i: int):
        seed = derive(self.seed, "mc", i)
        return [experiments.sweep_point(params, f, MC_TRIALS, seed)
                for params, f in self.grid]

    def check(self, i: int, out) -> None:
        for stats in out:
            expect(stats.trials == MC_TRIALS, "wrong trial count")
            expect(stats.unconverged == 0, f"f={stats.f}: unconverged trials")
            expect(1.0 <= stats.mean_rounds <= 100.0, "mean rounds out of range")
            expect(0.0 <= stats.p_wrong <= 1.0, "error rate out of range")
            expect(math.isfinite(stats.ci95_rounds), "confidence interval not finite")

    def work(self, out) -> int:
        return sum(stats.trials for stats in out)

    def digest(self, out) -> bytes:
        return derive(b"", repr(out))


WORKLOADS = {w.name: w for w in (PaperProtocol, RandomBatch, RiceVM, ConsensusMC)}
