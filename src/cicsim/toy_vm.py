"""Deterministic, gas-metered, interruptible register VM over contract state.

The interpreter counts *dynamic* instructions: the t-th executed instruction
(1-based, loop iterations included) has index t, and a full run of a halting
program executes T instructions in total. Every instruction costs one unit
of gas, so gas consumed equals T. Execution can be cut at any dynamic index
and resumed, and any chaining of subarray runs reproduces the full run
byte-exactly.

ISA (16 opcodes, 16 registers of 256-bit unsigned words, wraparound
arithmetic):

    const r imm      mov r a        add/sub/mul/mod/xor/and r a b
    lt/eq r a b      jmp label      jnz cond label
    load r k         store k v      hash r a       halt

`load`/`store` address contract storage through the key held in a register;
`hash` writes the SHA-256 of a register's word encoding. `mod` by zero
yields zero. Input data is split into 32-byte words loaded into registers
r8..r15 before execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .hashing import WORD_MASK, from_word, sha256, to_word
from .merkle_state import CicState, StorageTree

NUM_REGISTERS = 16
DATA_REGISTER_BASE = 8

(OP_CONST, OP_MOV, OP_ADD, OP_SUB, OP_MUL, OP_MOD, OP_XOR, OP_AND,
 OP_LT, OP_EQ, OP_JMP, OP_JNZ, OP_LOAD, OP_STORE, OP_HASH, OP_HALT) = range(16)

_MNEMONICS = {
    "const": OP_CONST, "mov": OP_MOV, "add": OP_ADD, "sub": OP_SUB,
    "mul": OP_MUL, "mod": OP_MOD, "xor": OP_XOR, "and": OP_AND,
    "lt": OP_LT, "eq": OP_EQ, "jmp": OP_JMP, "jnz": OP_JNZ,
    "load": OP_LOAD, "store": OP_STORE, "hash": OP_HASH, "halt": OP_HALT,
}

_THREE_REG = {OP_ADD, OP_SUB, OP_MUL, OP_MOD, OP_XOR, OP_AND, OP_LT, OP_EQ}


class VmError(Exception):
    pass


class AssemblyError(VmError):
    pass


class GasExhausted(VmError):
    pass


class InvalidResume(VmError):
    pass


@dataclass(frozen=True)
class Program:
    """An assembled program: decoded instructions plus entry points.

    `code_id` is the SHA-256 of the canonical source text and serves as the
    immutable program reference stored in contract state.
    """

    instructions: tuple
    entries: dict
    source: str

    @property
    def code_id(self) -> bytes:
        return sha256(b"cicsim/program/v1", self.source.encode())

    def entry(self) -> int:
        """The first function's entry point."""
        if not self.entries:
            raise AssemblyError("program has no entry function")
        return next(iter(self.entries.values()))

    def start(self, state: CicState, data: bytes = b"",
              gas_limit: Optional[int] = None) -> "ExecCursor":
        return start(self, state, data, gas_limit=gas_limit)


def _parse_reg(tok: str, line_no: int) -> int:
    if not tok.startswith("r") or not tok[1:].isdigit():
        raise AssemblyError(f"line {line_no}: expected register, got {tok!r}")
    idx = int(tok[1:])
    if not 0 <= idx < NUM_REGISTERS:
        raise AssemblyError(f"line {line_no}: register out of range: {tok}")
    return idx


def assemble(source: str) -> Program:
    """Assemble the one-instruction-per-line textual format.

    Lines: `func NAME` marks an entry point, `label:` defines a jump target,
    `;` or `#` starts a comment. Immediates are decimal or 0x-hex.
    """
    entries: dict = {}
    labels: dict = {}
    raw: list = []
    for line_no, line in enumerate(source.splitlines(), 1):
        text = line.split(";")[0].split("#")[0].strip()
        if not text:
            continue
        if text.endswith(":"):
            name = text[:-1].strip()
            if not name or name in labels:
                raise AssemblyError(f"line {line_no}: bad or duplicate label {name!r}")
            labels[name] = len(raw)
            continue
        toks = text.split()
        if toks[0] == "func":
            if len(toks) != 2:
                raise AssemblyError(f"line {line_no}: func takes one name")
            entries[toks[1]] = len(raw)
            continue
        raw.append((line_no, toks))

    instructions = []
    for line_no, toks in raw:
        op_name, args = toks[0], toks[1:]
        if op_name not in _MNEMONICS:
            raise AssemblyError(f"line {line_no}: unknown opcode {op_name!r}")
        op = _MNEMONICS[op_name]
        if op == OP_HALT:
            instructions.append((op, 0, 0, 0))
        elif op == OP_CONST:
            reg = _parse_reg(args[0], line_no)
            imm = int(args[1], 0)
            if not 0 <= imm <= WORD_MASK:
                raise AssemblyError(f"line {line_no}: immediate out of range")
            instructions.append((op, reg, imm, 0))
        elif op in (OP_MOV, OP_LOAD, OP_STORE, OP_HASH):
            instructions.append((op, _parse_reg(args[0], line_no),
                                 _parse_reg(args[1], line_no), 0))
        elif op in _THREE_REG:
            instructions.append((op, _parse_reg(args[0], line_no),
                                 _parse_reg(args[1], line_no),
                                 _parse_reg(args[2], line_no)))
        elif op == OP_JMP:
            if args[0] not in labels:
                raise AssemblyError(f"line {line_no}: unknown label {args[0]!r}")
            instructions.append((op, labels[args[0]], 0, 0))
        elif op == OP_JNZ:
            if args[1] not in labels:
                raise AssemblyError(f"line {line_no}: unknown label {args[1]!r}")
            instructions.append((op, _parse_reg(args[0], line_no), labels[args[1]], 0))
    if not entries:
        entries["main"] = 0
    canonical = "\n".join(" ".join(t) for _, t in raw)
    return Program(instructions=tuple(instructions), entries=entries,
                   source=canonical + "\n" + ",".join(sorted(entries)))


@dataclass(frozen=True)
class Transaction:
    """A contract invocation; `nonce` is assigned at on-chain inclusion."""

    tid: bytes
    cid: bytes
    data: bytes
    gas_limit: int
    gas_price: int
    nonce: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.gas_limit <= 0:
            raise ValueError("gas limit must be positive")

    def with_nonce(self, nonce: bytes) -> "Transaction":
        return Transaction(self.tid, self.cid, self.data,
                           self.gas_limit, self.gas_price, nonce)


class ExecCursor:
    """Mutable position of an interrupted run; single-owner.

    `dynamic_index` counts instructions executed so far; resuming must start
    at `dynamic_index + 1`. The underlying storage dict is private to the
    cursor: `state` materializes a value-semantics snapshot on demand.
    Stores add their key to `written`; `root_bytes` hands those keys to the
    cursor's `StorageTree`, so a root rehashes only what changed since the
    last one.
    """

    __slots__ = ("program", "cid", "code", "storage", "written", "tree", "regs",
                 "pc", "dynamic_index", "halted", "data", "gas_limit")

    def __init__(self, program: Program, state: CicState, data: bytes,
                 gas_limit: Optional[int], pc: int):
        self.program = program
        self.cid = state.cid
        self.code = state.code
        self.storage = state.storage  # already a private copy
        self.written: set = set()
        self.tree = StorageTree()
        self.regs = [0] * NUM_REGISTERS
        self.pc = pc
        self.dynamic_index = 0
        self.halted = False
        self.data = data
        self.gas_limit = gas_limit
        words = [data[i:i + 32] for i in range(0, len(data), 32)]
        if len(words) > NUM_REGISTERS - DATA_REGISTER_BASE:
            raise VmError("input data exceeds 8 words")
        for i, w in enumerate(words):
            self.regs[DATA_REGISTER_BASE + i] = int.from_bytes(w.ljust(32, b"\0"), "big")

    @property
    def state(self) -> CicState:
        return CicState(self.cid, self.code, self.storage)

    def root_bytes(self) -> bytes:
        """The state root, `state.root().value`, from the kept tree."""
        tree_root = self.tree.root(self.storage, self.written)
        self.written.clear()
        return sha256(self.cid, self.code, tree_root)

    def resume(self, t_i: int, t_f: int):
        return run_sub(self.program, self, t_i, t_f)


def check_resume(cursor, t_i: int, t_f: int) -> None:
    """Reject a resume of a halted cursor, a gap or overlap with the
    instructions already run, and an empty subarray."""
    if cursor.halted:
        raise InvalidResume("cursor already halted")
    if t_i != cursor.dynamic_index + 1:
        raise InvalidResume(
            f"resume at t_i={t_i}, cursor expects {cursor.dynamic_index + 1}")
    if t_i > t_f:
        raise InvalidResume(f"empty subarray [{t_i}, {t_f}]")


def start(program: Program, state: CicState, data: bytes = b"",
          gas_limit: Optional[int] = None) -> ExecCursor:
    return ExecCursor(program, state, data, gas_limit, program.entry())


def _step_until(cursor: ExecCursor, t_f: Optional[int]) -> None:
    """Execute instructions while dynamic_index < t_f (or until halt)."""
    code = cursor.program.instructions
    regs = cursor.regs
    storage = cursor.storage
    written = cursor.written
    pc = cursor.pc
    t = cursor.dynamic_index
    limit = cursor.gas_limit
    n_instr = len(code)
    while t_f is None or t < t_f:
        if limit is not None and t >= limit:
            cursor.pc, cursor.dynamic_index = pc, t
            raise GasExhausted(f"gas limit {limit} reached before halt")
        if pc >= n_instr:
            cursor.pc, cursor.dynamic_index = pc, t
            raise VmError("execution ran past end of program")
        op, a, b, c = code[pc]
        t += 1
        pc += 1
        if op == OP_ADD:
            regs[a] = (regs[b] + regs[c]) & WORD_MASK
        elif op == OP_JNZ:
            if regs[a]:
                pc = b
        elif op == OP_LOAD:
            regs[a] = int.from_bytes(
                storage.get(regs[b].to_bytes(32, "big"), b"\0" * 32), "big")
        elif op == OP_STORE:
            key = regs[a].to_bytes(32, "big")
            storage[key] = regs[b].to_bytes(32, "big")
            written.add(key)
        elif op == OP_SUB:
            regs[a] = (regs[b] - regs[c]) & WORD_MASK
        elif op == OP_MUL:
            regs[a] = (regs[b] * regs[c]) & WORD_MASK
        elif op == OP_CONST:
            regs[a] = b
        elif op == OP_JMP:
            pc = a
        elif op == OP_MOD:
            regs[a] = regs[b] % regs[c] if regs[c] else 0
        elif op == OP_XOR:
            regs[a] = regs[b] ^ regs[c]
        elif op == OP_AND:
            regs[a] = regs[b] & regs[c]
        elif op == OP_LT:
            regs[a] = 1 if regs[b] < regs[c] else 0
        elif op == OP_EQ:
            regs[a] = 1 if regs[b] == regs[c] else 0
        elif op == OP_MOV:
            regs[a] = regs[b]
        elif op == OP_HASH:
            regs[a] = int.from_bytes(sha256(regs[b].to_bytes(32, "big")), "big")
        else:  # OP_HALT
            cursor.pc, cursor.dynamic_index, cursor.halted = pc, t, True
            return
    cursor.pc, cursor.dynamic_index = pc, t


def run_full(program: Program, state: CicState, data: bytes = b"",
             gas_limit: Optional[int] = None):
    """Run to halt; returns (final state, total dynamic instruction count)."""
    cursor = start(program, state, data, gas_limit=gas_limit)
    _step_until(cursor, None)
    return cursor.state, cursor.dynamic_index


def run_sub(program: Program, cursor: ExecCursor, t_i: int, t_f: int,
            data: Optional[bytes] = None):
    """Execute the dynamic-index subarray [t_i, t_f], both ends inclusive.

    Returns (cursor, t_f) when the program is still running, or (cursor, T)
    with cursor.halted set when it halted at T <= t_f.
    """
    check_resume(cursor, t_i, t_f)
    if data is not None and data != cursor.data:
        raise InvalidResume("input data differs from the original run")
    _step_until(cursor, t_f)
    return cursor, cursor.dynamic_index


def compute_program(key: int = 0) -> Program:
    """The iterated-update benchmark: eta loop iterations, each reading,
    bumping, and writing one storage counter. The iteration count eta comes
    from the first input-data word, so the code identity is independent of
    the workload size. Dynamic length T = 6*eta + 5.
    """
    src = f"""
func compute
  const r1 {key}
  const r3 1
  mov r0 r8
loop:
  jnz r0 body
  halt
body:
  load r2 r1
  add r2 r2 r3
  store r1 r2
  sub r0 r0 r3
  jmp loop
"""
    return assemble(src)


def compute_length(eta: int) -> int:
    """Dynamic instruction count of the benchmark at eta iterations."""
    return 6 * eta + 5


def compute_data(eta: int) -> bytes:
    """Input-data encoding of the benchmark's iteration count."""
    if eta < 0:
        raise ValueError("iteration count must be non-negative")
    return to_word(eta)


def compute_eta(data: bytes) -> int:
    """The benchmark's iteration count: the first input-data word, 0 if none."""
    return int.from_bytes(data[:32].ljust(32, b"\0"), "big") if data else 0


@dataclass
class ClosedFormCursor:
    """Cursor of a closed-form substrate: a resume jumps straight to
    min(t_f, total), and the root is a function of the dynamic index alone.
    Gas is checked as in the interpreter, before the cursor moves."""

    total: int
    root_at: Callable[[int], bytes]
    gas_limit: Optional[int] = None
    dynamic_index: int = 0
    halted: bool = False

    def resume(self, t_i: int, t_f: int):
        check_resume(self, t_i, t_f)
        last = min(t_f, self.total)
        if self.gas_limit is not None and last > self.gas_limit:
            raise GasExhausted(f"gas limit {self.gas_limit} reached before halt")
        self.dynamic_index = last
        self.halted = last == self.total
        return self, last

    def root_bytes(self) -> bytes:
        return self.root_at(self.dynamic_index)


class ComputeModel:
    """Closed-form twin of compute_program: same states, same roots, O(1) skips.

    The benchmark's storage never holds more than the single counter, and the
    counter after t executed instructions is `floor(max(t - 1, 0) / 6)` capped
    at eta (the i-th store executes at dynamic index 6i + 1). That makes the
    state at any interruption point computable without interpretation, which
    is what lets schedule experiments reach T ~ 1e7 and beyond. Digests are
    bit-identical to interpreting compute_program (covered by tests).
    """

    def __init__(self, key: int = 0):
        self.key = key
        self.code_id = compute_program(key=key).code_id

    def state_at(self, base: CicState, eta: int, t: int) -> CicState:
        count = min(max(t - 1, 0) // 6, eta)
        if count == 0:
            return base
        key = to_word(self.key)
        return base.put(key, (from_word(base.get(key)) + count) & WORD_MASK)

    def final_state(self, base: CicState, eta: int) -> CicState:
        return self.state_at(base, eta, compute_length(eta))

    def start(self, state: CicState, data: bytes = b"",
              gas_limit: Optional[int] = None) -> ClosedFormCursor:
        eta = compute_eta(data)
        return ClosedFormCursor(compute_length(eta),
                                lambda t: self.state_at(state, eta, t).root().value,
                                gas_limit=gas_limit)


def random_program(rng, max_iterations: int = 64, body_ops: int = 6) -> Program:
    """A random halting program: straight-line setup plus one counted loop
    whose body mixes arithmetic, storage traffic, and hashing. `rng` is a
    `random.Random`; the result is fully determined by its state.
    """
    setup = []
    for reg in range(1, 6):
        setup.append(f"  const r{reg} {rng.randrange(1, 2**32)}")
    iters = rng.randrange(1, max_iterations + 1)
    body = []
    ops = ["add", "sub", "mul", "xor", "and", "mod", "lt", "eq"]
    for _ in range(body_ops):
        kind = rng.random()
        if kind < 0.65:
            op = rng.choice(ops)
            body.append(f"  {op} r{rng.randrange(1, 6)} r{rng.randrange(1, 6)} r{rng.randrange(1, 6)}")
        elif kind < 0.80:
            body.append(f"  store r{rng.randrange(1, 6)} r{rng.randrange(1, 6)}")
        elif kind < 0.90:
            body.append(f"  load r{rng.randrange(1, 6)} r{rng.randrange(1, 6)}")
        else:
            body.append(f"  hash r{rng.randrange(1, 6)} r{rng.randrange(1, 6)}")
    src = "\n".join([
        "func main",
        *setup,
        f"  const r0 {iters}",
        "  const r6 1",
        "loop:",
        "  jnz r0 body",
        "  halt",
        "body:",
        *body,
        "  sub r0 r0 r6",
        "  jmp loop",
    ])
    return assemble(src)
