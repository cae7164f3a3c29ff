"""Deterministic, gas-metered, interruptible register VM over contract state.

The interpreter counts *dynamic* instructions: the t-th executed instruction
(1-based, loop iterations included) has index t, and a full run of a halting
program executes T instructions in total. Every instruction costs one unit
of gas, so gas consumed equals T. Execution can be cut at any dynamic index
and resumed, and any chaining of subarray runs reproduces the full run
byte-exactly.

The ISA has 16 opcodes over 16 registers of 256-bit unsigned words, with
wraparound arithmetic. `_ISA` is its one definition: each opcode's
mnemonic, operand kinds and effect. The assembler parses operands from the
kinds, and the single-stepper and the trace compiler both run code made
from the effects. `load`/`store` address contract storage through the key
held in a register. Storage is held as words, a dict of int keys to int
values, as `CicState` holds it, so neither converts anything. `hash`
writes the SHA-256 of a register's word encoding. `mod` by zero yields
zero. Input data is split into 32-byte words loaded into registers r8..r15
before execution.

A Program single-steps its first COMPILE_AFTER instructions, summed over
all its runs, and then compiles its code into one Python function per
trace: by then single-stepping has cost about what compiling costs, so a
program that runs only briefly never pays for it. A trace starts at a
leader (an entry point, a jump target, or the instruction after a `jmp`,
`jnz` or `halt`), runs straight-line ops and follows `jmp`; it ends with a
`jnz`, before a `halt`, before an instruction it already holds, or once it
has copied as many instructions from outside its own block as that block
has, so all traces together hold at most twice the program. It keeps the
registers it touches in locals, loaded on entry and written back on exit;
one whose `jnz` branches back to its start runs as a loop. A loop whose
every `load` and `store` goes through one key register that none of its
instructions assigns keeps that storage slot in a local: read once on
entry and, if the loop stores, written back with its key added to
`written` once on exit. A loop is straight-line up to its `jnz`, so every
store runs on each of its one or more iterations, and no effect raises
part-way, so storage and `written` at every exit are those of
single-stepping. Loops with two key registers, which may alias, keep
plain loads and stores. The interpreter runs a trace only where it fits
whole before min(t_f, gas limit), a loop as many whole times as fit, and
single-steps the rest: the halt and the partial traces at either edge.
So cut points, `GasExhausted` positions and errors are those of
single-stepping.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .hashing import WORD_MASK, from_word, sha256, to_word
from .merkle_state import CicState, StorageTree, state_root

NUM_REGISTERS = 16
DATA_REGISTER_BASE = 8
# single-stepping this many costs ~0.5 ms more than running them compiled,
# about one compile (2-CPU Xeon), so a program that runs only briefly never
# pays much more than the cheaper of the two; measured when load and store
# converted 32-byte storage words. Traces got faster since; the break-even
# stays un-tuned until ROADMAP item 1's short-program workload measures it
COMPILE_AFTER = 2048

(OP_CONST, OP_MOV, OP_ADD, OP_SUB, OP_MUL, OP_MOD, OP_XOR, OP_AND,
 OP_LT, OP_EQ, OP_JMP, OP_JNZ, OP_LOAD, OP_STORE, OP_HASH, OP_HALT) = range(16)

# The ISA's one definition, in opcode order: mnemonic, operand kinds (r a
# register, i an immediate word, l a label), and the Python source of the
# effect, None for control flow. Operands fill slots a, b, c in order: {ra},
# {rb}, {rc} are their registers, {b} the immediate, {m} the word mask.
_ISA = (
    ("const", "ri", "{ra} = {b}"),
    ("mov", "rr", "{ra} = {rb}"),
    ("add", "rrr", "{ra} = s - {m} - 1 if (s := {rb} + {rc}) > {m} else s"),
    ("sub", "rrr", "{ra} = s + {m} + 1 if (s := {rb} - {rc}) < 0 else s"),
    ("mul", "rrr", "{ra} = ({rb} * {rc}) & {m}"),
    ("mod", "rrr", "{ra} = {rb} % {rc} if {rc} else 0"),
    ("xor", "rrr", "{ra} = {rb} ^ {rc}"),
    ("and", "rrr", "{ra} = {rb} & {rc}"),
    ("lt", "rrr", "{ra} = 1 if {rb} < {rc} else 0"),
    ("eq", "rrr", "{ra} = 1 if {rb} == {rc} else 0"),
    ("jmp", "l", None),
    ("jnz", "rl", None),
    ("load", "rr", "{ra} = storage.get({rb}, 0)"),
    ("store", "rr", "storage[{ra}] = {rb}; written.add({ra})"),
    ("hash", "rr", '{ra} = int.from_bytes(sha256({rb}.to_bytes(32, "big")), "big")'),
    ("halt", "", None),
)
_OPCODES = {name: op for op, (name, _, _) in enumerate(_ISA)}


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
    immutable program reference stored in contract state. Every instruction
    is four ints with a known opcode and operands in range for their `_ISA`
    kinds, checked here for every execution path.
    """

    instructions: tuple
    entries: dict
    source: str
    # [instructions single-stepped so far, the trace table once compiled]
    warmth: list = field(default_factory=lambda: [0, None], init=False,
                         repr=False, compare=False)

    def __post_init__(self) -> None:
        top = {"r": NUM_REGISTERS - 1, "i": WORD_MASK, "l": len(self.instructions)}
        for ins in self.instructions:
            if (tuple(map(type, ins)) != (int, int, int, int) or not 0 <= ins[0] <= OP_HALT
                    or not all(0 <= v <= top[k] for k, v in zip(_ISA[ins[0]][1], ins[1:]))):
                raise AssemblyError(f"not an instruction: {ins!r}")

    def __reduce__(self):
        return Program, (self.instructions, self.entries, self.source)

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
        return ExecCursor(self, state, data, gas_limit, self.entry())


def _operand(kind: str, tok: str, labels: dict, line_no: int) -> int:
    if kind == "l":
        if tok not in labels:
            raise AssemblyError(f"line {line_no}: unknown label {tok!r}")
        return labels[tok]
    if kind == "r":
        if not tok.startswith("r") or not tok[1:].isdigit():
            raise AssemblyError(f"line {line_no}: expected register, got {tok!r}")
        if not 0 <= int(tok[1:]) < NUM_REGISTERS:
            raise AssemblyError(f"line {line_no}: register out of range: {tok}")
        return int(tok[1:])
    try:
        imm = int(tok, 0)
    except ValueError:
        raise AssemblyError(f"line {line_no}: expected immediate, got {tok!r}") from None
    if not 0 <= imm <= WORD_MASK:
        raise AssemblyError(f"line {line_no}: immediate out of range")
    return imm


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
            if len(toks) != 2 or toks[1] in entries:
                raise AssemblyError(f"line {line_no}: func takes one name not used before")
            entries[toks[1]] = len(raw)
            continue
        raw.append((line_no, toks))

    instructions = []
    for line_no, (name, *args) in raw:
        if name not in _OPCODES:
            raise AssemblyError(f"line {line_no}: unknown opcode {name!r}")
        op = _OPCODES[name]
        kinds = _ISA[op][1]
        if len(args) != len(kinds):
            raise AssemblyError(f"line {line_no}: {name} takes {len(kinds)} operands, "
                                f"got {len(args)}")
        operands = [_operand(kind, tok, labels, line_no) for kind, tok in zip(kinds, args)]
        instructions.append((op, *operands, *[0] * (3 - len(operands))))
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


class ExecCursor:
    """Mutable position of an interrupted run; single-owner.

    `dynamic_index` counts instructions executed so far; resuming must start
    at `dynamic_index + 1`. The cursor holds storage as words, a private
    dict of int keys to int values, and its `StorageTree`, both copied from
    the starting state; `state` is a value-semantics snapshot of the words.
    Stores add their key to `written`; `root_bytes` hands those keys to the
    tree, so a root rehashes only what changed since the last one.
    """

    __slots__ = ("program", "cid", "code", "storage", "written", "tree", "regs",
                 "pc", "dynamic_index", "halted", "gas_limit")

    def __init__(self, program: Program, state: CicState, data: bytes,
                 gas_limit: Optional[int], pc: int):
        self.program = program
        self.cid = state.cid
        self.code = state.code
        self.storage, self.tree = state.working_copy()
        self.written: set = set()
        self.regs = [0] * NUM_REGISTERS
        self.pc = pc
        self.dynamic_index = 0
        self.halted = False
        self.gas_limit = gas_limit
        words = [data[i:i + 32] for i in range(0, len(data), 32)]
        if len(words) > NUM_REGISTERS - DATA_REGISTER_BASE:
            raise VmError("input data exceeds 8 words")
        for i, w in enumerate(words):
            self.regs[DATA_REGISTER_BASE + i] = int.from_bytes(w.ljust(32, b"\0"), "big")

    @property
    def state(self) -> CicState:
        return CicState(self.cid, self.code).put_many(self.storage)

    def root_bytes(self) -> bytes:
        """The state root, `state.root().value`, from the kept tree."""
        tree_root = self.tree.root(self.storage, self.written)
        self.written.clear()
        return state_root(self.cid, self.code, tree_root)

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


def _make_steps() -> tuple:
    """Per opcode, `step(regs, storage, written, a, b, c, pc)` returning the
    next pc, where `pc` is already past the instruction; None for `halt`.
    `sha256` is looked up in this module's globals, as in the traces."""
    source = ["def step_jmp(regs, storage, written, a, b, c, pc):\n    return a",
              "def step_jnz(regs, storage, written, a, b, c, pc):\n"
              "    return b if regs[a] else pc"]
    source += [f"def step_{name}(regs, storage, written, a, b, c, pc):\n    "
               + effect.format(ra="regs[a]", rb="regs[b]", rc="regs[c]", b="b", m=WORD_MASK)
               + "\n    return pc" for name, _, effect in _ISA if effect is not None]
    namespace: dict = {}
    exec(compile("\n".join(source), "<toy_vm steps>", "exec"), globals(), namespace)
    return tuple(namespace.get(f"step_{name}") for name, _, _ in _ISA)


_STEP = _make_steps()


def _trace_pcs(code: tuple, leaders: set, start: int) -> list:
    """The pcs of the trace at leader `start` (module docstring)."""
    pcs, seen, pc, own = [], set(), start, None
    while 0 <= pc < len(code) and pc not in seen and code[pc][0] != OP_HALT:
        if own is None and pc in leaders and pcs:
            own = len(pcs)
        if own is not None and len(pcs) == 2 * own:
            break
        pcs.append(pc)
        seen.add(pc)
        op, a, _, _ = code[pc]
        if op == OP_JNZ:
            break
        pc = a if op == OP_JMP else pc + 1
    return pcs


def _trace_source(code: tuple, pcs: list) -> str:
    """`trace_<start>(regs, storage, written, n)`: returns (next pc, runs),
    a loop running up to n >= 1 times, any other trace once. A loop keeps
    its one storage slot in a local where the module docstring says."""
    ins = [code[pc] for pc in pcs]
    touched = sorted({r for op, *slots in ins
                      for kind, r in zip(_ISA[op][1], slots) if kind == "r"})
    op, a, b, _ = ins[-1]
    loop = op == OP_JNZ and b == pcs[0]
    if loop:
        leave = [f"if not r{a}:", f"    pc = {pcs[-1] + 1}", "    break"]
    elif op == OP_JNZ:
        leave = [f"pc = {b} if r{a} else {pcs[-1] + 1}", "break"]
    else:
        leave = [f"pc = {a if op == OP_JMP else pcs[-1] + 1}", "break"]
    keys = {b if op == OP_LOAD else a for op, a, b, _ in ins if op in (OP_LOAD, OP_STORE)}
    assigned = {a for op, a, _, _ in ins if _ISA[op][2] is not None and op != OP_STORE}
    effects, enter, close = {}, [], []
    if loop and len(keys) == 1 and not keys & assigned:
        key = keys.pop()
        effects = {OP_LOAD: "{ra} = slot", OP_STORE: "slot = {rb}"}
        enter = [f"slot = storage.get(r{key}, 0)"]
        if any(op == OP_STORE for op, _, _, _ in ins):
            close = [f"storage[r{key}] = slot", f"written.add(r{key})"]
    body = [effects.get(op, _ISA[op][2]).format(ra=f"r{a}", rb=f"r{b}", rc=f"r{c}", b=b,
                                                m=WORD_MASK)
            for op, a, b, c in ins if _ISA[op][2] is not None]
    return "\n".join([f"def trace_{pcs[0]}(regs, storage, written, n):",
                      *(f"    r{r} = regs[{r}]" for r in touched),
                      *(f"    {line}" for line in enter),
                      f"    pc = {pcs[0]}", "    for i in range(1, n + 1):",
                      *(f"        {line}" for line in body + leave),
                      *(f"    {line}" for line in close),
                      *(f"    regs[{r}] = r{r}" for r in touched),
                      "    return pc, i"])


def _compile_traces(code: tuple, entries: dict) -> tuple:
    """Per pc, `(length, function)` of the trace of two or more instructions
    starting there, or None. `sha256` is looked up in this module's globals,
    so a wrapper put there sees every call."""
    leaders = set(entries.values())
    for pc, (op, a, b, _) in enumerate(code):
        if op in (OP_JMP, OP_JNZ):
            leaders.add(a if op == OP_JMP else b)
        if op in (OP_JMP, OP_JNZ, OP_HALT):
            leaders.add(pc + 1)
    traces = [_trace_pcs(code, leaders, pc) if pc in leaders else [] for pc in range(len(code))]
    namespace: dict = {}
    exec(compile("\n".join(_trace_source(code, pcs) for pcs in traces if len(pcs) > 1),
                 "<toy_vm traces>", "exec"), globals(), namespace)
    return tuple((len(pcs), namespace[f"trace_{pc}"]) if len(pcs) > 1 else None
                 for pc, pcs in enumerate(traces))


def _step_until(cursor: ExecCursor, t_f: int) -> None:
    """Execute instructions while dynamic_index < t_f or until halt,
    compiling the program once it has single-stepped COMPILE_AFTER of them."""
    program = cursor.program
    warmth = program.warmth
    if warmth[1] is None:
        t = cursor.dynamic_index
        cold_end = t + COMPILE_AFTER - warmth[0]
        try:
            _run(cursor, min(t_f, cold_end), (None,) * len(program.instructions))
        finally:
            warmth[0] += cursor.dynamic_index - t
        if cursor.halted or cursor.dynamic_index == t_f:
            return
        warmth[1] = _compile_traces(program.instructions, program.entries)
    _run(cursor, t_f, warmth[1])


def _run(cursor: ExecCursor, t_f: int, traces: tuple) -> None:
    """Execute instructions while dynamic_index < t_f or until halt,
    running each trace in `traces` that fits whole before min(t_f, gas)."""
    code = cursor.program.instructions
    regs = cursor.regs
    storage = cursor.storage
    written = cursor.written
    pc = cursor.pc
    t = cursor.dynamic_index
    limit = cursor.gas_limit
    bound = min(t_f, sys.maxsize if limit is None else limit)
    n_instr = len(code)
    step = _STEP
    while t < t_f:
        if limit is not None and t >= limit:
            cursor.pc, cursor.dynamic_index = pc, t
            raise GasExhausted(f"gas limit {limit} reached before halt")
        if not 0 <= pc < n_instr:
            cursor.pc, cursor.dynamic_index = pc, t
            raise VmError("execution ran past end of program")
        trace = traces[pc]
        if trace is not None and t + trace[0] <= bound:
            pc, runs = trace[1](regs, storage, written, (bound - t) // trace[0])
            t += runs * trace[0]
            continue
        op, a, b, c = code[pc]
        t += 1
        if op == OP_HALT:
            cursor.pc, cursor.dynamic_index, cursor.halted = pc + 1, t, True
            return
        pc = step[op](regs, storage, written, a, b, c, pc + 1)
    cursor.pc, cursor.dynamic_index = pc, t


def run_full(program: Program, state: CicState, data: bytes = b"",
             gas_limit: Optional[int] = None):
    """Run to halt; returns (final state, total dynamic instruction count)."""
    cursor = program.start(state, data, gas_limit=gas_limit)
    _step_until(cursor, sys.maxsize)
    return cursor.state, cursor.dynamic_index


def run_sub(program: Program, cursor: ExecCursor, t_i: int, t_f: int):
    """Execute the dynamic-index subarray [t_i, t_f], both ends inclusive.

    Returns (cursor, t_f) when the program is still running, or (cursor, T)
    with cursor.halted set when it halted at T <= t_f.
    """
    check_resume(cursor, t_i, t_f)
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
    min(t_f, total), and the root is a function of the dynamic index alone,
    which only grows, so `root_at` may keep state between calls. Gas is
    checked as in the interpreter, before the cursor moves."""

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


# per key the program, whose `warmth` no model runs; each model hashes its own id
_compute_program = lru_cache(maxsize=256)(compute_program)


class ComputeModel:
    """Closed-form twin of compute_program: same states, same roots, O(1) skips.

    The benchmark's storage never holds more than the single counter, and the
    counter after t executed instructions is `floor(max(t - 1, 0) / 6)` capped
    at eta (the i-th store executes at dynamic index 6i + 1). That makes the
    state at any interruption point computable without interpretation, which
    is what lets schedule experiments reach T ~ 1e7 and beyond. Digests are
    bit-identical to interpreting compute_program (covered by tests). The
    final state applies the law at t = T, where the count is eta; a cursor
    applies it at every t to the root alone: the pre-state's root until the
    first store, then the root of the cursor's own `StorageTree`, built over
    the words at the first nonzero counter, whose one leaf each later root
    rewrites. The model keeps those roots by counter value for the one
    pre-state it last started from, held and compared by identity (a
    `CicState` is immutable), and derives a root only on a miss: one entry
    suffices, as every round of a transaction starts from the same state
    until a witness replaces it, so later rounds read what earlier ones derived.
    """

    def __init__(self, key: int = 0):
        self.key = key
        self.code_id = _compute_program(key).code_id
        self._pre, self._roots = None, {}

    def final_state(self, base: CicState, eta: int) -> CicState:
        counter = (from_word(base.get(self.key)) + eta) & WORD_MASK
        return base.put(self.key, counter) if eta else base

    def start(self, state: CicState, data: bytes = b"",
              gas_limit: Optional[int] = None) -> ClosedFormCursor:
        eta, key = compute_eta(data), self.key
        if state is not self._pre:
            self._pre, self._roots = state, {}
        words, tree, roots = state.words(), StorageTree([], [[]]), self._roots
        base = words.get(key, 0)

        def root_at(t: int) -> bytes:
            count = min(max(t - 1, 0) // 6, eta)
            if not count:
                return state.root().value
            if count not in roots:
                words[key] = (base + count) & WORD_MASK
                roots[count] = state_root(state.cid, state.code,
                                          tree.root(words, (key,) if tree.keys else words))
            return roots[count]
        return ClosedFormCursor(compute_length(eta), root_at, gas_limit=gas_limit)


def random_program(rng, max_iterations: int = 64) -> Program:
    """A random halting program: straight-line setup plus one counted loop
    whose six-op body mixes arithmetic, storage traffic, and hashing. `rng` is a
    `random.Random`; the result is fully determined by its state.
    """
    setup = []
    for reg in range(1, 6):
        setup.append(f"  const r{reg} {rng.randrange(1, 2**32)}")
    iters = rng.randrange(1, max_iterations + 1)
    body = []
    ops = ["add", "sub", "mul", "xor", "and", "mod", "lt", "eq"]
    for _ in range(6):
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
