"""Contract state commitments and the interruptible VM.

Walks through the bottom layer: a Merkle-committed key-value state, proofs
of inclusion, and a gas-metered interpreter whose runs can be cut at any
instruction index and resumed without changing the outcome.
"""

from cicsim.hashing import sha256
from cicsim.merkle_state import CicState, prove_inclusion, verify_inclusion
from cicsim.toy_vm import compute_data, compute_program, run_full, run_sub

# --- a tiny contract state ------------------------------------------------

program = compute_program(key=0)
state = CicState(cid=sha256(b"demo-contract"), code=program.code_id)
print("empty-state root:", state.root().hex())

state = state.put(0, 41).put(1, 7)
print("after two writes:", state.root().hex())

proof = prove_inclusion(state, 0)
print("key 0 proves inclusion:",
      verify_inclusion(state.root(), state.cid, state.code, proof))

# writes are snapshots: the original is untouched
fork = state.put(1, 8)
print("fork changed the root:", fork.root().hex() != state.root().hex())

# --- run the iterated-update benchmark ------------------------------------

eta = 10
final, total = run_full(program, state, compute_data(eta))
print(f"\nbenchmark with eta={eta}: executed T={total} instructions "
      f"(6*eta+5={6*eta+5})")
print("counter went from 41 to", int.from_bytes(final.get(0), "big"))

# --- interrupt anywhere, resume, reach the same state ----------------------

cursor = program.start(state, compute_data(eta))
cursor, last = run_sub(program, cursor, 1, 17)          # first 17 instructions
print(f"\npaused at dynamic index {last}, halted={cursor.halted}")
cursor, last = run_sub(program, cursor, 18, 40)
cursor, last = run_sub(program, cursor, 41, total + 99)  # overshooting is fine
print(f"resumed to the end: halted={cursor.halted} at T={last}")
print("chained state equals the one-shot state:", cursor.state == final)
