"""Round-varying execution digests.

Each consensus round interleaves the same deterministic run with seed
updates at pseudorandom instruction indices. The state root stays identical
across rounds (so votes remain comparable) while the final seed changes,
and later rounds hit update indices no earlier round used, which is what
starves free-loaders of reusable material.
"""

import math

from cicsim.hashing import sha256
from cicsim.merkle_state import CicState
from cicsim.rice import (check_phi_bounds, check_total_exponent,
                         rice_execute_traced, strong_unmatched)
from cicsim.toy_vm import ComputeModel, compute_data

model = ComputeModel(key=0)
state = CicState(cid=sha256(b"digest-demo"), code=model.code_id)
entropy = sha256(b"public-round-1-entropy")
eta = 700      # T = 4205, ends among the 2^9-sized segments

traces = []
for round_index in (1, 2, 3):
    digest, trace = rice_execute_traced(model, state, compute_data(eta),
                                        round_index, entropy)
    traces.append(trace)
    print(f"round {round_index}: T={trace.total} updates={trace.phi} "
          f"root={digest.root.hex()[:16]}.. seed={digest.seed.hex()[:16]}..")

print("\nroots identical across rounds:",
      len({t.digest.root.value for t in traces}) == 1)
print("seeds pairwise distinct:",
      len({t.digest.seed for t in traces}) == 3)

# the schedule: one update inside each size-2^k segment, k repeating k times
trace = traces[0]
print("\nfirst eight update indices:", trace.update_indices[:8])
print(f"update count {trace.phi} lies in the band for its terminal segment:",
      check_phi_bounds(trace))
print("run length sits in its segment group:", check_total_exponent(trace))
print(f"skipped tail after the last update: "
      f"{trace.last_update_fraction():.4f} of T "
      f"(~1/log2(T) = {1 / math.log2(trace.total):.4f})")

# indices that no earlier round visited are what a copyist cannot forge
for trace, strong in zip(traces, strong_unmatched(traces)):
    print(f"round {trace.round_index}: strong unmatched indices = "
          f"{strong} of {trace.phi}")
