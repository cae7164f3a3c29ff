"""Multi-round likelihood consensus at desk scale.

One running integer score per candidate root; accept as soon as one score
strictly clears the threshold. The demo traces a single contested run,
then sweeps the Byzantine fraction to show the adaptive round count, and
prints the set-size design figures.
"""

import numpy as np

from cicsim import experiments
from cicsim.hashing import sha256
from cicsim.miracle import (ConsensusParams, LikelihoodTable, RoundTally,
                            expected_rounds, ns1_size, one_round_q, step,
                            threshold, update_likelihoods)

params = ConsensusParams(m_total=1600, f_max=0.40, q=0.125, beta=1e-10)
gate = threshold(params)
print(f"threshold at (M=1600, q=0.125, f_max=0.40, beta=1e-10): {gate:,.1f}")

# --- one contested run, round by round -------------------------------------

correct, wrong = sha256(b"correct-root"), sha256(b"adversary-root")
rng = np.random.default_rng(7)
table = LikelihoodTable()
for round_index in range(1, 20):
    honest = int(rng.binomial(960, params.q))   # 40% of the pool is Byzantine
    byz = int(rng.binomial(640, params.q))
    table = update_likelihoods(table, RoundTally(round_index,
                                                 {correct: honest, wrong: byz}))
    root = step(table, params)
    print(f"round {round_index}: counts=({honest} vs {byz}) "
          f"scores=({table.score(correct):+d}, {table.score(wrong):+d})"
          f"{'  -> accepted' if root is not None else ''}")
    if root is not None:
        assert root == correct
        break

# --- adaptivity: fewer rounds when the adversary is smaller -----------------

# the closed form is a Wald-style approximation: at small f it dips below
# the hard one-round floor, while the simulation is clamped at 1
print("\nexpected rounds by the closed form, and simulated means:")
seed = sha256(b"consensus-demo")
for f in (0.10, 0.25, 0.40):
    approx = expected_rounds(params, f)
    stats = experiments.sweep_point(params, f, 2000, seed)
    print(f"  f={f:.2f}: formula={approx:5.2f}  simulated={stats.mean_rounds:5.2f} "
          f"(wrong-root rate {stats.p_wrong})")

# --- design figures: how big must a set be ----------------------------------

print("\nset sizing at beta=1e-20:")
for f_max in (0.05, 0.35, 0.45):
    q = one_round_q(1600, f_max, 1e-20)
    print(f"  f_max={f_max:.2f}: one-round set ~ {q * 1600:6.1f} nodes; "
          f"single-shot majority baseline needs {ns1_size(f_max, 1600, 1e-20)}")
