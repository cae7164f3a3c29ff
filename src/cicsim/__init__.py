"""cicsim: a deterministic simulator for off-chain execution of
computationally intensive contracts.

Layers, bottom up: Merkle-committed contract state (`merkle_state`), an
interruptible gas-metered VM (`toy_vm`), randomness-inserted execution
digests (`rice`), simulated beacon and sortition (`randomness`), multi-round
likelihood consensus (`miracle`), the master-contract protocol with
incentive accounting (`protocol`), node strategies and the utility calculus
(`adversary`), and a reproducible Monte Carlo harness (`experiments`, `cli`).
Only the harness's Monte Carlo and fit functions use numpy, and each imports
it in its own body, so importing the package loads none.
"""

__version__ = "0.1.0"

from . import (adversary, experiments, hashing, merkle_state, miracle, protocol,
               randomness, rice, toy_vm)

__all__ = [
    "adversary", "experiments", "hashing", "merkle_state", "miracle",
    "protocol", "randomness", "rice", "toy_vm", "__version__",
]

