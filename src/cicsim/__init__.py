"""cicsim: a deterministic simulator for off-chain execution of
computationally intensive contracts.

Layers, bottom up: Merkle-committed contract state (`merkle_state`), an
interruptible gas-metered VM (`toy_vm`), randomness-inserted execution
digests (`rice`), simulated beacon and sortition (`randomness`), multi-round
likelihood consensus (`miracle`), the master-contract protocol with
incentive accounting (`protocol`), node strategies and the utility calculus
(`adversary`), and a reproducible Monte Carlo harness (`experiments`, `cli`).
Only the harness and `adversary.estimate_gammas` load numpy, on first use.
"""

import importlib

__version__ = "0.1.0"

from . import adversary, hashing, merkle_state, miracle, protocol, randomness, rice, toy_vm

__all__ = [
    "adversary", "experiments", "hashing", "merkle_state", "miracle",
    "protocol", "randomness", "rice", "toy_vm", "__version__",
]


def __getattr__(name: str):
    if name == "experiments":
        return importlib.import_module(f"{__name__}.experiments")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
