"""Bad input fails loudly with a typed error: one row per refusal that no
other test reaches, each with the exception type and its message."""

import pytest

from cicsim.adversary import UtilityParams
from cicsim.experiments import SyntheticRunner
from cicsim.hashing import first_bits, from_word, sha256
from cicsim.merkle_state import CicState, MerkleRoot, prove_inclusion
from cicsim.miracle import NoSolution, RoundTally, one_round_q, solve_q_for_expected_rounds
from cicsim.protocol import QueueOrderViolation, SettlementPolicy
from cicsim.rice import exponent_of_total
from cicsim.toy_vm import VmError, assemble, compute_data, run_full

from test_protocol import build_mc, deploy

HALT = assemble("func main\n  halt\n")
NO_HALT = assemble("func main\n  const r1 1\n")


def deploy_the_active_transaction():
    mc, _, state = build_mc()
    it = deploy(mc, state)
    mc.deploy_it(it.tx, 2)


REFUSALS = [
    # the VM
    ("nine data words", lambda: HALT.start(CicState(1, HALT.code_id), bytes(32 * 9)),
     VmError, "exceeds 8 words"),
    ("no halt", lambda: run_full(NO_HALT, CicState(1, NO_HALT.code_id)),
     VmError, "past end of program"),
    # Merkle state
    ("absent key", lambda: prove_inclusion(CicState(1, 2).put(3, 4), 5),
     KeyError, "not in storage"),
    ("31-byte root", lambda: MerkleRoot(bytes(31)), ValueError, "exactly 32 bytes"),
    # MIRACLE
    ("negative count", lambda: RoundTally(1, {sha256(b"root"): -1}),
     ValueError, "non-negative"),
    ("beta of one half", lambda: one_round_q(1600, 0.35, 0.5),
     NoSolution, "no positive threshold"),
    ("target below q -> 1", lambda: solve_q_for_expected_rounds(1600, 0.35, 1e-20, 0.0),
     NoSolution, "below the achievable"),
    # inputs
    ("total of 0", lambda: exponent_of_total(0), ValueError, "1-based"),
    ("negative eta", lambda: compute_data(-1), ValueError, "non-negative"),
    ("synthetic total of 0", lambda: SyntheticRunner(0, sha256(b"salt")),
     ValueError, "must be positive"),
    ("beta of 1", lambda: UtilityParams(reward=1.0, deposit=1.0, beta=1.0),
     ValueError, "error budget"),
    ("gamma above 1", lambda: UtilityParams(reward=1.0, deposit=1.0, beta=0.1, gamma=1.5),
     ValueError, "probabilities"),
    ("th1 of one half", lambda: SettlementPolicy(th1=0.5, th2=0.25),
     ValueError, "exceed one half"),
    # the contract
    ("deploy the active", deploy_the_active_transaction,
     QueueOrderViolation, "already active"),
    # hashing
    ("31-byte word", lambda: from_word(bytes(31)), ValueError, "expected 32 bytes"),
    ("no bits", lambda: first_bits(bytes(32), 0), ValueError, "bit count out of range"),
]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_bad_input_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
