"""Stateful model of the master contract: messages in any order.

A hypothesis state machine sends commits, reveals, state witnesses,
enqueues and clock ticks to one `MasterContract` in any order, including
duplicates, blocks outside the open window, forged sortition and openings
that do not match their commitment. After every step it checks:

* value is conserved, and the treasury never goes negative;
* every accepted commit and reveal lies inside its round's window, read
  from the event log;
* every accepted reveal opens the commitment its node made in that round,
  and carries the sortition result its node's enrolled keys give;
* every event's log line is the oracle's canonical line;
* a contract's queue holds transactions only behind its active one: an
  unfunded transaction leaves its queue, whether it is refused at enqueue
  or when the transaction ahead of it finishes;
* the only exception a message raises is a `ProtocolError` (any other
  exception fails the run), and a clock tick raises none.

Every step is one rule that draws the kind of message: hypothesis switches
whole rules off at random per run, and a run without commits, reveals or
ticks would never reach a decision. The run is derandomized with a fixed
example and step count, so it checks the same sequences every time. It
skips hypothesis's shrink phase: shrinking a failing 100-step run takes
minutes, so a failure reports its falsifying example unshrunk, in seconds.
"""

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from cicsim import rice
from cicsim.hashing import be8, sha256, to_word
from cicsim.merkle_state import CicState, MerkleRoot, prove_inclusion
from cicsim.miracle import ConsensusParams
from cicsim.protocol import (InvalidSortition, MasterContract, ProtocolError, SettlementPolicy,
                             WindowConfig)
from cicsim.randomness import NOT_SELECTED, check_sort, keygen
from cicsim.rice import Digest
from cicsim.toy_vm import ComputeModel, Transaction, compute_data, compute_eta, compute_length

from oracles import canonical_line

SEED = sha256(b"contract-model")
N_NODES = 6                 # node id N_NODES is outside the pool
Q = 0.8
OUTSIDER = keygen(sha256(b"outsider"), 0)
DUMMY = Digest(seed=sha256(b"dummy-seed"), root=MerkleRoot(sha256(b"dummy-root")))

# sortition results a committed reveal opens and the contract must refuse
BAD_SORTS = ["outsider", "other_node", "stale", "forged_output", "forged_proof", "unselected"]


def claimed_sort(kind, keys, other, nonce):
    """The sortition result a node commits to: its own at Q, or one of `BAD_SORTS`
    (`other` is another enrolled node's keys)."""
    if kind == "outsider":
        return check_sort(OUTSIDER, nonce, 1.0)
    if kind == "other_node":
        return check_sort(other, nonce, 1.0)
    if kind == "stale":
        return check_sort(keys, sha256(b"stale", nonce), 1.0)
    genuine = check_sort(keys, nonce, 1.0)
    if kind == "forged_output":
        return genuine._replace(output=sha256(b"forged", genuine.output))
    if kind == "forged_proof":
        return genuine._replace(proof=sha256(b"forged", genuine.proof))
    if kind == "unselected":
        return NOT_SELECTED
    return check_sort(keys, nonce, Q)


# most messages go to the first contract, at the current block
cics = st.sampled_from([0, 0, 0, 1])
deltas = st.sampled_from([0, 0, 0, 0, -1, 1, -3, 3])
# below N_NODES: the pick-th of the nodes a message prefers, else node pick - N_NODES
picks = st.integers(0, 2 * N_NODES)
# each message kind with its arguments, the first entry of a list the likeliest
ARGUMENTS = {
    "commit": st.tuples(cics, picks, deltas,
                        st.sampled_from(["honest"] * 6 + ["wrong_root", "other_seed"]),
                        st.sampled_from(["own"] * 10 + BAD_SORTS),
                        st.sampled_from([False] * 5 + [True])),
    "reveal": st.tuples(cics, picks, deltas,
                        st.sampled_from(["none"] * 5 + ["seed", "root", "unselected"])),
    "tick": st.tuples(st.sampled_from([1, 0, 1, 2])),
    "witness": st.tuples(cics, picks, deltas, st.booleans()),
    "enqueue": st.tuples(cics, st.integers(0, 3), st.integers(0, 6), st.integers(0, 2),
                         st.sampled_from(["alice", "bob", "nobody"]), deltas),
}
kinds = st.sampled_from(["commit"] * 4 + ["reveal"] * 4 + ["tick"] * 4 + ["witness"] * 2
                        + ["enqueue"])

class ContractModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # beta = 0.45 puts the gate near 0.5, so one unopposed reveal decides;
        # d_min = 0 and a small treasury let the reward cap bind
        self.mc = MasterContract(
            ConsensusParams(N_NODES, 0.4, Q, 0.45),
            SettlementPolicy(reward=10, deposit=100, d_min=0),
            WindowConfig(gas_per_block=40, w_src_slack=3, w_buf=1, w_sr=4),
            sha256(b"beacon", SEED), max_rounds=4, treasury=5)
        for node_id in range(N_NODES):
            self.mc.add_node(keygen(SEED, node_id), deposit=100, balance=50)
        self.model = ComputeModel()
        self.cids = []
        for index in range(2):
            state = CicState(sha256(b"model-cid", be8(index)), self.model.code_id)
            self.mc.register_cic(state)
            self.cids.append(state.cid)
        self.mc.creators.update(alice=1_000, bob=60)
        self.baseline = self.mc.total_value()
        self.block = 1
        self.send(self.mc.enqueue, self.transaction(0, 0, 4, 0), "alice", self.block)
        self.openings: dict = {}   # (deployment nonce, round, node) -> (Digest, SortResult)
        self.checked = 0           # events already checked
        self.lined = 0             # events whose lines are already checked
        self.windows: dict = {}    # cid -> its latest round_started event
        self.commits: dict = {}    # (cid, node) -> se accepted in the current round

    def send(self, call, *args) -> bool:
        """Whether the contract accepted the message."""
        try:
            call(*args)
        except ProtocolError:
            return False
        return True

    def transaction(self, cic: int, tid: int, eta: int, gas_price: int) -> Transaction:
        return Transaction(tid=sha256(b"model-tid", be8(tid)), cid=self.cids[cic],
                           data=compute_data(eta), gas_limit=compute_length(eta) + 4,
                           gas_price=gas_price)

    def choose(self, pick: int, preferred) -> int:
        """A node id: mostly one of `preferred` (say, this round's committers,
        as a node knows whether it committed), else any id up to N_NODES."""
        if preferred and pick < N_NODES:
            return sorted(preferred)[pick % len(preferred)]
        return pick % (N_NODES + 1)

    @rule(kind=kinds, data=st.data())
    def step(self, kind, data):
        getattr(self, kind)(*data.draw(ARGUMENTS[kind]))

    # -- messages ---------------------------------------------------------------

    def enqueue(self, cic, tid, eta, gas_price, creator, delta):
        self.send(self.mc.enqueue, self.transaction(cic, tid, eta, gas_price), creator,
                  max(1, self.block + delta))

    def commit(self, cic, pick, delta, digest_kind, sort_kind, forged_se):
        cid, block = self.cids[cic], max(1, self.block + delta)
        it = self.mc.active.get(cid)
        if it is None:
            self.send(self.mc.submit_commit, pick % (N_NODES + 1), cid, sha256(b"x"), block)
            return
        # a node knows whether sortition selected it and whether it committed
        node = self.choose(pick, [
            n for n, keys in self.mc.pool.items() if n not in it.round.commitments
            and check_sort(keys, it.round.nonce, Q).selected])
        digest, _ = rice.rice_execute_traced(
            self.model, self.mc.states[cid], it.tx.data, it.round.round_index,
            it.round1_entropy, gas_limit=it.tx.gas_limit)
        if digest_kind == "wrong_root":
            digest = Digest(seed=digest.seed, root=MerkleRoot(sha256(b"wrong", be8(node))))
        elif digest_kind == "other_seed":
            digest = Digest(seed=sha256(b"seed", be8(node)), root=digest.root)
        nonce = it.round.nonce
        keys = OUTSIDER if node == N_NODES else self.mc.keys[node]
        sort = claimed_sort(sort_kind, keys, self.mc.keys[(node + 1) % N_NODES], nonce)
        se = sha256(digest.encode(), sort.encode())
        if forged_se:
            se = sha256(b"forged", se)
        if self.send(self.mc.submit_commit, node, cid, se, block):
            self.openings[(it.tx.nonce, it.round.round_index, node)] = (digest, sort)

    def reveal(self, cic, pick, delta, tamper):
        cid = self.cids[cic]
        it = self.mc.active.get(cid)
        node = self.choose(pick, it.round.commitments if it else ())
        digest, sort = DUMMY, NOT_SELECTED
        if it is not None:
            digest, sort = self.openings.get((it.tx.nonce, it.round.round_index, node),
                                             (DUMMY, NOT_SELECTED))
        if tamper == "seed":
            digest = Digest(seed=sha256(b"tamper", digest.seed), root=digest.root)
        elif tamper == "root":
            digest = Digest(seed=digest.seed, root=MerkleRoot(sha256(b"tamper", digest.root.value)))
        elif tamper == "unselected":
            sort = NOT_SELECTED
        if self.send(self.mc.submit_reveal, node, cid, digest, sort, max(1, self.block + delta)):
            assert sort.selected and sort == check_sort(self.mc.keys[node], it.round.nonce, Q)

    def witness(self, cic, pick, delta, valid):
        cid = self.cids[cic]
        it = self.mc.active.get(cid)
        node = self.choose(pick, it.round.reveals if it else ())
        modified, proofs = {to_word(7): sha256(b"junk")}, []
        if it is not None and valid:
            pre = self.mc.states[cid]
            final = self.model.final_state(pre, compute_eta(it.tx.data))
            modified = {k: final.get(k) for k in final.storage if pre.get(k) != final.get(k)}
            proofs = [prove_inclusion(final, k) for k in sorted(modified)]
        self.send(self.mc.submit_witness, node, cid, modified, proofs,
                  max(1, self.block + delta))

    def tick(self, advance):
        self.block += advance
        self.mc.tick(self.block)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def value_is_conserved(self):
        assert self.mc.total_value() == self.baseline
        assert self.mc.treasury >= 0

    @invariant()
    def queues_wait_only_behind_an_active_transaction(self):
        for cid, queue in self.mc.queues.items():
            it = self.mc.active.get(cid)
            assert not queue or (it is not None and queue[0][0].tid == it.tx.tid)

    @invariant()
    def accepted_messages_keep_windows_and_binding(self):
        for event in self.mc.events[self.checked:]:
            kind, cid = event["type"], event.get("cid")
            if kind == "round_started":
                self.windows[cid] = event
                self.commits = {key: se for key, se in self.commits.items() if key[0] != cid}
            elif kind in ("commit", "reveal"):
                window = self.windows[cid]
                assert event["round"] == window["round"]
                assert window[f"{kind}_open"] <= event["block"] <= window[f"{kind}_close"]
                if kind == "commit":
                    self.commits[(cid, event["node"])] = event["se"]
                else:
                    opening = sha256(bytes.fromhex(event["seed"]), bytes.fromhex(event["root"]),
                                     bytes.fromhex(event["sort"])).hex()
                    assert self.commits.get((cid, event["node"])) == opening
        self.checked = len(self.mc.events)

    @invariant()
    def every_line_is_canonical(self):
        new = self.mc.events[self.lined:]
        assert self.mc.lines[self.lined:] == [canonical_line(e) for e in new]
        self.lined = len(self.mc.events)


ContractModel.TestCase.settings = settings(max_examples=30, stateful_step_count=100,
                                           deadline=None, derandomize=True,
                                           phases=(Phase.explicit, Phase.reuse,
                                                   Phase.generate))
TestContractModel = ContractModel.TestCase


@pytest.mark.parametrize("kind", BAD_SORTS)
def test_a_reveal_opening_a_refused_sortition_raises_invalid_sortition(kind):
    """An enrolled node that sortition did not select commits to a result its
    keys do not give, even the true "not selected", and opens exactly that
    commitment in the reveal window: it is refused for its sortition alone."""
    machine = ContractModel()
    mc, cid = machine.mc, machine.cids[1]
    # at the second contract's deployment nonce, sortition passes a node over
    mc.enqueue(machine.transaction(1, 1, 4, 0), "alice", 1)
    rnd = mc.active[cid].round
    passed_over = [n for n, keys in mc.keys.items() if not check_sort(keys, rnd.nonce, Q).selected]
    assert passed_over
    node = passed_over[0]
    sort = claimed_sort(kind, mc.keys[node], mc.keys[(node + 1) % N_NODES], rnd.nonce)
    mc.submit_commit(node, cid, sha256(DUMMY.encode(), sort.encode()), rnd.commit_open)
    mc.tick(rnd.reveal_open)
    with pytest.raises(InvalidSortition):
        mc.submit_reveal(node, cid, DUMMY, sort, rnd.reveal_open)
    assert node not in rnd.reveals
