"""Master-contract rules: windows, binding, settlement branches, replay."""

import json
import random
from dataclasses import asdict, replace
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicsim import adversary
from cicsim.experiments import audit_event_log, random_scenario
from cicsim.hashing import be8, sha256
from cicsim.merkle_state import CicState, MerkleRoot
from cicsim.miracle import ConsensusParams
from cicsim.protocol import (BUFFERING, COMMITTING, DECIDING, MAX_BLOCKS,
                             PER_NODE_FIELDS, REVEALING, SETTLED, CicSpec,
                             CommitMismatch, DuplicateCommit, InsufficientEscrow,
                             InvalidSortition, ItSpec, MasterContract, NoCommitment,
                             NodeRecord, OutsideWindow, QueueOrderViolation, Scenario,
                             ScenarioError, SettlementPolicy, Simulation,
                             WindowConfig, event_lines, replay_check, run_scenario)
from cicsim.randomness import check_sort, keygen
from cicsim.rice import Digest, rice_execute_traced
from cicsim.toy_vm import (ComputeModel, Transaction, compute_data, compute_eta,
                           compute_length)

from oracles import canonical_line

SEED = sha256(b"protocol-tests")


def build_mc(n_nodes=10, q=1.0, th1=0.60, th2=0.25, reward=10, deposit=100,
             d_min=5, beta=1e-6, f_max=0.4, w_buf=2, w_sr=4, max_rounds=50):
    params = ConsensusParams(n_nodes, f_max, q, beta)
    policy = SettlementPolicy(th1=th1, th2=th2, reward=reward, deposit=deposit,
                              d_min=d_min)
    windows = WindowConfig(gas_per_block=10_000, w_src_slack=2, w_buf=w_buf,
                           w_sr=w_sr)
    mc = MasterContract(params, policy, windows, sha256(b"exp", SEED),
                        max_rounds=max_rounds, treasury=100_000)
    for i in range(n_nodes):
        mc.add_node(NodeRecord(node_id=i, keys=keygen(SEED, i),
                               strategy=adversary.Strategy(adversary.HONEST),
                               deposit=deposit, balance=50))
    mc.creators["alice"] = 1_000_000
    model = ComputeModel()
    state = CicState(sha256(b"test-cid"), model.code_id)
    mc.register_cic(state)
    return mc, model, state


def make_tx(state, eta=4, gas_price=2, margin=10) -> Transaction:
    return Transaction(tid=sha256(b"tid", be8(eta)), cid=state.cid,
                       data=compute_data(eta),
                       gas_limit=compute_length(eta) + margin,
                       gas_price=gas_price)


def deploy(mc, state, tx=None, block=1):
    tx = tx or make_tx(state)
    mc.enqueue(tx, "alice", block)
    return mc.active[state.cid]


def honest_material(mc, model, state, it, node_id, round_index=None):
    rnd = it.round
    round_index = round_index or rnd.round_index
    digest, _ = rice_execute_traced(model, state, it.tx.data, round_index,
                                    it.round1_entropy, gas_limit=it.tx.gas_limit)
    sort = check_sort(mc.nodes[node_id].keys, rnd.nonce, mc.params.q)
    se = sha256(digest.encode(), sort.encode())
    return digest, sort, se


# --- deployment ------------------------------------------------------------------

def test_deploy_assigns_nonce_at_inclusion_and_is_replayable():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    assert it.tx.nonce is not None
    from cicsim.randomness import random_gen
    assert it.tx.nonce == random_gen(mc.experiment_seed, 0)
    mc2, model2, state2 = build_mc()
    it2 = deploy(mc2, state2)
    assert it2.tx.nonce == it.tx.nonce
    assert it2.round1_entropy == it.round1_entropy


def test_escrow_boundary_is_inclusive():
    mc, model, state = build_mc()
    tx = make_tx(state)
    cost = mc.policy.d_min + tx.gas_price * tx.gas_limit
    mc.creators["alice"] = cost
    deploy(mc, state, tx)   # exactly enough passes
    assert mc.creators["alice"] == 0
    mc2, _, state2 = build_mc()
    mc2.creators["alice"] = cost - 1
    with pytest.raises(InsufficientEscrow):
        deploy(mc2, state2, make_tx(state2))


def test_second_transaction_queues_until_settlement():
    mc, model, state = build_mc()
    first = make_tx(state, eta=3)
    second = make_tx(state, eta=5)
    mc.enqueue(first, "alice", 1)
    mc.enqueue(second, "alice", 1)
    assert mc.active[state.cid].tx.tid == first.tid
    assert len(mc.queues[state.cid]) == 2
    with pytest.raises(QueueOrderViolation):
        mc.deploy_it(second, 2)


# --- commitments -------------------------------------------------------------------

def test_commit_window_edges_and_duplicates():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    rnd = it.round
    digest, sort, se = honest_material(mc, model, state, it, 0)
    mc.submit_commit(0, state.cid, se, rnd.commit_close)   # last block accepted
    with pytest.raises(DuplicateCommit):
        mc.submit_commit(0, state.cid, se, rnd.commit_close)
    with pytest.raises(OutsideWindow):
        mc.submit_commit(1, state.cid, se, rnd.commit_close + 1)
    it.phase = BUFFERING
    with pytest.raises(OutsideWindow):
        mc.submit_commit(2, state.cid, se, rnd.commit_close)


def test_commit_requires_pool_membership():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    digest, sort, se = honest_material(mc, model, state, it, 0)
    from cicsim.protocol import NotInSP
    with pytest.raises(NotInSP):
        mc.submit_commit(999, state.cid, se, it.round.commit_open)
    mc.nodes[3].active = False
    with pytest.raises(NotInSP):
        mc.submit_commit(3, state.cid, se, it.round.commit_open)


def test_commit_messages_carry_no_membership_information():
    # the commitment is a bare hash: identical-looking 32-byte strings
    mc, model, state = build_mc()
    it = deploy(mc, state)
    digest, sort, se = honest_material(mc, model, state, it, 0)
    mc.submit_commit(0, state.cid, se, it.round.commit_open)
    event = mc.events[-1]
    assert event["type"] == "commit"
    assert set(event) == {"block", "type", "cid", "round", "node", "se"}
    assert len(bytes.fromhex(event["se"])) == 32


# --- reveals ----------------------------------------------------------------------

def advance_to_reveal(mc, state):
    it = mc.active[state.cid]
    it.phase = REVEALING
    return it.round


def test_reveal_binding_and_window():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    digest, sort, se = honest_material(mc, model, state, it, 0)
    mc.submit_commit(0, state.cid, se, it.round.commit_open)
    rnd = advance_to_reveal(mc, state)
    with pytest.raises(OutsideWindow):
        mc.submit_reveal(0, state.cid, digest, sort, rnd.reveal_close + 1)
    with pytest.raises(NoCommitment):
        mc.submit_reveal(1, state.cid, digest, sort, rnd.reveal_open)
    tampered = Digest(seed=sha256(b"tampered"), root=digest.root)
    with pytest.raises(CommitMismatch):
        mc.submit_reveal(0, state.cid, tampered, sort, rnd.reveal_open)
    bad_sort = check_sort(mc.nodes[1].keys, rnd.nonce, 1.0)
    with pytest.raises(CommitMismatch):   # the hash binds sort_res too
        mc.submit_reveal(0, state.cid, digest, bad_sort, rnd.reveal_open)
    mc.submit_reveal(0, state.cid, digest, sort, rnd.reveal_open)
    assert 0 in rnd.reveals


def test_reveal_rejects_forged_sortition():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    digest, _, _ = honest_material(mc, model, state, it, 0)
    forged = check_sort(keygen(sha256(b"outsider"), 77), it.round.nonce, 1.0)
    se = sha256(digest.encode(), forged.encode())
    mc.submit_commit(0, state.cid, se, it.round.commit_open)
    rnd = advance_to_reveal(mc, state)
    with pytest.raises(InvalidSortition):
        mc.submit_reveal(0, state.cid, digest, forged, rnd.reveal_open)


def test_unrevealed_commitment_forfeits_at_round_close():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    digest, sort, se = honest_material(mc, model, state, it, 0)
    mc.submit_commit(0, state.cid, se, it.round.commit_open)
    advance_to_reveal(mc, state)
    before = mc.burned
    mc.close_round(state.cid, it.round.reveal_close)
    assert mc.nodes[0].deposit == 0
    assert not mc.nodes[0].active
    assert mc.burned == before + 100


# --- rounds and decisions ----------------------------------------------------------

def test_zero_reveals_continue_with_fresh_nonce():
    mc, model, state = build_mc()
    it = deploy(mc, state)
    first_nonce = it.round.nonce
    advance_to_reveal(mc, state)
    assert mc.close_round(state.cid, it.round.reveal_close) is None
    assert it.round.round_index == 2
    assert it.round.nonce == sha256(it.tx.nonce, be8(2))
    assert it.round.nonce != first_nonce
    # membership across rounds is re-drawn: with q=0.5 the two sets differ
    mc2, _, state2 = build_mc(q=0.5, n_nodes=64)
    it2 = deploy(mc2, state2)
    n1 = it2.round.nonce
    n2 = sha256(it2.tx.nonce, be8(2))
    members = lambda nonce: {i for i in range(64)
                             if check_sort(mc2.nodes[i].keys, nonce, 0.5).selected}
    assert members(n1) != members(n2)


def run_one_full_round(mc, model, state, revealers, digests=None):
    """Commit+reveal for the given node ids, then close the round."""
    it = mc.active[state.cid]
    rnd = it.round
    it.phase = COMMITTING
    material = {}
    for node_id in revealers:
        digest, sort, se = honest_material(mc, model, state, it, node_id)
        if digests and node_id in digests:
            digest = digests[node_id]
            se = sha256(digest.encode(), sort.encode())
        material[node_id] = (digest, sort)
        mc.submit_commit(node_id, state.cid, se, rnd.commit_open)
    it.phase = REVEALING
    for node_id, (digest, sort) in material.items():
        mc.submit_reveal(node_id, state.cid, digest, sort, rnd.reveal_open)
    return mc.close_round(state.cid, rnd.reveal_close)


def test_unanimous_round_accepts_immediately():
    # at q = 1 the gate is zero, so a unanimous round scores (qM)^2 > 0
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=0.01)
    it = deploy(mc, state)
    root = run_one_full_round(mc, model, state, range(10))
    assert root is not None
    assert it.phase == DECIDING
    assert root == it.winning_root


def test_witness_updates_state_and_settles():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=0.01)
    it = deploy(mc, state)
    run_one_full_round(mc, model, state, range(10))
    final = model.final_state(state, compute_eta(it.tx.data))
    modified = {k: final.get(k) for k in final.storage}
    from cicsim.merkle_state import prove_inclusion
    proofs = [prove_inclusion(final, k) for k in sorted(modified)]
    block = it.round.reveal_close + 1
    assert mc.submit_witness(0, state.cid, modified, proofs, block)
    assert mc.states[state.cid] == final
    assert state.cid not in mc.active
    assert it.phase == SETTLED


def test_invalid_witness_is_rejected_then_deadline_settles_without_update():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=0.01)
    it = deploy(mc, state)
    run_one_full_round(mc, model, state, range(10))
    junk = {sha256(b"key"): sha256(b"value")}
    block = it.round.reveal_close + 1
    assert not mc.submit_witness(0, state.cid, junk, [], block)
    assert state.cid in mc.active
    mc.tick(it.decide_deadline)
    assert it.phase == SETTLED
    assert mc.states[state.cid] == state  # no update happened
    assert any(e["type"] == "missing_state_witness" for e in mc.events)


def test_tick_cascades_zero_buffer_and_keeps_the_witness_deadline():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=0.01, w_buf=0)
    it = deploy(mc, state)
    rnd = it.round
    material = {i: honest_material(mc, model, state, it, i) for i in range(10)}
    for node_id, (_, _, se) in material.items():
        mc.submit_commit(node_id, state.cid, se, rnd.commit_open)

    def events_of(block):
        seen = len(mc.events)
        mc.tick(block)
        return [e["type"] for e in mc.events[seen:]]

    for block in range(rnd.commit_open, rnd.commit_close):
        assert events_of(block) == []
    assert events_of(rnd.commit_close) == ["buffering", "revealing"]
    assert it.phase == REVEALING and rnd.reveal_open == rnd.commit_close + 1
    for node_id, (digest, sort, _) in material.items():
        mc.submit_reveal(node_id, state.cid, digest, sort, rnd.reveal_open)
    for block in range(rnd.reveal_open, rnd.reveal_close):
        assert events_of(block) == []
    # the round closes at its reveal deadline; the witness deadline does
    # not settle in the same block
    assert events_of(rnd.reveal_close) == ["round_closed"]
    assert it.phase == DECIDING
    for block in range(rnd.reveal_close + 1, it.decide_deadline):
        assert events_of(block) == []
    closing = events_of(it.decide_deadline)
    assert closing[0] == "missing_state_witness" and "settled" in closing
    assert it.phase == SETTLED and state.cid not in mc.active


# --- settlement branches (th1 / th2 rules) -----------------------------------------

def seed_digest(root: MerkleRoot, tag: bytes) -> Digest:
    return Digest(seed=sha256(b"seed", tag), root=root)


def settle_with_seed_groups(group_sizes, th1=0.60, th2=0.25):
    """One decided round where the winning root's seed groups have the given
    sizes; returns (mc, node outcomes by group)."""
    n = sum(group_sizes)
    mc, model, state = build_mc(n_nodes=max(n, 10), q=1.0, beta=0.01,
                                th1=th1, th2=th2)
    it = deploy(mc, state)
    honest_digest, _ = rice_execute_traced(model, state, it.tx.data, 1, it.round1_entropy)
    digests = {}
    node_id = 0
    groups = []
    for g, size in enumerate(group_sizes):
        members = []
        for _ in range(size):
            digests[node_id] = seed_digest(honest_digest.root, be8(g))
            members.append(node_id)
            node_id += 1
        groups.append(members)
    assert run_one_full_round(mc, model, state, range(n), digests) is not None
    mc.tick(it.decide_deadline)
    return mc, groups


def test_majority_seed_rewarded_minority_forfeits():
    # groups {A: 8, B: 2}: 0.8 > th1 rewards, 0.2 < th2 forfeits
    mc, (a, b) = settle_with_seed_groups([8, 2])
    for node_id in a:
        assert mc.nodes[node_id].balance == 50 + 10
        assert mc.nodes[node_id].deposit == 100
    for node_id in b:
        assert mc.nodes[node_id].balance == 50
        assert mc.nodes[node_id].deposit == 0


def test_split_seeds_neither_rewarded_nor_punished():
    # {A: 5, B: 5}: both fractions sit inside [th2, th1]
    mc, (a, b) = settle_with_seed_groups([5, 5])
    for node_id in a + b:
        assert mc.nodes[node_id].balance == 50
        assert mc.nodes[node_id].deposit == 100


def test_threshold_boundaries_are_strict():
    # fraction exactly th1 = 0.75 is not rewarded; exactly th2 = 0.25 is
    # not punished (both comparisons are strict)
    mc, (a, b) = settle_with_seed_groups([3, 1], th1=0.75, th2=0.25)
    for node_id in a:
        assert mc.nodes[node_id].balance == 50
        assert mc.nodes[node_id].deposit == 100
    for node_id in b:
        assert mc.nodes[node_id].balance == 50
        assert mc.nodes[node_id].deposit == 100


def test_wrong_root_in_early_round_forfeits_despite_later_decision():
    # with q = 1 the gate sits at exactly zero, so a 5/5 tie scores zero
    # and continues, while any strict majority in round 2 decides
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=1e-4)
    it = deploy(mc, state)
    wrong = Digest(seed=sha256(b"ws"), root=MerkleRoot(sha256(b"wrong-root")))
    assert run_one_full_round(mc, model, state, range(10),
                              {i: wrong for i in range(5, 10)}) is None
    # round 2: five honest revealers: accepted
    assert run_one_full_round(mc, model, state, range(5)) is not None
    mc.tick(it.decide_deadline)
    for node_id in range(5, 10):
        assert mc.nodes[node_id].deposit == 0, "early wrong root must forfeit"
    for node_id in range(5):
        assert mc.nodes[node_id].deposit == 100
        assert mc.nodes[node_id].balance == 50 + 2 * 10  # rewarded in both rounds


def test_value_conservation_through_settlement():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=0.01)
    baseline = mc.total_value()
    it = deploy(mc, state)
    run_one_full_round(mc, model, state, range(10))
    mc.tick(it.decide_deadline)
    assert mc.total_value() == baseline
    assert it.escrow == 0
    # escrow split: fee to treasury, surplus back to the creator
    settled = next(e for e in mc.events if e["type"] == "settled")
    assert settled["gas_fee"] == it.tx.gas_price * compute_length(4)
    assert settled["refund"] >= 0


def test_round_cap_aborts_with_refund():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=1e-9, max_rounds=2)
    before = mc.creators["alice"]
    it = deploy(mc, state)
    advance_to_reveal(mc, state)
    mc.close_round(state.cid, it.round.reveal_close)      # round 1, empty
    advance_to_reveal(mc, state)
    mc.close_round(state.cid, it.round.reveal_close)      # round 2, cap hit
    assert it.phase == SETTLED
    assert mc.events[-1]["type"] == "no_convergence"
    assert mc.creators["alice"] == before
    assert state.cid not in mc.active


def test_round_cap_abort_deploys_the_queued_transaction_next_block():
    mc, model, state = build_mc(n_nodes=10, q=1.0, beta=1e-9, max_rounds=1)
    first, second = make_tx(state, eta=3), make_tx(state, eta=5)
    mc.enqueue(first, "alice", 1)
    mc.enqueue(second, "alice", 1)
    before = mc.creators["alice"]
    advance_to_reveal(mc, state)
    block = mc.active[state.cid].round.reveal_close
    mc.close_round(state.cid, block)                       # cap hit: abort
    types = [e["type"] for e in mc.events]
    aborted = types.index("no_convergence")
    assert types[aborted + 1:] == ["deployed", "round_started"]
    deployed = mc.events[aborted + 1]
    assert deployed["block"] == block + 1 and deployed["tid"] == second.tid.hex()
    it = mc.active[state.cid]
    assert it.tx.tid == second.tid and it.escrow == deployed["escrow"]
    # the first escrow came back; the second is paid from the same balance
    first_escrow = mc.policy.d_min + first.gas_price * first.gas_limit
    assert mc.creators["alice"] == before + first_escrow - it.escrow
    assert list(mc.queues[state.cid]) == [(second, "alice")]


def test_a_refused_enqueue_leaves_the_queue():
    mc, model, state = build_mc()
    mc.creators["bob"] = 0
    unfunded, funded = make_tx(state, eta=3), make_tx(state, eta=5)
    with pytest.raises(InsufficientEscrow):
        mc.enqueue(unfunded, "bob", 1)
    assert not mc.queues[state.cid] and state.cid not in mc.active
    mc.enqueue(funded, "alice", 2)
    assert mc.active[state.cid].tx.tid == funded.tid


def test_an_unfunded_queue_head_is_refused_and_the_next_deploys():
    # the second transaction's escrow (82) exceeds its creator's balance (40);
    # it used to raise out of the round-cap exit and block the contract
    sc = Scenario(m_total=12, q=0.6, max_rounds=1, strategies=(("silent", 12),),
                  its=(ItSpec(eta=3), ItSpec(eta=10), ItSpec(eta=3)), creator_balance=40)
    res = run_scenario(sc)
    assert res.conserved
    rejected = [e for e in res.events if e["type"] == "rejected"]
    assert [(e["message"], e["node"], e["reason"]) for e in rejected] == [
        ("enqueue", -1, "InsufficientEscrow")]
    tids = [e["tid"] for e in res.events if e["type"] == "queued"]
    finished = [e["tid"] for e in res.events if e["type"] in ("settled", "no_convergence")]
    assert finished == [tids[0], tids[2]]


# --- scenario-level properties -------------------------------------------------------

def scenario(**kw) -> Scenario:
    base = dict(seed=sha256(b"scen").hex(), m_total=12, q=0.6, f_max=0.4,
                beta=1e-6, strategies=(("honest", 12),),
                cics=(CicSpec(),), its=(ItSpec(eta=4),))
    base.update(kw)
    return Scenario(**base)


def test_scenario_json_round_trip():
    sc = scenario(strategies=(("honest", 9), ("freeloader", 2, {"gamma": 0.25}),
                              ("silent", 1)))
    again = Scenario.from_json(sc.to_json())
    assert again == sc
    assert again.to_json() == sc.to_json()


def _edited_scenario_json(**changes) -> str:
    doc = json.loads(scenario().to_json())
    doc.update(changes)
    return json.dumps(doc)


def _edited_it_json(**changes) -> str:
    return _edited_scenario_json(its=[{**asdict(ItSpec(eta=4)), **changes}])


def _edited_windows_json(**changes) -> str:
    return _edited_scenario_json(windows={**asdict(WindowConfig()), **changes})


# values that parse but that a run cannot use, each a ScenarioError up front
BAD_SCENARIO_VALUES = [
    _edited_scenario_json(q=2),
    _edited_scenario_json(beta=0),
    _edited_scenario_json(seed="zz"),
    _edited_scenario_json(seed="00"),
    _edited_it_json(cic_index=5),
    _edited_it_json(eta=-1),
    _edited_it_json(gas_price=-1),
    _edited_it_json(submit_block=0),
    _edited_it_json(submit_block=-5),
    _edited_it_json(gas_margin=-100),
    _edited_it_json(gas_margin=-compute_length(4)),   # gas limit 0
    _edited_it_json(gas_margin=-1),                   # gas limit one short of the run
    _edited_scenario_json(cics=[{"key": -1, "init": 0}]),
    _edited_scenario_json(cics=[{"key": 0, "init": 2 ** 256}]),
    _edited_scenario_json(node_balance=-1),
    _edited_scenario_json(treasury=-5),
    _edited_scenario_json(creator_balance=-1),
    _edited_windows_json(gas_per_block=0),
    _edited_windows_json(gas_per_block=-40),
    _edited_windows_json(w_src_slack=-50),
    _edited_windows_json(w_sr=0),
    _edited_windows_json(w_buf=-3),
    _edited_scenario_json(max_rounds=0),
    _edited_scenario_json(commit_jitter=0),
    _edited_scenario_json(reveal_jitter=0),
    # amounts, counts and block offsets are ints, never floats or bools
    _edited_scenario_json(commit_jitter=1.5),
    _edited_scenario_json(creator_balance=1e6),
    _edited_scenario_json(m_total=12.0),
    _edited_scenario_json(max_rounds=True),
    _edited_it_json(submit_block=1.5),
    _edited_it_json(eta=3.5),
    _edited_windows_json(w_src_slack=0.5),
    _edited_scenario_json(policy={**asdict(SettlementPolicy()), "deposit": 0.1}),
    _edited_scenario_json(cics=[{"key": 0, "init": False}]),
    # each strategy kind takes only the parameter `adversary.KINDS` declares
    # for it, in that parameter's range, and a count is a non-negative int
    _edited_scenario_json(strategies=[["honest", 10], ["colluder", 2, {"group": -1}]]),
    _edited_scenario_json(strategies=[["honest", 10], ["colluder", 2, {"group": 2 ** 64}]]),
    _edited_scenario_json(strategies=[["honest", 10], ["byz_multi", 2, {"fanout": 2.5}]]),
    _edited_scenario_json(strategies=[["honest", 12], ["byz_single", -3]]),
    _edited_scenario_json(strategies=[["honest", 11], ["honest", True]]),
    _edited_scenario_json(strategies=[["honest", 12, {}, "junk"]]),
    _edited_scenario_json(strategies=[["honest", 12, {"fanout": 9}]]),
]


@pytest.mark.parametrize("text", [
    "{}",                                              # every key missing
    _edited_scenario_json(colour="red"),               # unknown key
    _edited_scenario_json(strategies={"honest": 12}),  # strategies not a list
    _edited_scenario_json(strategies=[["honest", 5]]), # pool not filled
    "not json",
    "[1, 2]",
    *BAD_SCENARIO_VALUES,
])
def test_malformed_scenario_json_raises_scenario_error(text):
    with pytest.raises(ScenarioError):
        Scenario.from_json(text)


# every field that holds an amount, a count or a block offset, with a float or a
# bool in it: at a fractional block a message is never delivered, and a float
# amount would reach the ledger and the log
NON_INTEGERS = [
    *[(Scenario, name, value) for name, value in [
        ("m_total", 24.0), ("max_rounds", True), ("commit_jitter", 1.5),
        ("reveal_jitter", 2.5), ("node_balance", 50.0), ("creator_balance", 1e6),
        ("treasury", False)]],
    *[(ItSpec, name, value) for name, value in [
        ("cic_index", False), ("eta", 3.5), ("gas_price", 1.0), ("gas_margin", 12.5),
        ("submit_block", 1.5)]],
    (CicSpec, "key", 1.0), (CicSpec, "init", True),
    *[(WindowConfig, name, value) for name, value in [
        ("gas_per_block", 10.5), ("w_src_slack", 0.5), ("w_buf", True), ("w_sr", 4.0)]],
    *[(SettlementPolicy, name, value) for name, value in [
        ("reward", 10.5), ("deposit", 0.1), ("d_min", True)]],
]


@pytest.mark.parametrize("spec,name,value", NON_INTEGERS)
def test_non_integer_amounts_counts_and_offsets_are_refused(spec, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        spec(**{name: value})


def test_scenario_values_at_their_edges_parse():
    for text in (_edited_it_json(gas_margin=0, submit_block=1),
                 _edited_scenario_json(cics=[{"key": 2 ** 256 - 1, "init": 2 ** 256 - 1}]),
                 _edited_scenario_json(node_balance=0, treasury=0, creator_balance=0),
                 _edited_windows_json(gas_per_block=1, w_src_slack=0, w_buf=0, w_sr=1),
                 _edited_scenario_json(max_rounds=1, commit_jitter=1, reveal_jitter=1),
                 _edited_scenario_json(strategies=[["honest", 7], ["silent", 0],
                                                   ["colluder", 5, {"group": 2 ** 64 - 1}]])):
        Scenario.from_json(text)


def test_a_gas_limit_of_exactly_the_run_settles():
    result = run_scenario(scenario(its=(ItSpec(eta=4, gas_margin=0),)))
    assert result.settled == 1 and result.conserved


def test_full_run_is_replayable_and_conserved():
    result = run_scenario(scenario())
    assert result.conserved
    assert result.settled == 1
    report = replay_check(result.scenario, result.lines)
    assert report.identical and report.first_divergence is None
    assert report.recorded_line is report.replayed_line is report.event_type is None


@pytest.mark.parametrize("its,windows,active", [
    (ItSpec(submit_block=200_000), WindowConfig(), 0),             # never deployed
    (ItSpec(eta=100_000), WindowConfig(gas_per_block=1), 1),       # inside a commit window
])
def test_a_run_stopped_at_the_block_cap_says_so(its, windows, active):
    result = run_scenario(scenario(its=(its,), windows=windows))
    assert result.total_blocks == MAX_BLOCKS and result.conserved
    last = result.events[-1]
    assert last == {"block": MAX_BLOCKS, "type": "block_cap", "max_blocks": MAX_BLOCKS,
                    "active": active, "pending": last["pending"]}
    assert last["pending"] > 0
    assert [e["type"] for e in result.events].count("block_cap") == 1


def _replay_edited(edit):
    """A full run's lines and the replay report of `edit(lines)`."""
    result = run_scenario(scenario())
    lines = list(result.lines)
    report = replay_check(result.scenario, edit(list(lines)))
    assert not report.identical
    assert report.replayed_events == len(lines)
    return report, lines


def _first_commit(lines):
    return next(i for i, l in enumerate(lines) if '"type":"commit"' in l)


def _flip_one_se_digit(lines):
    i = _first_commit(lines)
    at = lines[i].index('"se":"') + len('"se":"')
    lines[i] = lines[i][:at] + ("1" if lines[i][at] == "0" else "0") + lines[i][at + 1:]
    return lines


def test_replay_names_a_one_byte_edit_of_a_commit():
    report, lines = _replay_edited(_flip_one_se_digit)
    target = _first_commit(lines)
    assert report.first_divergence == target
    assert report.replayed_line == lines[target]
    assert report.recorded_line == _flip_one_se_digit(list(lines))[target]
    assert report.event_type == "commit"


def test_replay_names_a_dropped_last_line():
    report, lines = _replay_edited(lambda lines: lines[:-1])
    assert report.first_divergence == len(lines) - 1
    assert report.recorded_events == len(lines) - 1
    assert report.recorded_line is None
    assert report.replayed_line == lines[-1]
    assert report.event_type == json.loads(lines[-1])["type"]


def test_replay_names_an_appended_line():
    extra = '{"block":999,"cid":"00","type":"reward"}'
    report, lines = _replay_edited(lambda lines: lines + [extra])
    assert report.first_divergence == len(lines)
    assert report.recorded_events == len(lines) + 1
    assert report.recorded_line == extra
    assert report.replayed_line is None
    assert report.event_type == "reward"


_ODD_TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/é€\u2028😀'),
                                      st.characters()), max_size=30)
_PAYLOAD_VALUES = st.one_of(
    st.binary(max_size=40),                                  # emitted as hex
    st.integers(-2 ** 80, 2 ** 80), st.integers(2 ** 63, 2 ** 300),
    st.booleans(), st.none(), _ODD_TEXT,
    st.dictionaries(st.binary(min_size=32, max_size=32).map(bytes.hex),
                    st.integers(0, 10 ** 6), max_size=4))    # a round tally


_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12).filter(
    lambda k: k not in ("block", "kind", "type"))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# a value of each declared JSON kind; text is printable ASCII (quotes and
# backslashes included) or odd text, so some of it needs escaping
_OF_KIND = {int: st.integers(-2 ** 80, 2 ** 80), bytes: st.binary(max_size=40),
            str: st.one_of(st.from_regex(r"[ -~]*", fullmatch=True), _ODD_TEXT)}


@st.composite
def _per_node_events(draw):
    """A `PER_NODE_FIELDS` kind with its fields in order, each of its declared
    kind, and at most one change: any other value, a renamed, dropped or
    added key, or the fields in reverse order."""
    kind = draw(st.sampled_from(sorted(PER_NODE_FIELDS)))
    declared = PER_NODE_FIELDS[kind]
    payload = {key: draw(_OF_KIND[json_kind]) for key, json_kind in declared.items()}
    key, other = draw(st.sampled_from(list(declared))), draw(_KEYS.filter(
        lambda k: k not in declared))
    change = draw(st.sampled_from([None, None, "value", "rename", "drop", "add", "reverse"]))
    if change == "value":
        payload[key] = draw(st.one_of(_PAYLOAD_VALUES, _FLOATS))
    elif change == "rename":
        payload = {other if k == key else k: v for k, v in payload.items()}
    elif change == "drop":
        del payload[key]
    elif change == "add":
        payload[other] = draw(_OF_KIND[int])
    elif change == "reverse":
        payload = dict(reversed(payload.items()))
    return kind, payload


# a block is a bool in about one example in three, which only the general path renders
@settings(max_examples=200, deadline=None)
@given(block=st.one_of(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40), st.booleans()),
       event=st.one_of(
           st.tuples(st.one_of(_ODD_TEXT, st.sampled_from(sorted(PER_NODE_FIELDS))),
                     st.dictionaries(_KEYS, st.one_of(_PAYLOAD_VALUES, _FLOATS), max_size=8)),
           _per_node_events()))
def test_emit_writes_the_canonical_line(block, event):
    """Whichever path renders it, the line is the oracle's, and the event
    keeps the order of its keys."""
    kind, payload = event
    mc, _, _ = build_mc(n_nodes=1)
    mc.emit(block, kind, **payload)
    expected = {"block": block, "type": kind,
                **{k: v.hex() if isinstance(v, bytes) else v for k, v in payload.items()}}
    assert mc.events == [expected]
    assert list(mc.events[0]) == list(expected)
    assert mc.lines == [canonical_line(expected)] == event_lines(mc.events)


def test_an_empty_treasury_pays_rewards_only_from_fees():
    result = run_scenario(scenario(treasury=0))
    assert result.conserved and result.settled == 1
    assert result.mc.treasury >= 0
    paid = sum(e["amount"] for e in result.events if e["type"] == "reward")
    fees = sum(result.scenario.policy.d_min + e["gas_fee"]
               for e in result.events if e["type"] == "settled")
    assert 0 < paid <= fees


def test_freeloader_failed_guesses_forfeit_at_settlement():
    # gamma = 0: every guess after round 1 fails, so any freeloader that
    # reveals in a later round must end with a burned deposit
    sc = scenario(m_total=14, q=0.9, beta=1e-12,
                  strategies=(("honest", 11), ("freeloader", 3, {"gamma": 0.0})),
                  its=(ItSpec(eta=3),))
    result = run_scenario(sc)
    assert result.settled == 1
    mc = result.mc
    freeload_ids = [i for i in range(11, 14)]
    late_revealers = set()
    for event in result.events:
        if (event["type"] == "reveal" and event["round"] >= 2
                and event["node"] in freeload_ids):
            late_revealers.add(event["node"])
    for node_id in late_revealers:
        assert mc.nodes[node_id].deposit == 0
    # and they never drag the consensus to a wrong root
    settled = next(e for e in result.events if e["type"] == "settled")
    honest_root = next(e for e in result.events if e["type"] == "reveal"
                       and e["node"] == 0)["root"]
    assert settled["winning_root"] == honest_root


def test_silent_nodes_only_ever_forfeit():
    sc = scenario(m_total=12, q=0.9,
                  strategies=(("honest", 10), ("silent", 2)))
    result = run_scenario(sc)
    mc = result.mc
    for node_id in (10, 11):
        assert mc.nodes[node_id].balance == sc.node_balance  # never rewarded
    rewards = {e["node"] for e in result.events if e["type"] == "reward"}
    assert rewards.isdisjoint({10, 11})


def test_out_of_window_messages_are_rejected_not_accepted():
    result = run_scenario(scenario())
    # inject a straggler commit into a fresh run: resend an accepted commit
    # one block after the window closed
    sc2 = scenario(seed=sha256(b"late").hex())
    from cicsim.protocol import Simulation
    sim = Simulation(sc2)
    res = sim.run()
    commit_events = [e for e in res.events if e["type"] == "commit"]
    assert commit_events, "needs at least one commit to replay late"
    rejected = [e for e in res.events if e["type"] == "rejected"]
    for event in rejected:
        assert event["reason"] in {"OutsideWindow", "NotInSP", "DuplicateCommit",
                                   "NoCommitment", "CommitMismatch",
                                   "InvalidSortition"}


# --- whole-run invariants under perturbation -----------------------------------

def _bump(owner, attr):
    setattr(owner, attr, getattr(owner, attr) + 1)


# every term of MasterContract.total_value, each given one unit from nowhere
LEDGER_TERMS = {
    "node balance": lambda mc: _bump(mc.nodes[0], "balance"),
    "node deposit": lambda mc: _bump(mc.nodes[0], "deposit"),
    "creator": lambda mc: mc.creators.update(creator0=mc.creators["creator0"] + 1),
    "treasury": lambda mc: _bump(mc, "treasury"),
    "burned": lambda mc: _bump(mc, "burned"),
    "active escrow": lambda mc: _bump(next(iter(mc.active.values())), "escrow"),
}


@pytest.mark.parametrize("term", list(LEDGER_TERMS))
def test_a_silent_leak_in_any_ledger_term_fails_conservation_in_its_block(term):
    """The per-block check recomputes every term, so a unit that appears
    outside any contract call is caught in its own block, even one that
    logs no event."""
    sc = scenario()
    clean = run_scenario(sc)
    deployed = next(e["block"] for e in clean.events if e["type"] == "deployed")
    settled = next(e["block"] for e in clean.events if e["type"] == "settled")
    logged = {e["block"] for e in clean.events}
    quiet = next(b for b in range(deployed + 1, settled) if b not in logged)

    class Leaky(Simulation):
        def _deliver(self, block):
            super()._deliver(block)
            if block == quiet:
                LEDGER_TERMS[term](self.mc)

    result = Leaky(sc).run()
    *before, last = result.events
    assert before == clean.events[:len(before)]
    assert last["type"] == "conservation_violated" and last["block"] == quiet
    assert last["actual"] - last["expected"] == 1
    assert not result.conserved and result.total_blocks == quiet


OUTCOME_TYPES = ("round_closed", "reward", "forfeit", "settled")


def _outcome(result) -> list:
    """A run's outcome events without the block each was logged in."""
    return [{k: v for k, v in e.items() if k != "block"}
            for e in result.events if e["type"] in OUTCOME_TYPES]


class ShuffledDelivery(Simulation):
    """Delivers each block's messages of the given kinds in a seeded random
    order among themselves, and the rest where the canonical order puts
    them; `reordered` counts the blocks where that differs."""

    def __init__(self, scenario, salt, kinds=tuple(Simulation._POST_ORDER)):
        super().__init__(scenario)
        self.rng = random.Random(salt)
        self.kinds = kinds
        self.reordered = 0

    def _deliver(self, block):
        messages = sorted(self.inbox.get(block, []))
        slots = [i for i, message in enumerate(messages) if message[3] in self.kinds]
        moved = [messages[i] for i in slots]
        self.rng.shuffle(moved)
        self.reordered += moved != sorted(moved)
        for i, message in zip(slots, moved):
            messages[i] = message
        # the canonical order sorts on each message's first field
        self.inbox[block] = [(rank, *message[1:]) for rank, message in enumerate(messages)]
        super()._deliver(block)


def test_a_lone_transaction_outcome_ignores_timing_within_its_windows():
    """Which window a message lands in decides the outcome; the block within
    the window and the order within the block do not."""
    seed = sha256(b"outcome-invariance")
    singles = [sc for sc in (random_scenario(i, seed) for i in range(240))
               if len(sc.its) == 1]
    assert len(singles) >= 50
    moved = reordered = 0
    for index, sc in enumerate(singles):
        base = run_scenario(sc)
        jittered = run_scenario(replace(sc, commit_jitter=sc.commit_jitter + 5,
                                        reveal_jitter=sc.reveal_jitter + 5))
        shuffled = ShuffledDelivery(sc, salt=index)
        assert _outcome(jittered) == _outcome(base), index
        assert _outcome(shuffled.run()) == _outcome(base), index
        moved += jittered.lines != base.lines
        reordered += shuffled.reordered
    assert moved and reordered      # both perturbations changed the runs


def test_same_block_order_couples_transactions_only_through_enqueue_and_witness():
    """With several transactions, shuffling each block's commits and reveals
    among themselves, enqueues kept first and witnesses last in canonical
    order, changes no outcome. Shuffling every kind changes some: each
    deployment, by an enqueue or by a settling witness for the next queue
    head, draws its beacon nonce in inclusion order."""
    seed = sha256(b"outcome-invariance")
    multi = [sc for sc in (random_scenario(i, seed) for i in range(120)) if len(sc.its) > 1]
    assert len(multi) >= 60
    reordered = changed = 0
    for index, sc in enumerate(multi):
        base = _outcome(run_scenario(sc))
        shuffled = ShuffledDelivery(sc, salt=index, kinds=("commit", "reveal"))
        assert _outcome(shuffled.run()) == base, index
        reordered += shuffled.reordered
        changed += _outcome(ShuffledDelivery(sc, salt=index).run()) != base
    assert reordered and changed


def test_the_post_state_is_built_once_per_accepted_round(monkeypatch):
    """Witness planning builds the post-state; rounds that decide nothing do not."""
    calls = []
    final_state = ComputeModel.final_state
    monkeypatch.setattr(ComputeModel, "final_state",
                        lambda model, *args: calls.append(1) or final_state(model, *args))
    seed = sha256(b"post-state-count")
    accepted = closed = 0
    for index in range(30):
        closes = [e for e in run_scenario(random_scenario(index, seed)).events
                  if e["type"] == "round_closed"]
        accepted += sum(e["accepted"] for e in closes)
        closed += len(closes)
    assert len(calls) == accepted and closed > accepted


# --- small scope: every loss of up to two messages, every delivery order ------

SMALL = Scenario(seed=sha256(b"smallscope", bytes([0])).hex(), m_total=4, q=0.99,
                 f_max=0.4, beta=1e-2, max_rounds=6,
                 strategies=(("honest", 3), ("byz_single", 1)))


class LossyDelivery(Simulation):
    """Never delivers the messages whose post numbers are in `dropped`; the
    numbers of later messages do not move. `posted` lists (kind, node, block)
    for every message posted, dropped or not."""

    def __init__(self, scenario, dropped=frozenset()):
        super().__init__(scenario)
        self.dropped = dropped
        self.posted = []

    def _post(self, block, kind, node_id, call, *args):
        self.posted.append((kind, node_id, block))
        if self._msg_seq in self.dropped:
            self._msg_seq += 1
        else:
            super()._post(block, kind, node_id, call, *args)


class OrderedDelivery(Simulation):
    """Delivers each block's commits, and separately its reveals, in the given
    node orders; kinds keep their canonical order between them."""

    def __init__(self, scenario, commit_order, reveal_order):
        super().__init__(scenario)
        self.orders = {"commit": commit_order, "reveal": reveal_order}

    def _deliver(self, block):
        def position(message):
            rank, node_id, seq, kind, *_ = message
            return rank, self.orders.get(kind, (node_id,)).index(node_id), seq

        messages = sorted(self.inbox.get(block, []), key=position)
        self.inbox[block] = [(rank, *message[1:]) for rank, message in enumerate(messages)]
        super()._deliver(block)


def _checked_run(make):
    """Run a case twice; both runs give the same lines, and the first keeps
    value, window discipline and binding, and never reaches the block cap."""
    result, again = make().run(), make().run()
    assert result.lines == again.lines
    assert result.conserved
    assert all(audit_event_log(result.events).values())
    assert "block_cap" not in [e["type"] for e in result.events]
    return result


def test_small_scope_every_loss_of_up_to_two_messages():
    """Unharmed, the run posts one round of 12 messages. A lost enqueue
    leaves an empty log. Losing two of the three honest reveals forfeits both
    silent committers and leaves one honest and one Byzantine node tied in
    every later round, so the run ends unconverged at the round cap. Every
    other loss still settles."""
    sim = LossyDelivery(SMALL)
    result = sim.run()
    # all four nodes are selected: every commit lands in block 2, every reveal in block 7
    assert [kind for kind, *_ in sim.posted] == ["enqueue", *["commit", "reveal"] * 4,
                                                  *["witness"] * 3]
    assert {(kind, block) for kind, _, block in sim.posted[1:9]} == {("commit", 2),
                                                                      ("reveal", 7)}
    assert len(result.events) == 22 and result.settled == 1
    honest = {n for n, rec in sim.mc.nodes.items() if rec.strategy.kind == adversary.HONEST}
    honest_reveals = [seq for seq, (kind, node_id, _) in enumerate(sim.posted)
                      if kind == "reveal" and node_id in honest]
    cases = [frozenset(c) for size in range(3) for c in combinations(range(12), size)]
    assert len(cases) == 79 and len(honest_reveals) == 3
    for dropped in cases:
        result = _checked_run(lambda: LossyDelivery(SMALL, dropped))
        if 0 in dropped:
            assert result.events == [], dropped
        elif len(dropped) == 2 and dropped <= set(honest_reveals):
            closes = [e for e in result.events if e["type"] == "round_closed"]
            silent = {e["node"] for e in result.events if e["type"] == "forfeit"}
            assert result.events[-1]["type"] == "no_convergence", dropped
            assert len(closes) == SMALL.max_rounds and not any(e["accepted"] for e in closes)
            assert silent == {sim.posted[seq][1] for seq in dropped}
        else:
            assert result.settled == 1, dropped


def test_small_scope_every_order_of_round_one_commits_and_reveals():
    base = _outcome(_checked_run(lambda: Simulation(SMALL)))
    orders = list(permutations(range(4)))
    for commit_order in orders:
        for reveal_order in orders:
            result = _checked_run(lambda: OrderedDelivery(SMALL, commit_order, reveal_order))
            assert result.settled == 1 and _outcome(result) == base, (commit_order, reveal_order)
