"""Master-contract rules: windows, binding, settlement branches, replay."""

import ast
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Optional, Union, get_args, get_origin

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cicsim import adversary, protocol
from cicsim.experiments import audit_event_log, random_scenario, write_event_log
from cicsim.hashing import be8, sha256
from cicsim.merkle_state import CicState, MerkleRoot
from cicsim.miracle import ConsensusParams
from cicsim.protocol import (BUFFERING, COMMITTING, DECIDING, DECLARED_EVENTS,
                             MAX_BLOCKS, REVEALING, SETTLED, CicSpec,
                             CommitMismatch, DuplicateCommit, InsufficientEscrow,
                             InvalidSortition, ItSpec, MasterContract, NoCommitment,
                             OutsideWindow, QueueOrderViolation, Scenario,
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
        mc.add_node(keygen(SEED, i), deposit=deposit, balance=50)
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
    sort = check_sort(mc.keys[node_id], rnd.nonce, mc.params.q)
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
    del mc.pool[3]
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
    bad_sort = check_sort(mc.keys[1], rnd.nonce, 1.0)
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
    assert mc.deposits[0] == 0
    assert 0 not in mc.pool
    assert mc.burned == before + 100


def test_a_node_enrols_once():
    """Enrolling a forfeited node again would restore its deposit and put it
    back in the stake pool outside any ledger path, so it is refused."""
    mc, model, state = build_mc()
    it = deploy(mc, state)
    _, _, se = honest_material(mc, model, state, it, 0)
    mc.submit_commit(0, state.cid, se, it.round.commit_open)
    advance_to_reveal(mc, state)
    mc.close_round(state.cid, it.round.reveal_close)
    value = mc.total_value()
    with pytest.raises(ValueError, match="node 0 is already enrolled"):
        mc.add_node(keygen(SEED, 0), 100, 50)
    assert mc.deposits[0] == 0 and mc.balances[0] == 50 and 0 not in mc.pool
    assert mc.total_value() == value
    with pytest.raises(protocol.NotInSP):
        mc.submit_commit(0, state.cid, se, it.round.commit_open)


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
                             if check_sort(mc2.keys[i], nonce, 0.5).selected}
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
        assert mc.balances[node_id] == 50 + 10
        assert mc.deposits[node_id] == 100
    for node_id in b:
        assert mc.balances[node_id] == 50
        assert mc.deposits[node_id] == 0


def test_split_seeds_neither_rewarded_nor_punished():
    # {A: 5, B: 5}: both fractions sit inside [th2, th1]
    mc, (a, b) = settle_with_seed_groups([5, 5])
    for node_id in a + b:
        assert mc.balances[node_id] == 50
        assert mc.deposits[node_id] == 100


def test_threshold_boundaries_are_strict():
    # fraction exactly th1 = 0.75 is not rewarded; exactly th2 = 0.25 is
    # not punished (both comparisons are strict)
    mc, (a, b) = settle_with_seed_groups([3, 1], th1=0.75, th2=0.25)
    for node_id in a:
        assert mc.balances[node_id] == 50
        assert mc.deposits[node_id] == 100
    for node_id in b:
        assert mc.balances[node_id] == 50
        assert mc.deposits[node_id] == 100


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
        assert mc.deposits[node_id] == 0, "early wrong root must forfeit"
    for node_id in range(5):
        assert mc.deposits[node_id] == 100
        assert mc.balances[node_id] == 50 + 2 * 10  # rewarded in both rounds


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


def test_a_scenario_seed_has_one_spelling(tmp_path):
    # bytes.fromhex ignores case and whitespace, so these name one seed: one
    # document, one log header and one event log
    logs = []
    for spelling in ("ab" * 32, "AB" * 32, " " + "AB " * 32):
        sc = scenario(seed=spelling)
        assert sc.seed == "ab" * 32 and Scenario.from_json(sc.to_json()) == sc
        write_event_log(tmp_path / "run.log", run_scenario(sc))
        logs.append((tmp_path / "run.log").read_bytes())
    assert logs[0] == logs[1] == logs[2]


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
    _edited_it_json(eta=2 ** 256),                    # compute_data takes one word
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
    # a fraction or probability is a number, never a bool: q = true would select every node
    _edited_scenario_json(q=True),
    _edited_scenario_json(f_max=False),
    _edited_scenario_json(beta=True),
    _edited_scenario_json(policy={**asdict(SettlementPolicy()), "th1": True}),
    _edited_scenario_json(policy={**asdict(SettlementPolicy()), "th2": False}),
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


def test_checking_the_strategy_counts_builds_no_pool():
    # a million-node pool is checked by summing its counts, not by building
    # one entry per node, whether they fill the pool or not; neither is run
    tracemalloc.start()
    try:
        Scenario(m_total=10 ** 6, strategies=(("honest", 10 ** 6),))
        filled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ValueError, match="^strategy counts sum to 1000000, pool size is 10$"):
            Scenario(m_total=10, strategies=(("honest", 10 ** 6),))
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filled < 2 ** 20 and refused < 2 ** 20


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


@pytest.mark.parametrize("eta", [2 ** 256, 2 ** 300])
def test_an_eta_beyond_one_word_is_refused(eta):
    with pytest.raises(ValueError, match=r"^eta must be an int from 0 to \d+, not"):
        ItSpec(eta=eta)
    assert ItSpec(eta=2 ** 256 - 1).eta == 2 ** 256 - 1


def test_the_commit_window_rounds_up_in_integers():
    # a float quotient rounds 3 * 2**60 + 1 gas at 3 a block down to 2**60 blocks
    windows = WindowConfig(gas_per_block=3, w_src_slack=0)
    assert windows.w_src(3 * 2 ** 60 + 1) == 2 ** 60 + 1
    assert windows.w_src(3 * 2 ** 60) == 2 ** 60 and windows.w_src(1) == 1
    assert WindowConfig(gas_per_block=40, w_src_slack=2).w_src(81) == 5


def test_scenario_values_at_their_edges_parse():
    for text in (_edited_it_json(gas_margin=0, submit_block=1),
                 _edited_scenario_json(cics=[{"key": 2 ** 256 - 1, "init": 2 ** 256 - 1}]),
                 _edited_it_json(eta=2 ** 256 - 1),
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
    assert report.field is report.recorded_value is report.replayed_value is None


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
    assert report.field == "se"
    assert report.recorded_value == json.loads(report.recorded_line)["se"]
    assert report.replayed_value == json.loads(lines[target])["se"]
    assert report.recorded_value != report.replayed_value


def test_replay_names_a_dropped_last_line():
    report, lines = _replay_edited(lambda lines: lines[:-1])
    assert report.first_divergence == len(lines) - 1
    assert report.recorded_events == len(lines) - 1
    assert report.recorded_line is None
    assert report.replayed_line == lines[-1]
    assert report.event_type == json.loads(lines[-1])["type"]
    assert report.field is report.recorded_value is report.replayed_value is None


def test_replay_names_an_appended_line():
    extra = '{"block":999,"cid":"00","type":"reward"}'
    report, lines = _replay_edited(lambda lines: lines + [extra])
    assert report.first_divergence == len(lines)
    assert report.recorded_events == len(lines) + 1
    assert report.recorded_line == extra
    assert report.replayed_line is None
    assert report.event_type == "reward"
    assert report.field is report.recorded_value is report.replayed_value is None


@pytest.mark.parametrize("old,new,field,values", [
    ('{"block":', "not json ", None, (None, None)),             # does not parse
    ('{"block":', '[{"block":', None, (None, None)),           # parses to no object
    ('"node":0', '"node":false', "node", (False, 0)),          # same value, not the same JSON
    ('"node":0', '"node":0.0', "node", (0.0, 0)),
    ('"node":0', '"mode":0', "mode", (0, None)),               # a key on one side only
    ('"block":2', '"block":2,"block":3', "block", (3, 2)),     # JSON keeps the last duplicate
], ids=["unparsable", "no-object", "bool-for-int", "float-for-int", "key-one-side",
        "duplicate-key"])
def test_replay_names_the_first_differing_field_and_both_values(old, new, field, values):
    def edit(lines):
        i = _first_commit(lines)
        lines[i] = lines[i].replace(old, new, 1)
        return lines

    report, lines = _replay_edited(edit)
    assert report.first_divergence == _first_commit(lines)
    assert report.event_type == "commit"
    assert report.field == field
    # as JSON text, since False == 0 == 0.0 in Python
    assert json.dumps([report.recorded_value, report.replayed_value]) == json.dumps(values)


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_ODD_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\n\t/é€\u2028😀\ud800\udfff'), st.characters()),
    max_size=30)
_INTS = st.one_of(st.integers(-2 ** 80, 2 ** 80), st.integers(2 ** 63, 2 ** 300))
# fitting values of each declared field type
_OF_TYPE = {
    int: _INTS, bool: st.booleans(),
    str: st.one_of(st.from_regex(r"[ -~]*", fullmatch=True), _ODD_TEXT),
    bytes: st.binary(max_size=40),
    Optional[int]: st.one_of(st.none(), _INTS),
    Optional[bytes]: st.one_of(st.none(), st.binary(max_size=40)),
    dict[str, int]: st.dictionaries(        # a round tally, and odd keys
        st.one_of(st.binary(min_size=32, max_size=32).map(bytes.hex), _ODD_TEXT), _INTS,
        max_size=4),
}
# values of every declared type and of none
_ANY = st.one_of(*_OF_TYPE.values(), st.floats(), st.lists(_INTS, max_size=2),
                 st.dictionaries(st.text(max_size=3), st.one_of(
                     st.booleans(), st.floats(), st.text(max_size=3), st.binary(max_size=2)),
                     min_size=1, max_size=2),
                 st.dictionaries(st.integers(0, 9), _INTS, min_size=1, max_size=2))
_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12).filter(
    lambda k: k not in ("block", "kind", "type"))


def _fits(declared, value) -> bool:
    """A declared type's rule, restated: exact classes, so a bool is no int; None
    where Optional; a tally of str keys and int counts."""
    if get_origin(declared) is Union:
        return value is None or _fits(get_args(declared)[0], value)
    if get_origin(declared) is dict:
        return type(value) is dict and all(type(k) is str and type(n) is int
                                           for k, n in value.items())
    return type(value) is declared


@st.composite
def _declared_events(draw):
    """A `DECLARED_EVENTS` kind and a payload that fits it, its keywords in any order."""
    kind = draw(st.sampled_from(sorted(DECLARED_EVENTS)))
    declared = DECLARED_EVENTS[kind]
    return kind, {key: draw(_OF_TYPE[declared[key]])
                  for key in draw(st.permutations(list(declared)))}


@settings(max_examples=300, deadline=None)
@given(block=st.integers(0, 2 ** 40), event=_declared_events())
def test_emit_writes_the_canonical_line(block, event):
    """Every declared kind with values of every declared type: the line is the
    oracle's, and the event holds the values, bytes as hex, in declared order."""
    kind, payload = event
    mc, _, _ = build_mc(n_nodes=1)
    mc.emit(block, kind, **payload)
    expected = {"block": block, "type": kind}
    for key in DECLARED_EVENTS[kind]:
        value = payload[key]
        expected[key] = value.hex() if isinstance(value, bytes) else value
    assert [[(k, type(v), v) for k, v in e.items()] for e in mc.events] == [
        [(k, type(v), v) for k, v in expected.items()]]
    assert mc.lines == [canonical_line(expected)] == event_lines(mc.events)


@st.composite
def _misfits(draw):
    """A fitting event, and it with one misfit: a value of another type, a bool
    block, a renamed, dropped or added key, or an undeclared kind."""
    kind, payload = draw(_declared_events())
    declared = DECLARED_EVENTS[kind]
    key, other = draw(st.sampled_from(list(declared))), draw(_KEYS.filter(
        lambda k: k not in declared))
    change = draw(st.sampled_from(["value", "block", "rename", "drop", "add", "kind"]))
    block, bad_kind, bad = 7, kind, dict(payload)
    if change == "value":
        bad[key] = draw(_ANY.filter(lambda v: not _fits(declared[key], v)))
    elif change == "block":
        block = draw(st.booleans())
    elif change == "rename":
        bad = {other if k == key else k: v for k, v in payload.items()}
    elif change == "drop":
        del bad[key]
    elif change == "add":
        bad[other] = draw(_INTS)
    else:
        bad_kind = draw(st.one_of(_ODD_TEXT, _KEYS).filter(lambda k: k not in DECLARED_EVENTS))
    return kind, payload, change, (block, bad_kind, bad)


_REWARD = dict(cid=b"c", node=1, round=2, amount=3)
_CLOSED = dict(cid=b"c", round=1, tally={"ab": 2}, accepted=True, winning_root=b"r")
_FORFEIT = dict(cid=b"c", node=1, amount=3, reason="wrong root", round=None)


def _misfit(kind, payload, **change):
    return kind, payload, "value", (7, kind, {**payload, **change})


@settings(max_examples=300, deadline=None)
@given(misfit=_misfits())
@example(misfit=_misfit("reward", _REWARD, round=True))
@example(misfit=("reward", _REWARD, "block", (False, "reward", _REWARD)))
@example(misfit=_misfit("round_closed", _CLOSED, tally={"ab": True}))
@example(misfit=_misfit("round_closed", _CLOSED, tally={b"ab": 2}))
@example(misfit=_misfit("round_closed", _CLOSED, accepted=1))
@example(misfit=_misfit("round_closed", _CLOSED, winning_root="r"))
@example(misfit=_misfit("forfeit", _FORFEIT, round=False))
def test_emit_raises_on_a_misfit_and_appends_nothing(misfit):
    """A payload that does not fit its declaration raises TypeError, an undeclared
    kind KeyError: neither is a ProtocolError, so no run logs one as `rejected`."""
    kind, payload, change, (block, bad_kind, bad) = misfit
    mc, _, _ = build_mc(n_nodes=1)
    mc.emit(1, kind, **payload)
    events, lines = list(mc.events), list(mc.lines)
    with pytest.raises(KeyError if change == "kind" else TypeError):
        mc.emit(block, bad_kind, **bad)
    assert mc.events == events and mc.lines == lines


@pytest.mark.parametrize("kind", sorted(DECLARED_EVENTS))
@settings(max_examples=15, deadline=None)
@given(block=st.integers(0, 2 ** 40), data=st.data(), extra=_ANY)
def test_a_positional_emit_is_the_keyword_call(kind, block, data, extra):
    """Fields passed by position in `DECLARED_EVENTS` order append the keyword call's
    event, with its key order, and its line; one field too few or too many raises
    TypeError and appends nothing."""
    declared = DECLARED_EVENTS[kind]
    fields = [data.draw(_OF_TYPE[t]) for t in declared.values()]
    (by_name, _, _), (by_position, _, _) = build_mc(n_nodes=1), build_mc(n_nodes=1)
    by_name.emit(block, kind, **dict(zip(declared, fields)))
    by_position.emit(block, kind, *fields)
    assert [[(k, type(v), v) for k, v in e.items()] for e in by_position.events] == [
        [(k, type(v), v) for k, v in e.items()] for e in by_name.events]
    assert by_position.lines == by_name.lines
    for bad in (fields[:-1], [*fields, extra]):
        with pytest.raises(TypeError):
            by_position.emit(block, kind, *bad)
    assert by_position.events == by_name.events and by_position.lines == by_name.lines


def test_a_positional_emit_call_passes_every_declared_field():
    """An `emit` call in `protocol.py` that passes fields after its literal kind by
    position passes exactly the kind's declared fields, by position alone; the per-node
    call sites are among them."""
    positional = [node for node in ast.walk(ast.parse(Path(protocol.__file__).read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "emit" and isinstance(node.args[1], ast.Constant)
                  and len(node.args) > 2]
    assert {call.args[1].value for call in positional} >= {"commit", "reveal", "reward",
                                                           "forfeit", "rejected"}
    for call in positional:
        kind, fields = call.args[1].value, call.args[2:]
        assert not any(isinstance(arg, ast.Starred) for arg in fields), kind
        assert (len(fields), call.keywords) == (len(DECLARED_EVENTS[kind]), []), kind


def test_every_emitted_kind_is_declared_and_every_declaration_emitted():
    """The kinds `protocol.py` passes to `emit` and `_finish` as string literals
    (the one other kind is `_finish` forwarding its own) are the declared kinds."""
    kinds = [node.args[{"emit": 1, "_finish": 3}[node.func.attr]]
             for node in ast.walk(ast.parse(Path(protocol.__file__).read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("emit", "_finish")]
    assert [k.id for k in kinds if not isinstance(k, ast.Constant)] == ["kind"]
    assert {k.value for k in kinds if isinstance(k, ast.Constant)} == set(DECLARED_EVENTS)


def test_an_emitter_bug_propagates_out_of_the_run_unlogged(monkeypatch):
    """An emit call whose payload does not fit is a bug in the contract, not a
    rejected message: the run stops with the TypeError, and no line is added."""
    calls = []

    def submit_commit(mc, node_id, cid, se, block):
        calls.append((mc, len(mc.lines)))
        mc.emit(block, "commit", cid=cid, round=True, node=node_id, se=se)

    monkeypatch.setattr(MasterContract, "submit_commit", submit_commit)
    with pytest.raises(TypeError, match="commit"):
        run_scenario(scenario())
    [(mc, lined)] = calls
    assert len(mc.lines) == len(mc.events) == lined
    assert not any(e["type"] == "rejected" for e in mc.events)


# the README's JSON type for each declared field type
_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", bytes: "hex",
               Optional[int]: "integer or null", Optional[bytes]: "hex or null",
               dict[str, int]: "tally"}


def test_the_readme_log_format_table_is_the_declaration():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Determinism\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.M)
    assert {kind: re.findall(r"`(\w+)` ([^,]+)", fields) for kind, fields in rows} == {
        kind: [(key, _JSON_TYPES[t]) for key, t in declared.items()]
        for kind, declared in DECLARED_EVENTS.items()}
    assert len(rows) == len(DECLARED_EVENTS)


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
        assert mc.deposits[node_id] == 0
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
        assert mc.balances[node_id] == sc.node_balance  # never rewarded
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
    "node balance": lambda mc: mc.balances.update({0: mc.balances[0] + 1}),
    "node deposit": lambda mc: mc.deposits.update({0: mc.deposits[0] + 1}),
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


def test_a_window_of_jitter_one_draws_no_block(monkeypatch):
    """A window of jitter 1 posts at its first block with no PRF draw: a default
    paper-scale run draws none, and one that jitters only its commits draws once
    per posted commit."""
    counts = Counter()
    prf_value, post = Simulation._prf_value, Simulation._post
    monkeypatch.setattr(Simulation, "_prf_value", lambda sim, label, *parts: (
        counts.update([label]) or prf_value(sim, label, *parts)))
    monkeypatch.setattr(Simulation, "_post", lambda sim, block, kind, *rest: (
        counts.update([kind]) or post(sim, block, kind, *rest)))
    paper = Scenario(seed=sha256(b"jitter-draws").hex(), m_total=1600, q=0.125, f_max=0.45,
                     beta=1e-6, strategies=(("honest", 880), ("byz_single", 720)))
    assert run_scenario(paper).settled == 1
    assert counts[b"cjit"] == counts[b"rjit"] == 0 and counts["commit"] > 0
    counts.clear()
    result = run_scenario(scenario(commit_jitter=3, reveal_jitter=1))
    assert counts[b"rjit"] == 0 and counts[b"cjit"] == counts["commit"] > 0
    assert len({e["block"] for e in result.events if e["type"] == "commit"}) > 1


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
    """Never delivers the messages whose post numbers are in `dropped`, and
    delivers those in `delayed` one block after the block they were posted for,
    and every honest commit and reveal `lag` blocks after it; the numbers of
    later messages do not move. `posted` lists (kind, node, block) for every
    message posted, dropped or not, at its planned block."""

    def __init__(self, scenario, dropped=frozenset(), delayed=frozenset(), lag=0):
        super().__init__(scenario)
        self.dropped, self.delayed, self.lag = dropped, delayed, lag
        self.posted = []

    def _post(self, block, kind, node_id, call, *args):
        self.posted.append((kind, node_id, block))
        if self._msg_seq in self.dropped:
            self._msg_seq += 1
            return
        late = self._msg_seq in self.delayed
        if kind in ("commit", "reveal") and self.strategies[node_id].kind == adversary.HONEST:
            late += self.lag
        super()._post(block + late, kind, node_id, call, *args)


class OrderedDelivery(Simulation):
    """Delivers each block's commits, and separately its reveals, in the given
    node orders, and its enqueues in the given order of their transaction
    indexes, which are their post numbers; kinds keep their canonical order
    between them."""

    def __init__(self, scenario, commit_order=None, reveal_order=None, enqueue_order=None):
        super().__init__(scenario)
        self.orders = {"commit": commit_order, "reveal": reveal_order, "enqueue": enqueue_order}

    def _deliver(self, block):
        def position(message):
            rank, node_id, seq, kind, *_ = message
            mine, order = (seq if kind == "enqueue" else node_id), self.orders.get(kind)
            return rank, order.index(mine) if order else 0, seq

        messages = sorted(self.inbox.get(block, []), key=position)
        self.inbox[block] = [(rank, *message[1:]) for rank, message in enumerate(messages)]
        super()._deliver(block)


def _checked_run(make, twice=True):
    """Run a case, twice unless `twice` is False; both runs give the same lines,
    and the first keeps value, window discipline and binding, and never reaches
    the block cap."""
    result = make().run()
    assert not twice or result.lines == make().run().lines
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
    honest = {n for n, s in enumerate(sim.strategies) if s.kind == adversary.HONEST}
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


# SMALL with one-block commit and reveal windows, so that a one-block delay crosses an edge
NARROW = replace(SMALL, windows=WindowConfig(w_src_slack=0, w_sr=1))


@pytest.mark.parametrize("sc,crossing", [(SMALL, False), (NARROW, True)], ids=["small", "narrow"])
def test_small_scope_every_delay_of_up_to_two_messages(sc, crossing):
    """Each set of up to two of the unharmed run's 12 messages delivered one block late.
    Every message posts in the first block of its window, and SMALL's windows are 3 and
    4 blocks wide: no delay crosses an edge, and every outcome is the unharmed run's. In
    NARROW a late commit or reveal is rejected; an honest node is forfeited exactly when
    its reveal is late after an on-time commit, and two such end unconverged at the
    round cap, as two lost honest reveals do. In both, an honest node whose messages all
    went in on time is forfeited only for `minority seed`, and no case accepts a wrong
    root; one that did would be pinned here with its case, as beta allows it."""
    sim = LossyDelivery(sc)
    base = _outcome(sim.run())
    right = next(e["root"] for e in sim.mc.events if e["type"] == "reveal" and e["node"] == 0)
    honest = {n for n, s in enumerate(sim.strategies) if s.kind == adversary.HONEST}
    cases = [frozenset(c) for size in range(3) for c in combinations(range(12), size)]
    assert len(sim.posted) == 12 and len(cases) == 79
    wrong_root_accepted = set()
    for delayed in cases:
        result = _checked_run(lambda: LossyDelivery(sc, delayed=delayed))
        late = {sim.posted[seq][:2] for seq in delayed}     # (kind, node)
        forfeits = {e["node"]: e["reason"] for e in result.events
                    if e["type"] == "forfeit" and e["node"] in honest}
        assert all(reason == "minority seed" for node, reason in forfeits.items()
                   if node not in {n for _, n in late}), delayed
        lost = {n for kind, n in late if crossing and kind == "reveal" and n in honest
                and ("commit", n) not in late}
        assert forfeits == dict.fromkeys(lost, "unrevealed commitment"), delayed
        if any(e["type"] == "round_closed" and e["accepted"] and e["winning_root"] != right
               for e in result.events):
            wrong_root_accepted.add(delayed)
        if len(lost) == 2:
            assert result.events[-1]["type"] == "no_convergence", delayed
        else:
            assert result.settled == 1, delayed
        assert crossing or _outcome(result) == base, delayed
    assert wrong_root_accepted == set()


# a window setting of the delay grid below at which one block of delay accepts a wrong root:
# (w_src_slack, w_buf, w_sr, commit jitter, reveal jitter)
LATE_BY_ONE = (1, 0, 3, 2, 3)
# the outcomes of the delay grid's cases that break the law, by (winning root, whether an
# honest node forfeits)
DELAY_OUTCOMES = {("byzantine", False): 1008, ("byzantine", True): 108,
                  ("none", True): 12, ("honest", False): 105}


def test_small_scope_every_bounded_delay_of_the_honest_messages():
    """SMALL over w_src_slack 0-2, w_buf 0-2, w_sr 1-4 and both jitters 1-3, with every
    honest commit and reveal delivered d = 0-4 blocks late: 1,620 cases. A message goes
    out in the first min(j, w) blocks of a w-block window of jitter j (SMALL's gas fits
    one block, so its commit window is 1 + w_src_slack wide), so where d <= w - min(j, w)
    for both windows every message still lands in its window, and all 387 such cases
    settle on the honest root with no honest forfeit. The cases that break the law are
    pinned by outcome, and at d = 1 171 of the 324 window settings settle on the
    Byzantine root: MIRACLE counts only revealed votes, so a late honest message works
    like a larger Byzantine share."""
    spec = SMALL.its[0]
    gas_limit = compute_length(spec.eta) + spec.gas_margin
    right = next(e["root"] for e in run_scenario(SMALL).events
                 if e["type"] == "reveal" and e["node"] == 0)
    honest = {n for n, s in enumerate(SMALL.expand_strategies()) if s.kind == adversary.HONEST}
    lawful, outcomes, byzantine_at_one = 0, Counter(), 0
    for slack, w_buf, w_sr, cj, rj, d in product(range(3), range(3), range(1, 5),
                                                 range(1, 4), range(1, 4), range(5)):
        sc = replace(SMALL, windows=WindowConfig(w_src_slack=slack, w_buf=w_buf, w_sr=w_sr),
                     commit_jitter=cj, reveal_jitter=rj)
        w_src = sc.windows.w_src(gas_limit)
        # one run a case keeps this grid's time down; the other small-scope tests rerun theirs
        result = _checked_run(lambda: LossyDelivery(sc, lag=d), twice=False)
        won = [e["winning_root"] for e in result.events if e["type"] == "settled"]
        root = "none" if not won else "honest" if won == [right] else "byzantine"
        forfeits = any(e["type"] == "forfeit" and e["node"] in honest for e in result.events)
        case = slack, w_buf, w_sr, cj, rj, d
        byzantine_at_one += d == 1 and root == "byzantine"
        if d <= w_src - min(cj, w_src) and d <= w_sr - min(rj, w_sr):
            assert (root, forfeits) == ("honest", False), case
            lawful += 1
        else:
            outcomes[root, forfeits] += 1
    assert lawful == 387 and outcomes == DELAY_OUTCOMES and byzantine_at_one == 171


def test_one_block_of_delay_lets_a_lone_byzantine_reveal_decide():
    """The case LATE_BY_ONE with every honest commit and reveal one block late. Commits
    go out in blocks 1-2 of a 2-block window and reveals in blocks 1-3 of a 3-block one,
    so a message drawn for a window's last block misses it. Round 1: node 1's commit is
    refused and node 2's reveal misses, so node 2 forfeits its deposit for an
    unrevealed commitment, and node 0's honest vote ties the Byzantine one. Round 2
    ties the same way, with node 1 voting. In round 3 nodes 0 and 1 both commit late,
    and the lone Byzantine reveal decides it under SMALL's beta of 1e-2. Settlement then
    forfeits nodes 0 and 1 for their wrong roots of rounds 1 and 2 and rewards node 3
    for all three rounds."""
    slack, w_buf, w_sr, cj, rj = LATE_BY_ONE
    sc = replace(SMALL, windows=WindowConfig(w_src_slack=slack, w_buf=w_buf, w_sr=w_sr),
                 commit_jitter=cj, reveal_jitter=rj)
    right = next(e["root"] for e in run_scenario(SMALL).events
                 if e["type"] == "reveal" and e["node"] == 0)
    events = _checked_run(lambda: LossyDelivery(sc, lag=1)).events
    wrong = next(e["root"] for e in events if e["type"] == "reveal" and e["node"] == 3)
    name = {right: "honest", wrong: "byzantine"}
    assert [(e["round"], {name[r]: n for r, n in e["tally"].items()},
             e["accepted"]) for e in events if e["type"] == "round_closed"] == [
        (1, {"honest": 1, "byzantine": 1}, False), (2, {"honest": 1, "byzantine": 1}, False),
        (3, {"byzantine": 1}, True)]
    assert [(e["block"], e["message"], e["node"], e["reason"]) for e in events
            if e["type"] == "rejected"] == [
        (4, "commit", 1, "OutsideWindow"), (7, "reveal", 1, "OutsideWindow"),
        (7, "reveal", 2, "OutsideWindow"), (9, "commit", 0, "OutsideWindow"),
        (10, "reveal", 0, "NoCommitment"), (14, "commit", 0, "OutsideWindow"),
        (14, "commit", 1, "OutsideWindow"), (15, "reveal", 0, "NoCommitment"),
        (17, "reveal", 1, "OutsideWindow")]
    assert [(e["node"], e["reason"], e["round"]) for e in events if e["type"] == "forfeit"] == [
        (2, "unrevealed commitment", None), (0, "wrong root", 1), (1, "wrong root", 2)]
    assert [(e["node"], e["round"]) for e in events if e["type"] == "reward"] == [
        (3, 1), (3, 2), (3, 3)]
    [settled] = [e for e in events if e["type"] == "settled"]
    assert (settled["winning_root"], settled["rounds"]) == (wrong, 3)


def test_small_scope_every_order_of_round_one_commits_and_reveals():
    base = _outcome(_checked_run(lambda: Simulation(SMALL)))
    orders = list(permutations(range(4)))
    for commit_order in orders:
        for reveal_order in orders:
            result = _checked_run(lambda: OrderedDelivery(SMALL, commit_order, reveal_order))
            assert result.settled == 1 and _outcome(result) == base, (commit_order, reveal_order)


def test_small_scope_two_transactions_in_every_inclusion_order():
    """Two transactions on SMALL, queued on one CID or running on two CIDs,
    their enqueues in one block in either order, or either one in each of the
    11 blocks after the other's, up to past the first settlement. In every
    case both settle in one round, the honest root winning; the one included
    first deploys first and draws the beacon's first nonce, under which the
    Byzantine node 3 is selected and forfeited for its wrong root, and under
    the second nonce it is not selected. An honest node, which delivers every
    message it plans here, is never forfeited, and no wrong root is accepted."""
    configs = {"queue": (SMALL.cics, (0, 0)), "two cids": ((CicSpec(), CicSpec(key=1)), (0, 1))}
    nonces = None
    for name, (cics, cic_of) in configs.items():
        blocks = [(1, 1, (0, 1)), (1, 1, (1, 0))]
        blocks += [pair for later in range(2, 13) for pair in ((1, later, None), (later, 1, None))]
        for b0, b1, order in blocks:
            sc = replace(SMALL, cics=cics, its=(ItSpec(cic_index=cic_of[0], submit_block=b0),
                                                ItSpec(cic_index=cic_of[1], submit_block=b1)))
            case = name, b0, b1, order
            result = _checked_run(lambda: OrderedDelivery(sc, enqueue_order=order))
            events = result.events
            # transaction i is creator i's
            index = {e["tid"]: int(e["creator"][len("creator"):])
                     for e in events if e["type"] == "queued"}
            first = order[0] if order else int(b1 < b0)
            deployed = [e for e in events if e["type"] == "deployed"]
            assert [index[e["tid"]] for e in deployed] == [first, 1 - first], case
            nonces = nonces or [e["nonce"] for e in deployed]
            assert [e["nonce"] for e in deployed] == nonces, case
            honest_root, closed = {}, 0      # by CID, the root honest node 0 last revealed
            for e in events:
                if e["type"] == "reveal" and e["node"] == 0:
                    honest_root[e["cid"]] = e["root"]
                elif e["type"] == "round_closed":
                    assert e["accepted"] and e["winning_root"] == honest_root[e["cid"]], case
                    closed += 1
            assert closed == 2, case
            assert sorted(e["rounds"] for e in events if e["type"] == "settled") == [1, 1], case
            forfeits = [(e["cid"], e["node"], e["reason"]) for e in events
                        if e["type"] == "forfeit"]
            assert forfeits == [(deployed[0]["cid"], 3, "wrong root")], case


# each strategy kind by its letter, and the cases of SMALL's every strategy assignment in
# which an honest node is forfeited
LETTERS = {"h": adversary.HONEST, "s": "silent", "b": "byz_single", "m": "byz_multi",
           "f": "freeloader", "c": "colluder"}
WRONG_ROOT_OVER_HONEST = {
    "hsbb", "hbsb", "hbbs", "hbbb", "hmsm", "shbb", "sbhb", "sbbh", "smhm", "bhsb",
    "bhbs", "bhbb", "bshb", "bsbh", "bbhs", "bbhb", "bbsh", "bbbh", "mhms", "msmh"}


def test_small_scope_every_strategy_assignment():
    """SMALL with each node of any kind of `adversary.KINDS`, each at its default
    parameter. No honest node is ever forfeited for an unrevealed commitment,
    and one is forfeited for a wrong root only where a wrong root won: the
    pinned cases, each one honest node outvoted by two or more Byzantine
    nodes of one kind, whose wrong root beta = 1e-2 lets a round decide."""
    assert sorted(LETTERS.values()) == sorted(adversary.KINDS)
    right = next(e["root"] for e in run_scenario(SMALL).events
                 if e["type"] == "reveal" and e["node"] == 0)
    hit = set()
    for case in map("".join, product(LETTERS, repeat=SMALL.m_total)):
        sc = replace(SMALL, strategies=tuple((LETTERS[k], 1, {}) for k in case))
        result = _checked_run(lambda: Simulation(sc))
        wrong_won = any(e["type"] == "settled" and e["winning_root"] != right
                        for e in result.events)
        reasons = {e["reason"] for e in result.events
                   if e["type"] == "forfeit" and case[e["node"]] == "h"}
        assert "unrevealed commitment" not in reasons, case
        assert wrong_won or "wrong root" not in reasons, case
        if reasons:
            hit.add(case)
    assert hit == WRONG_ROOT_OVER_HONEST
    for case in hit:
        assert case.count("h") == 1 and max(case.count("b"), case.count("m")) >= 2, case


def test_a_protocol_run_and_replay_import_no_numpy():
    """Numpy is imported only inside the harness functions that call it:
    importing the package, `experiments` included, running a scenario and
    replaying it load none of it."""
    code = ("import sys, cicsim; from cicsim import protocol; s = protocol.Scenario(); "
            "r = protocol.run_scenario(s); assert protocol.replay_check(s, r.lines).identical; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "assert cicsim.experiments is sys.modules['cicsim.experiments']")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
