"""Master-contract protocol over a discrete block clock.

One deployed intensive transaction cycles through per-round phases:

    Committing (w_src blocks) -> Buffering (w_buf) -> Revealing (w_sr)
    -> consensus step -> next round, or Deciding -> Settled.

The master contract enforces the on-chain rules: queue order per contract,
escrow at deployment, nonce assignment at inclusion (never earlier),
window discipline, commit/reveal binding se = sha256(digest || sort_res),
sortition validity, per-round consensus over revealed roots, and the
settlement split driven by seed-count fractions against th1/th2. Forfeited
deposits are burned; every movement of value is an event in an append-only
log, and a whole run replays bit-exactly from its scenario.

One way in, one way out: the simulation posts each message with the
contract method it calls and delivers a block's messages in a canonical
order, logging a ProtocolError as `rejected`; every transaction, settled or
stopped at the round cap, leaves through `MasterContract._finish`.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

from . import adversary, miracle, rice
from .hashing import WORD_MASK, be8, sha256, to_word
from .merkle_state import CicState, MerkleRoot, prove_inclusion, verify_inclusion
from .randomness import NodeKeys, SortResult, SortitionOracle, check_sort, keygen, random_gen
from .rice import Digest
from .toy_vm import ComputeModel, Transaction, compute_data, compute_eta, compute_length


class ProtocolError(Exception):
    pass


class InsufficientEscrow(ProtocolError):
    pass


class QueueOrderViolation(ProtocolError):
    pass


class OutsideWindow(ProtocolError):
    pass


class NotInSP(ProtocolError):
    pass


class DuplicateCommit(ProtocolError):
    pass


class CommitMismatch(ProtocolError):
    pass


class InvalidSortition(ProtocolError):
    pass


class NoCommitment(ProtocolError):
    pass


class ScenarioError(ValueError):
    """A scenario document or event log that cannot be parsed."""


COMMITTING = "committing"
BUFFERING = "buffering"
REVEALING = "revealing"
DECIDING = "deciding"
SETTLED = "settled"

# a run that is still going after this many blocks stops there
MAX_BLOCKS = 100_000

if c_make_encoder is None:
    raise ImportError("the canonical event encoder needs CPython's _json accelerator")
# json.dumps(e, sort_keys=True, separators=(",", ":")) made once, as dumps makes
# a C encoder per call; with no circular-reference table to leave stale entries in
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)


def canonical_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, separators=(",", ":"))` by the one
    encoder: every event line, scenario document and experiment spec."""
    return "".join(_ENCODE(doc, 0))


@dataclass(frozen=True)
class SettlementPolicy:
    """Reward/forfeiture rules: within the winning root, a seed group whose
    count fraction strictly exceeds th1 is rewarded, one strictly below th2
    forfeits, anything between is left alone."""

    th1: float = 0.60
    th2: float = 0.25
    reward: int = 10
    deposit: int = 100
    d_min: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.th2 < self.th1 <= 1.0:
            raise ValueError("thresholds must satisfy 0 < th2 < th1 <= 1")
        if self.th1 <= 0.5:
            raise ValueError("reward threshold must exceed one half")
        if min(self.reward, self.deposit, self.d_min) < 0:
            raise ValueError("amounts are non-negative")


@dataclass(frozen=True)
class WindowConfig:
    """Block-count windows; the commit window scales with the gas limit."""

    gas_per_block: int = 10_000
    w_src_slack: int = 2
    w_buf: int = 2
    w_sr: int = 4

    def __post_init__(self) -> None:
        if self.gas_per_block < 1 or self.w_sr < 1:
            raise ValueError("gas_per_block and w_sr must be at least 1")
        if min(self.w_src_slack, self.w_buf) < 0:
            raise ValueError("w_src_slack and w_buf are non-negative")

    def w_src(self, gas_limit: int) -> int:
        return math.ceil(gas_limit / self.gas_per_block) + self.w_src_slack


@dataclass
class NodeRecord:
    node_id: int
    keys: NodeKeys
    strategy: adversary.Strategy
    deposit: int
    balance: int
    active: bool = True


@dataclass
class RoundRecord:
    round_index: int
    nonce: bytes
    commit_open: int
    commit_close: int
    reveal_open: int
    reveal_close: int
    commitments: dict = field(default_factory=dict)   # node_id -> se bytes
    reveals: dict = field(default_factory=dict)       # node_id -> (Digest, SortResult)


@dataclass
class ItContext:
    tx: Transaction
    creator: str
    escrow: int
    round1_entropy: bytes
    phase: str = COMMITTING
    rounds: list = field(default_factory=list)
    table: miracle.LikelihoodTable = field(default_factory=miracle.LikelihoodTable)
    winning_root: Optional[bytes] = None
    decide_deadline: Optional[int] = None

    @property
    def round(self) -> RoundRecord:
        return self.rounds[-1]


class MasterContract:
    """On-chain rulebook and ledger. All state changes append events, each
    with its canonical JSON line."""

    def __init__(self, params: miracle.ConsensusParams, policy: SettlementPolicy,
                 windows: WindowConfig, oracle: SortitionOracle,
                 experiment_seed: bytes, *, max_rounds: int, treasury: int):
        self.params = params
        self.policy = policy
        self.windows = windows
        self.oracle = oracle
        self.experiment_seed = experiment_seed
        self.max_rounds = max_rounds
        self.nodes: dict = {}
        self.creators: dict = {}
        self.states: dict = {}          # cid -> CicState
        self.queues: dict = {}          # cid -> deque[Transaction]
        self.active: dict = {}          # cid -> ItContext
        self.treasury = treasury
        self.burned = 0
        self.events: list = []
        self.lines: list = []
        self._counter = 0

    # -- plumbing ------------------------------------------------------------

    def _beacon(self) -> bytes:
        value = random_gen(self.experiment_seed, self._counter)
        self._counter += 1
        return value

    def emit(self, block: int, kind: str, **payload) -> None:
        event = {"block": block, "type": kind}
        for key, value in payload.items():
            event[key] = value.hex() if isinstance(value, bytes) else value
        self.events.append(event)
        self.lines.append(canonical_json(event))

    def total_value(self) -> int:
        total = self.treasury + self.burned
        total += sum(n.balance + n.deposit for n in self.nodes.values())
        total += sum(self.creators.values())
        total += sum(it.escrow for it in self.active.values())
        return total

    def add_node(self, node: NodeRecord) -> None:
        self.oracle.register(node.keys)
        self.nodes[node.node_id] = node

    def register_cic(self, state: CicState) -> None:
        self.states[state.cid] = state
        self.queues[state.cid] = deque()

    # -- S1: deployment --------------------------------------------------------

    def enqueue(self, tx: Transaction, creator: str, block: int) -> None:
        self.queues[tx.cid].append((tx, creator))
        self.emit(block, "queued", cid=tx.cid, tid=tx.tid, creator=creator)
        if tx.cid not in self.active:
            self.deploy_it(tx, block)

    def deploy_it(self, tx: Transaction, block: int) -> None:
        queue = self.queues[tx.cid]
        if not queue or queue[0][0].tid != tx.tid:
            raise QueueOrderViolation("only the queue head deploys")
        if tx.cid in self.active:
            raise QueueOrderViolation("an intensive transaction is already active")
        _, creator = queue[0]
        cost = self.policy.d_min + tx.gas_price * tx.gas_limit
        if self.creators.get(creator, 0) < cost:
            raise InsufficientEscrow(f"escrow requires {cost}")
        self.creators[creator] = self.creators.get(creator, 0) - cost
        # the nonce is drawn at inclusion so sortition cannot be gamed by
        # enrolling keys after seeing it
        nonce = self._beacon()
        entropy = self._beacon()
        it = ItContext(tx=replace(tx, nonce=nonce), creator=creator, escrow=cost,
                       round1_entropy=entropy)
        self.active[tx.cid] = it
        self.emit(block, "deployed", cid=tx.cid, tid=tx.tid, nonce=nonce,
                  entropy=entropy, escrow=cost)
        self._open_round(it, block + 1)

    def _open_round(self, it: ItContext, open_block: int) -> None:
        index = len(it.rounds) + 1
        nonce = it.tx.nonce if index == 1 else sha256(it.tx.nonce, be8(index))
        w_src = self.windows.w_src(it.tx.gas_limit)
        commit_close = open_block + w_src - 1
        reveal_open = commit_close + self.windows.w_buf + 1
        record = RoundRecord(round_index=index, nonce=nonce,
                             commit_open=open_block, commit_close=commit_close,
                             reveal_open=reveal_open,
                             reveal_close=reveal_open + self.windows.w_sr - 1)
        it.rounds.append(record)
        it.phase = COMMITTING
        self.emit(open_block, "round_started", cid=it.tx.cid, round=index,
                  nonce=nonce, commit_open=record.commit_open,
                  commit_close=record.commit_close, reveal_open=record.reveal_open,
                  reveal_close=record.reveal_close)

    # -- S3: commitment and release -------------------------------------------

    def submit_commit(self, node_id: int, cid: bytes, se: bytes, block: int) -> None:
        it = self.active.get(cid)
        node = self.nodes.get(node_id)
        if node is None or not node.active:
            raise NotInSP(f"node {node_id} is not in the stake pool")
        if it is None or it.phase != COMMITTING:
            raise OutsideWindow("no commit window is open")
        rnd = it.round
        if not rnd.commit_open <= block <= rnd.commit_close:
            raise OutsideWindow(
                f"block {block} outside [{rnd.commit_open}, {rnd.commit_close}]")
        if node_id in rnd.commitments:
            raise DuplicateCommit(f"node {node_id} already committed")
        rnd.commitments[node_id] = se
        self.emit(block, "commit", cid=cid, round=rnd.round_index,
                  node=node_id, se=se)

    def submit_reveal(self, node_id: int, cid: bytes, digest: Digest,
                      sort: SortResult, block: int) -> None:
        it = self.active.get(cid)
        if it is None or it.phase != REVEALING:
            raise OutsideWindow("no reveal window is open")
        rnd = it.round
        if not rnd.reveal_open <= block <= rnd.reveal_close:
            raise OutsideWindow(
                f"block {block} outside [{rnd.reveal_open}, {rnd.reveal_close}]")
        se = rnd.commitments.get(node_id)
        if se is None:
            raise NoCommitment(f"node {node_id} never committed")
        if sha256(digest.encode(), sort.encode()) != se:
            raise CommitMismatch("reveal does not match the commitment")
        node = self.nodes[node_id]
        if not self.oracle.verify(node.keys.pk, rnd.nonce, self.params.q, sort):
            raise InvalidSortition(f"sortition proof rejected for node {node_id}")
        rnd.reveals[node_id] = (digest, sort)
        self.emit(block, "reveal", cid=cid, round=rnd.round_index, node=node_id,
                  root=digest.root.value, seed=digest.seed, sort=sort.encode())

    # -- S4: the phase clock and one consensus round -----------------------------

    def tick(self, block: int) -> None:
        """Advance every active transaction's phases to `block`: close the
        commit window, open the reveal window, close the round at the reveal
        deadline, or settle a decision whose witness deadline has passed."""
        for cid in list(self.active):
            it = self.active[cid]
            # sequential ifs so zero-width windows cascade in one block
            if it.phase == COMMITTING and block >= it.round.commit_close:
                it.phase = BUFFERING
                self.emit(block, "buffering", cid=cid, round=it.round.round_index)
            if it.phase == BUFFERING and block >= it.round.reveal_open - 1:
                it.phase = REVEALING
                self.emit(block, "revealing", cid=cid, round=it.round.round_index)
            if it.phase == REVEALING and block >= it.round.reveal_close:
                self.close_round(cid, block)
            elif it.phase == DECIDING and block >= it.decide_deadline:
                self.emit(block, "missing_state_witness", cid=cid)
                self.settle(cid, block)

    def close_round(self, cid: bytes, block: int) -> Optional[bytes]:
        """At the reveal deadline: forfeit silent committers, fold the round's
        reveals into the likelihood table, and step the consensus; returns
        the accepted root or None."""
        it = self.active[cid]
        rnd = it.round
        for node_id in sorted(rnd.commitments):
            if node_id not in rnd.reveals:
                self._forfeit(node_id, block, "unrevealed commitment", cid)
        counts: dict = {}
        for node_id, (digest, _) in rnd.reveals.items():
            counts[digest.root.value] = counts.get(digest.root.value, 0) + 1
        tally = miracle.RoundTally(round_index=rnd.round_index, counts=counts)
        it.table = miracle.update_likelihoods(it.table, tally)
        root = miracle.step(it.table, self.params)
        self.emit(block, "round_closed", cid=cid, round=rnd.round_index,
                  tally={k.hex(): v for k, v in sorted(counts.items())},
                  accepted=root is not None, winning_root=root)
        if root is not None:
            it.phase = DECIDING
            it.winning_root = root
            it.decide_deadline = block + self.windows.w_sr
        elif rnd.round_index >= self.max_rounds:
            self._finish(it, block, it.escrow, "no_convergence",
                         reason="no convergence within the round cap")
        else:
            self._open_round(it, block + 1)
        return root

    # -- S5: state update, rewards, cleanup --------------------------------------

    def submit_witness(self, node_id: int, cid: bytes, modified: dict,
                       proofs: list, block: int) -> bool:
        """Validate a state witness against the winning root; apply the first
        valid one. `modified` maps storage keys to post-execution values."""
        it = self.active.get(cid)
        if it is None or it.phase != DECIDING:
            raise OutsideWindow("no state update is pending")
        if node_id not in it.round.reveals:
            raise NotInSP("witnesses come from revealing set members")
        state = self.states[cid].put_many(modified)
        winning = MerkleRoot(it.winning_root)
        ok = (state.root().value == it.winning_root and len(proofs) == len(modified)
              and all(verify_inclusion(winning, state.cid, state.code, proof)
                      for proof in proofs))
        self.emit(block, "witness", cid=cid, node=node_id, valid=ok,
                  keys=len(modified))
        if not ok:
            return False
        self.states[cid] = state
        self.settle(cid, block)
        return True

    def settle(self, cid: bytes, block: int) -> None:
        """Charge the executed gas, apply the per-round reward/forfeiture
        split for every elapsed round, and refund the surplus. The fee is
        credited first and each reward pays at most what the treasury
        holds, so the treasury never goes negative."""
        it = self.active[cid]
        winning = it.winning_root
        policy = self.policy
        gas_fee = it.tx.gas_price * min(it.tx.gas_limit, self._executed_gas(it))
        refund = it.escrow - policy.d_min - gas_fee
        self.treasury += policy.d_min + gas_fee
        for rnd in it.rounds:
            groups: dict = {}
            for node_id, (digest, _) in sorted(rnd.reveals.items()):
                if digest.root.value != winning:
                    self._forfeit(node_id, block, "wrong root", cid,
                                  round_index=rnd.round_index)
                else:
                    groups.setdefault(digest.seed, []).append(node_id)
            total = sum(len(v) for v in groups.values())
            if not total:
                continue
            for seed_value in sorted(groups):
                members = groups[seed_value]
                fraction = len(members) / total
                if fraction > policy.th1:
                    for node_id in members:
                        amount = min(policy.reward, self.treasury)
                        self.treasury -= amount
                        self.nodes[node_id].balance += amount
                        self.emit(block, "reward", cid=cid, node=node_id,
                                  round=rnd.round_index, amount=amount)
                elif fraction < policy.th2:
                    for node_id in members:
                        self._forfeit(node_id, block, "minority seed", cid,
                                      round_index=rnd.round_index)
        self._finish(it, block, refund, "settled", rounds=len(it.rounds),
                     winning_root=winning, gas_fee=gas_fee, refund=refund)

    def _executed_gas(self, it: ItContext) -> int:
        # unit gas per instruction; every simulated contract is an instance
        # of the iterated-update benchmark, whose length is affine in the
        # iteration count carried by the first input word
        return compute_length(compute_eta(it.tx.data))

    def _finish(self, it: ItContext, block: int, returned: int, kind: str,
                **payload) -> None:
        """The one exit of an intensive transaction: return `returned` of
        the escrow to the creator, log the outcome event `kind`, pop the
        queue and deploy its next head in the following block."""
        cid = it.tx.cid
        self.creators[it.creator] += returned
        it.escrow = 0
        it.phase = SETTLED
        self.emit(block, kind, cid=cid, tid=it.tx.tid, **payload)
        queue = self.queues[cid]
        queue.popleft()
        del self.active[cid]
        if queue:
            self.deploy_it(queue[0][0], block + 1)

    def _forfeit(self, node_id: int, block: int, reason: str, cid: bytes,
                 round_index: Optional[int] = None) -> None:
        node = self.nodes[node_id]
        if node.deposit == 0:
            return
        amount = node.deposit
        node.deposit = 0
        node.active = False
        self.burned += amount
        self.emit(block, "forfeit", cid=cid, node=node_id, amount=amount,
                  reason=reason, round=round_index)


# --- scenario-driven simulation ------------------------------------------------


@dataclass(frozen=True)
class ItSpec:
    cic_index: int = 0
    eta: int = 8
    gas_price: int = 1
    gas_margin: int = 12
    submit_block: int = 1

    def __post_init__(self) -> None:
        if self.eta < 0 or self.gas_price < 0:
            raise ValueError("eta and gas_price are non-negative")
        if self.submit_block < 1:
            raise ValueError("submit_block must be at least 1")
        if compute_length(self.eta) + self.gas_margin < 1:
            raise ValueError("gas_margin leaves no positive gas limit")


@dataclass(frozen=True)
class CicSpec:
    key: int = 0
    init: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.key <= WORD_MASK and 0 <= self.init <= WORD_MASK):
            raise ValueError("key and init must be 256-bit words")


@dataclass(frozen=True)
class Scenario:
    """Complete, JSON-serializable description of one protocol run."""

    seed: str = "00" * 32
    m_total: int = 24
    q: float = 0.5
    f_max: float = 0.4
    beta: float = 1e-6
    max_rounds: int = 100
    strategies: tuple = (("honest", 24),)
    cics: tuple = (CicSpec(),)
    its: tuple = (ItSpec(),)
    policy: SettlementPolicy = SettlementPolicy()
    windows: WindowConfig = WindowConfig()
    commit_jitter: int = 1
    reveal_jitter: int = 1
    node_balance: int = 50
    creator_balance: int = 1_000_000
    treasury: int = 1_000_000

    def __post_init__(self) -> None:
        miracle.ConsensusParams(self.m_total, self.f_max, self.q, self.beta)
        if len(bytes.fromhex(self.seed)) != 32:
            raise ValueError("seed must be 32 bytes of hex")
        if not all(0 <= it.cic_index < len(self.cics) for it in self.its):
            raise ValueError("an its entry names a cic_index outside cics")
        if min(self.node_balance, self.creator_balance, self.treasury) < 0:
            raise ValueError("balances are non-negative")
        if min(self.max_rounds, self.commit_jitter, self.reveal_jitter) < 1:
            raise ValueError("max_rounds and the jitters must be at least 1")
        self.expand_strategies()    # raises on any entry a run cannot use

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a `to_json` document; anything malformed, including a
        strategy list that does not fill the pool, raises ScenarioError."""
        try:
            doc = json.loads(text)
            for key in ("strategies", "cics", "its"):
                if not isinstance(doc[key], list):
                    raise TypeError(f"{key} must be a list")
            doc["strategies"] = tuple(tuple(s) for s in doc["strategies"])
            doc["cics"] = tuple(CicSpec(**c) for c in doc["cics"])
            doc["its"] = tuple(ItSpec(**i) for i in doc["its"])
            doc["policy"] = SettlementPolicy(**doc["policy"])
            doc["windows"] = WindowConfig(**doc["windows"])
            scenario = cls(**doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario: {exc!r}") from exc
        return scenario

    def expand_strategies(self) -> list:
        """One Strategy per node from `[kind, count]` or `[kind, count,
        {param: value}]` entries; `adversary.Strategy` checks the kind and
        its parameter against `adversary.KINDS`."""
        out = []
        for kind, count, *rest in self.strategies:
            if type(count) is not int or count < 0 or len(rest) > 1:
                raise ValueError(f"not a [kind, count, params] entry: {[kind, count, *rest]}")
            out += [adversary.Strategy(kind, **(rest[0] if rest else {}))] * count
        if len(out) != self.m_total:
            raise ValueError(
                f"strategy counts sum to {len(out)}, pool size is {self.m_total}")
        return out


@dataclass
class RunResult:
    scenario: Scenario
    events: list
    lines: list
    conserved: bool
    settled: int
    total_blocks: int
    mc: MasterContract


def event_lines(events: list) -> list:
    return [canonical_json(e) for e in events]


class Simulation:
    """Deterministic event loop: nodes plan their messages when a round
    opens; inclusion happens at block boundaries in a canonical order."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.seed = bytes.fromhex(scenario.seed)
        params = miracle.ConsensusParams(scenario.m_total, scenario.f_max,
                                         scenario.q, scenario.beta)
        self.mc = MasterContract(params, scenario.policy, scenario.windows,
                                 SortitionOracle(), sha256(b"beacon", self.seed),
                                 max_rounds=scenario.max_rounds,
                                 treasury=scenario.treasury)
        strategies = scenario.expand_strategies()
        for node_id, strategy in enumerate(strategies):
            self.mc.add_node(NodeRecord(
                node_id=node_id, keys=keygen(self.seed, node_id),
                strategy=strategy, deposit=scenario.policy.deposit,
                balance=scenario.node_balance))
        self.models: dict = {}
        for index, cic in enumerate(scenario.cics):
            model = ComputeModel(key=cic.key)
            cid = sha256(b"cid", self.seed, be8(index))
            state = CicState(cid, model.code_id)
            if cic.init:
                state = state.put(cic.key, cic.init)
            self.mc.register_cic(state)
            self.models[cid] = model
        self.cids = list(self.models)
        for i, _ in enumerate(scenario.its):
            self.mc.creators[f"creator{i}"] = scenario.creator_balance
        self.inbox: dict = {}
        self._msg_seq = 0
        self._honest_digests: dict = {}

    # -- node-side planning ----------------------------------------------------

    def _prf_value(self, *parts: bytes) -> int:
        return int.from_bytes(sha256(b"sim", self.seed, *parts), "big")

    def _post(self, block: int, kind: str, node_id: int, call, *args) -> None:
        """Queue `call(*args, block)` for inclusion at `block`, where messages
        go in by kind, then node, then post order."""
        order = ("enqueue", "commit", "reveal", "witness").index(kind)
        self.inbox.setdefault(block, []).append(
            (order, node_id, self._msg_seq, kind, call, args))
        self._msg_seq += 1

    def _honest_digest(self, cid: bytes, round_index: int):
        """Digest and post-state of a faithful execution, cached per round."""
        it = self.mc.active[cid]
        key = (cid, it.tx.tid, round_index)
        if key not in self._honest_digests:
            model = self.models[cid]
            pre = self.mc.states[cid]
            # through the module, so a wrapper patched onto it sees the call
            digest, _ = rice.rice_execute_traced(model, pre, it.tx.data, round_index,
                                                 it.round1_entropy, gas_limit=it.tx.gas_limit)
            final = model.final_state(pre, compute_eta(it.tx.data))
            self._honest_digests[key] = (digest, final)
        return self._honest_digests[key]

    def _plan_digest(self, node: NodeRecord, tid: bytes, honest: Digest,
                     round_index: int) -> Digest:
        """The digest this node submits, by its kind's rule in `adversary.KINDS`."""
        seed, root = adversary.KINDS[node.strategy.kind].rule(
            node.strategy, node.node_id, tid, round_index, self._prf_value)
        if seed is None and root is None:
            return honest
        return Digest(seed=sha256(*seed) if seed else honest.seed,
                      root=MerkleRoot(sha256(*root)) if root else honest.root)

    def _jitter(self, label: bytes, tag: bytes, lo: int, hi: int, jitter: int) -> int:
        """A block in [lo, hi], drawn from its first `jitter` blocks."""
        return lo + self._prf_value(label, tag) % min(jitter, hi - lo + 1)

    def _plan_round(self, cid: bytes) -> None:
        it = self.mc.active[cid]
        rnd = it.round
        for node_id in sorted(self.mc.nodes):
            node = self.mc.nodes[node_id]
            if not node.active:
                continue
            sort = check_sort(node.keys, rnd.nonce, self.scenario.q)
            if not sort.selected:
                continue
            honest, _ = self._honest_digest(cid, rnd.round_index)
            digest = self._plan_digest(node, it.tx.tid, honest, rnd.round_index)
            se = sha256(digest.encode(), sort.encode())
            tag = be8(node_id) + cid + be8(rnd.round_index)
            commit_at = self._jitter(b"cjit", tag, rnd.commit_open, rnd.commit_close,
                                     self.scenario.commit_jitter)
            self._post(commit_at, "commit", node_id, self.mc.submit_commit,
                       node_id, cid, se)
            if adversary.KINDS[node.strategy.kind].reveals:
                reveal_at = self._jitter(b"rjit", tag, rnd.reveal_open, rnd.reveal_close,
                                         self.scenario.reveal_jitter)
                self._post(reveal_at, "reveal", node_id, self.mc.submit_reveal,
                           node_id, cid, digest, sort)

    def _plan_witnesses(self, cid: bytes, block: int) -> None:
        it = self.mc.active[cid]
        _, final = self._honest_digest(cid, it.round.round_index)
        pre = self.mc.states[cid]
        modified = {k: final.get(k) for k in final.storage
                    if pre.get(k) != final.get(k)}
        for node_id in sorted(it.round.reveals):
            digest, _ = it.round.reveals[node_id]
            if digest.root.value != it.winning_root:
                continue
            if digest.root.value == final.root().value:
                witness = modified, [prove_inclusion(final, k) for k in sorted(modified)]
            else:
                # a fabricated root has no preimage; the attempt must fail
                witness = {to_word(7): sha256(b"junk", digest.root.value)}, []
            self._post(block + 1, "witness", node_id, self.mc.submit_witness,
                       node_id, cid, *witness)

    # -- block loop -------------------------------------------------------------

    def _deliver(self, block: int) -> None:
        for _, node_id, _, kind, call, args in sorted(self.inbox.pop(block, [])):
            try:
                call(*args, block)
            except ProtocolError as exc:
                self.mc.emit(block, "rejected", message=kind, node=node_id,
                             reason=type(exc).__name__, detail=str(exc))

    def run(self) -> RunResult:
        scenario = self.scenario
        for index, spec in enumerate(scenario.its):
            cid = self.cids[spec.cic_index]
            gas_limit = compute_length(spec.eta) + spec.gas_margin
            tx = Transaction(tid=sha256(b"tid", self.seed, be8(index)), cid=cid,
                             data=compute_data(spec.eta), gas_limit=gas_limit,
                             gas_price=spec.gas_price)
            self._post(spec.submit_block, "enqueue", -1, self.mc.enqueue,
                       tx, f"creator{index}")
        baseline = self.mc.total_value()
        conserved = True
        block = 0
        while block < MAX_BLOCKS:
            block += 1
            seen = len(self.mc.events)
            self._deliver(block)
            self.mc.tick(block)
            for event in self.mc.events[seen:]:
                if event["type"] == "round_started":
                    self._plan_round(bytes.fromhex(event["cid"]))
                elif event["type"] == "round_closed" and event["accepted"]:
                    self._plan_witnesses(bytes.fromhex(event["cid"]), block)
            if self.mc.total_value() != baseline:
                conserved = False
                self.mc.emit(block, "conservation_violated",
                             expected=baseline, actual=self.mc.total_value())
                break
            if not self.mc.active and not self.inbox:
                break
        return RunResult(scenario=scenario, events=self.mc.events, lines=self.mc.lines,
                         conserved=conserved, total_blocks=block, mc=self.mc,
                         settled=sum(e["type"] == "settled" for e in self.mc.events))


def run_scenario(scenario: Scenario) -> RunResult:
    return Simulation(scenario).run()


@dataclass(frozen=True)
class ReplayReport:
    identical: bool
    first_divergence: Optional[int]
    recorded_events: int
    replayed_events: int
    # at a divergence: each side's line (None past its end), the event's type
    recorded_line: Optional[str] = None
    replayed_line: Optional[str] = None
    event_type: Optional[str] = None


def replay_check(scenario: Scenario, recorded_lines: list) -> ReplayReport:
    """Re-run a scenario from its seeds and diff the event stream; a
    divergent event's type is the replay's unless the replay has ended."""
    fresh = run_scenario(scenario)
    recorded, replayed = list(recorded_lines), fresh.lines
    counts = (len(recorded), len(replayed))
    if recorded == replayed:
        return ReplayReport(True, None, *counts)
    first, (mine, theirs) = next((i, pair) for i, pair in enumerate(
        zip_longest(recorded, replayed)) if pair[0] != pair[1])
    try:
        kind = fresh.events[first]["type"] if theirs is not None else json.loads(mine)["type"]
    except (ValueError, TypeError, KeyError):
        kind = None
    return ReplayReport(False, first, *counts, mine, theirs, kind)
