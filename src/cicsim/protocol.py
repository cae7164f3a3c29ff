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
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from json.encoder import ESCAPE_ASCII, c_make_encoder, encode_basestring_ascii
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

# a run that is still going after this many blocks stops there, logging `block_cap`
MAX_BLOCKS = 100_000

if c_make_encoder is None:
    raise ImportError("the canonical event encoder needs CPython's _json accelerator")
# json.dumps(e, sort_keys=True, separators=(",", ":")) made once, as dumps makes
# a C encoder per call; with no circular-reference table to leave stale entries in
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)


def canonical_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, separators=(",", ":"))` by the one
    encoder: every scenario document and experiment spec, and the general path
    and oracle for event lines. Only a `PER_NODE_FIELDS` event whose payload
    fits its declaration is rendered instead, from a format derived from this."""
    return "".join(_ENCODE(doc, 0))


# the per-node kinds' payload fields in call-site order, each an int (never a bool),
# bytes written as hex, or text that needs no escaping
PER_NODE_FIELDS = {
    "commit": dict(cid=bytes, round=int, node=int, se=bytes),
    "reveal": dict(cid=bytes, round=int, node=int, root=bytes, seed=bytes, sort=bytes),
    "reward": dict(cid=bytes, node=int, round=int, amount=int),
    "forfeit": dict(cid=bytes, node=int, amount=int, reason=str, round=int),
}


def _declare(kind: str, declared: dict) -> tuple:
    """Field names, types, bytes and text fields, and the canonical line as a %-format
    over the event dict: `canonical_json` of placeholders, unquoted for ints."""
    of = {wanted: [key for key, json_kind in declared.items() if json_kind is wanted]
          for wanted in (int, bytes, str)}
    line = canonical_json({key: f"%({key})s" for key in ("block", *declared)} | {"type": kind})
    for key in ("block", *of[int]):
        line = line.replace(f'"%({key})s"', f"%({key})s")
    return tuple(declared), tuple(declared.values()), of[bytes], of[str], line


_FORMATS = {kind: _declare(kind, declared) for kind, declared in PER_NODE_FIELDS.items()}
_UNDECLARED = (None, (), (), (), "")    # no payload's field names are None


def _require_ints(spec, low, *names: str, high=math.inf) -> None:
    """Amounts, counts, block offsets and words: each named field holds an
    int, never a bool, from `low` to `high`."""
    for name in names:
        value = getattr(spec, name)
        if type(value) is not int or not low <= value <= high:
            raise ValueError(f"{name} must be an int from {low} to {high}, not {value!r}")


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
        _require_ints(self, 0, "reward", "deposit", "d_min")


@dataclass(frozen=True)
class WindowConfig:
    """Block-count windows; the commit window scales with the gas limit."""

    gas_per_block: int = 10_000
    w_src_slack: int = 2
    w_buf: int = 2
    w_sr: int = 4

    def __post_init__(self) -> None:
        _require_ints(self, 1, "gas_per_block", "w_sr")
        _require_ints(self, 0, "w_src_slack", "w_buf")

    def w_src(self, gas_limit: int) -> int:
        return math.ceil(gas_limit / self.gas_per_block) + self.w_src_slack


@dataclass(slots=True)
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
                 windows: WindowConfig, experiment_seed: bytes, *,
                 max_rounds: int, treasury: int):
        self.params = params
        self.policy = policy
        self.windows = windows
        self.oracle = SortitionOracle()
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
        """Append the event, bytes values as hex, and its canonical line. A
        `PER_NODE_FIELDS` kind (commit, reveal, reward, forfeit) is rendered from
        its declared format if the payload has exactly its fields, in order, each
        of its type; any other event by `canonical_json`, the general path."""
        event = {"block": block, "type": kind, **payload}
        names, types, hexed, texts, line = _FORMATS.get(kind, _UNDECLARED)
        fits = (tuple(payload) == names and type(block) is int
                and tuple(map(type, payload.values())) == types
                and not (texts and any(map(ESCAPE_ASCII.search, map(payload.get, texts)))))
        if not fits:
            hexed = [key for key, value in payload.items() if isinstance(value, bytes)]
        for key in hexed:
            event[key] = payload[key].hex()
        self.events.append(event)
        self.lines.append(line % event if fits else "".join(_ENCODE(event, 0)))

    def total_value(self) -> int:
        total = self.treasury + self.burned
        total += sum([n.balance + n.deposit for n in self.nodes.values()])
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
            queue.popleft()     # an unfunded transaction never blocks its contract
            raise InsufficientEscrow(f"escrow requires {cost}")
        self.creators[creator] = self.creators.get(creator, 0) - cost
        # the nonce is drawn at inclusion so sortition cannot be gamed by
        # enrolling keys after seeing it
        nonce, entropy = self._beacon(), self._beacon()
        it = ItContext(tx=replace(tx, nonce=nonce), creator=creator, escrow=cost,
                       round1_entropy=entropy)
        self.active[tx.cid] = it
        self.emit(block, "deployed", cid=tx.cid, tid=tx.tid, nonce=nonce,
                  entropy=entropy, escrow=cost)
        self._open_round(it, block + 1)

    def _open_round(self, it: ItContext, open_block: int) -> None:
        index = len(it.rounds) + 1
        nonce = it.tx.nonce if index == 1 else sha256(it.tx.nonce, be8(index))
        commit_close = open_block + self.windows.w_src(it.tx.gas_limit) - 1
        reveal_open = commit_close + self.windows.w_buf + 1
        edges = dict(commit_open=open_block, commit_close=commit_close,
                     reveal_open=reveal_open, reveal_close=reveal_open + self.windows.w_sr - 1)
        it.rounds.append(RoundRecord(round_index=index, nonce=nonce, **edges))
        it.phase = COMMITTING
        self.emit(open_block, "round_started", cid=it.tx.cid, round=index, nonce=nonce, **edges)

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
        encoded = sort.encode()
        if sha256(digest.encode(), encoded) != se:
            raise CommitMismatch("reveal does not match the commitment")
        node = self.nodes[node_id]
        if not self.oracle.verify(node.keys.pk, rnd.nonce, self.params.q, sort):
            raise InvalidSortition(f"sortition proof rejected for node {node_id}")
        rnd.reveals[node_id] = (digest, sort)
        self.emit(block, "reveal", cid=cid, round=rnd.round_index, node=node_id,
                  root=digest.root.value, seed=digest.seed, sort=encoded)

    # -- S4: the phase clock and one consensus round -----------------------------

    def tick(self, block: int) -> None:
        """Advance every active transaction's phases to `block`: close the
        commit window, open the reveal window, close the round at the reveal
        deadline, or settle a decision whose witness deadline has passed."""
        for cid, it in list(self.active.items()):
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
        counts = Counter(digest.root.value for digest, _ in rnd.reveals.values())
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
        # unit gas per instruction; every simulated contract is an instance
        # of the iterated-update benchmark, whose length is affine in the
        # iteration count carried by the first input word
        executed = compute_length(compute_eta(it.tx.data))
        gas_fee = it.tx.gas_price * min(it.tx.gas_limit, executed)
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
            total = sum(map(len, groups.values()))
            for _, members in sorted(groups.items()):
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

    def _finish(self, it: ItContext, block: int, returned: int, kind: str,
                **payload) -> None:
        """The one exit of an intensive transaction: return `returned` of
        the escrow to the creator, log the outcome event `kind`, pop the
        queue and deploy its next head in the following block; a head that
        cannot be funded is logged as a refused enqueue and leaves too."""
        cid = it.tx.cid
        self.creators[it.creator] += returned
        it.escrow = 0
        it.phase = SETTLED
        self.emit(block, kind, cid=cid, tid=it.tx.tid, **payload)
        queue = self.queues[cid]
        queue.popleft()
        del self.active[cid]
        while queue:
            try:
                self.deploy_it(queue[0][0], block + 1)
                break
            except InsufficientEscrow as exc:
                self.emit(block + 1, "rejected", message="enqueue", node=-1,
                          reason=type(exc).__name__, detail=str(exc))

    def _forfeit(self, node_id: int, block: int, reason: str, cid: bytes,
                 round_index: Optional[int] = None) -> None:
        node = self.nodes[node_id]
        amount, node.deposit = node.deposit, 0
        if amount:
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
        _require_ints(self, 0, "cic_index", "eta", "gas_price", "gas_margin")  # gas covers the run
        _require_ints(self, 1, "submit_block")


@dataclass(frozen=True)
class CicSpec:
    key: int = 0
    init: int = 0

    def __post_init__(self) -> None:
        _require_ints(self, 0, "key", "init", high=WORD_MASK)


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
        _require_ints(self, 0, "node_balance", "creator_balance", "treasury")
        _require_ints(self, 1, "m_total", "max_rounds", "commit_jitter", "reveal_jitter")
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
            return cls(**doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario: {exc!r}") from exc

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
    opens; inclusion happens at block boundaries in a canonical order. Three
    passes visit all M nodes: the node table once per run, the sortition
    sweep once per round, and the conservation check once per block, which
    recomputes every ledger term on purpose so a leak shows in its block."""

    _POST_ORDER = {"enqueue": 0, "commit": 1, "reveal": 2, "witness": 3}

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.seed = bytes.fromhex(scenario.seed)
        params = miracle.ConsensusParams(scenario.m_total, scenario.f_max,
                                         scenario.q, scenario.beta)
        self.mc = MasterContract(params, scenario.policy, scenario.windows,
                                 sha256(b"beacon", self.seed), max_rounds=scenario.max_rounds,
                                 treasury=scenario.treasury)
        seed, add_node = self.seed, self.mc.add_node
        deposit, balance = scenario.policy.deposit, scenario.node_balance
        for node_id, strategy in enumerate(scenario.expand_strategies()):
            add_node(NodeRecord(node_id, keygen(seed, node_id), strategy, deposit, balance))
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

    # -- node-side planning ----------------------------------------------------

    def _prf_value(self, *parts: bytes) -> int:
        return int.from_bytes(sha256(b"sim", self.seed, *parts), "big")

    def _post(self, block: int, kind: str, node_id: int, call, *args) -> None:
        """Queue `call(*args, block)` for inclusion at `block`, where messages
        go in by kind, then node, then post order."""
        self.inbox.setdefault(block, []).append(
            (self._POST_ORDER[kind], node_id, self._msg_seq, kind, call, args))
        self._msg_seq += 1

    def _plan_digest(self, node: NodeRecord, tid: bytes, honest: Digest,
                     round_index: int, planned: dict) -> Digest:
        """The digest this node submits, by its kind's rule in `adversary.KINDS`;
        `planned` keeps the round's digests by preimages, which nodes share."""
        preimages = adversary.KINDS[node.strategy.kind].rule(
            node.strategy, node.node_id, tid, round_index, self._prf_value)
        if preimages not in planned:
            seed, root = preimages
            planned[preimages] = honest if seed is None and root is None else Digest(
                seed=sha256(*seed) if seed else honest.seed,
                root=MerkleRoot(sha256(*root)) if root else honest.root)
        return planned[preimages]

    def _jitter(self, label: bytes, tag: bytes, lo: int, hi: int, jitter: int) -> int:
        """A block in [lo, hi], drawn from its first `jitter` blocks."""
        span = min(jitter, hi - lo + 1)
        return lo if span == 1 else lo + self._prf_value(label, tag) % span

    def _plan_round(self, cid: bytes) -> None:
        it = self.mc.active[cid]
        rnd = it.round
        nodes, nonce, q, index = self.mc.nodes, rnd.nonce, self.scenario.q, rnd.round_index
        honest, planned = None, {}
        # the post order of different nodes decides nothing: delivery sorts by node
        for node_id, node in nodes.items():
            if not node.active:
                continue
            sort = check_sort(node.keys, nonce, q)
            if not sort.selected:
                continue
            if honest is None:
                # through the module, so a wrapper patched onto it sees the call
                honest, _ = rice.rice_execute_traced(self.models[cid], self.mc.states[cid],
                                                     it.tx.data, index, it.round1_entropy,
                                                     gas_limit=it.tx.gas_limit)
            digest = self._plan_digest(node, it.tx.tid, honest, index, planned)
            se = sha256(digest.encode(), sort.encode())
            tag = be8(node_id) + cid + be8(index)
            commit_at = self._jitter(b"cjit", tag, rnd.commit_open, rnd.commit_close,
                                     self.scenario.commit_jitter)
            self._post(commit_at, "commit", node_id, self.mc.submit_commit, node_id, cid, se)
            if adversary.KINDS[node.strategy.kind].reveals:
                reveal_at = self._jitter(b"rjit", tag, rnd.reveal_open, rnd.reveal_close,
                                         self.scenario.reveal_jitter)
                self._post(reveal_at, "reveal", node_id, self.mc.submit_reveal,
                           node_id, cid, digest, sort)

    def _plan_witnesses(self, cid: bytes, block: int) -> None:
        it = self.mc.active[cid]
        pre = self.mc.states[cid]
        final = self.models[cid].final_state(pre, compute_eta(it.tx.data))
        if it.winning_root == final.root().value:
            modified = {k: final.get(k) for k in final.storage
                        if pre.get(k) != final.get(k)}
            witness = modified, [prove_inclusion(final, k) for k in sorted(modified)]
        else:
            # a fabricated root has no preimage; every attempt must fail
            witness = {to_word(7): sha256(b"junk", it.winning_root)}, []
        for node_id, (digest, _) in sorted(it.round.reveals.items()):
            if digest.root.value == it.winning_root:
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
            actual = self.mc.total_value()
            if actual != baseline:
                self.mc.emit(block, "conservation_violated", expected=baseline, actual=actual)
                break
            if not self.mc.active and not self.inbox:
                break
        else:
            self.mc.emit(block, "block_cap", max_blocks=MAX_BLOCKS, active=len(self.mc.active),
                         pending=sum(map(len, self.inbox.values())))
        return RunResult(scenario=scenario, events=self.mc.events, lines=self.mc.lines,
                         conserved=actual == baseline, total_blocks=block, mc=self.mc,
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
