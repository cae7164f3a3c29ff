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
from itertools import chain, zip_longest
from json.encoder import encode_basestring_ascii
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


def canonical_json(doc) -> str:
    """Sorted keys, no spaces: every scenario document, log header and experiment
    spec, and the line layout each event renderer's f-string is generated from."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# every event kind and its payload fields in call-site order, each of a type in _FIELD_TYPES;
# the per-node call sites (commit, reveal, reward, forfeit, rejected) pass them positionally
DECLARED_EVENTS = {
    "queued": dict(cid=bytes, tid=bytes, creator=str),
    "deployed": dict(cid=bytes, tid=bytes, nonce=bytes, entropy=bytes, escrow=int),
    "round_started": dict(cid=bytes, round=int, nonce=bytes, commit_open=int,
                          commit_close=int, reveal_open=int, reveal_close=int),
    "commit": dict(cid=bytes, round=int, node=int, se=bytes),
    "reveal": dict(cid=bytes, round=int, node=int, root=bytes, seed=bytes, sort=bytes),
    "buffering": dict(cid=bytes, round=int),
    "revealing": dict(cid=bytes, round=int),
    "missing_state_witness": dict(cid=bytes),
    "round_closed": dict(cid=bytes, round=int, tally=dict[str, int], accepted=bool,
                         winning_root=Optional[bytes]),
    "witness": dict(cid=bytes, node=int, valid=bool, keys=int),
    "reward": dict(cid=bytes, node=int, round=int, amount=int),
    "settled": dict(cid=bytes, tid=bytes, rounds=int, winning_root=bytes, gas_fee=int,
                    refund=int),
    "no_convergence": dict(cid=bytes, tid=bytes, reason=str),
    "rejected": dict(message=str, node=int, reason=str, detail=str),
    "forfeit": dict(cid=bytes, node=int, amount=int, reason=str, round=Optional[int]),
    "conservation_violated": dict(expected=int, actual=int),
    "block_cap": dict(max_blocks=int, active=int, pending=int),
}

# each field type as source over its argument `$`: fit test, event value if not `$`, and
# its JSON text as an f-string field, each string through `_text` and a tally's keys sorted
_FIELD_TYPES = {
    int: ("type($) is int", None, "{$}"),     # never a bool
    bool: ("type($) is bool", None, '{"true" if $ else "false"}'),
    str: ("type($) is str", None, "{_text($)}"),
    bytes: ("type($) is bytes", "$.hex()", '"{$}"'),
    Optional[int]: ("$ is None or type($) is int", None, '{"null" if $ is None else $}'),
    Optional[bytes]: ("$ is None or type($) is bytes", "$ if $ is None else $.hex()",
                      '{"null" if $ is None else _text($)}'),
    dict[str, int]: ("type($) is dict and all(type(k) is str and type(n) is int"
                     " for k, n in $.items())", None,
                     '{"{%s}" % ",".join(_text(k) + ":" + str(n) for k, n in sorted($.items()))}'),
}


def _declare(kind: str, declared: dict):
    """`render(block, *fields, **payload) -> (event, line)`, compiled: its signature checks
    the fields' count and names and its fit test their types (TypeError); the event's keys go
    block, type, fields, and its line is an f-string of `canonical_json`'s layout with each
    field's text in place."""
    types = dict(block=int, **declared)
    fields = {key: [s and s.replace("$", key) for s in _FIELD_TYPES[t]] for key, t in types.items()}
    line = canonical_json({key: f"@{i}@" for i, key in enumerate(types)} | {"type": kind})
    line = line.replace("{", "{{").replace("}", "}}")
    for i, (_, _, text) in enumerate(fields.values()):
        line = line.replace(f'"@{i}@"', text)
    source = "\n    ".join([
        f"def render({', '.join(['block', *declared])}):",
        "if not (" + " and ".join(f"({fit})" for fit, _, _ in fields.values()) + "):",
        f"    raise TypeError({f'{kind} fields do not fit DECLARED_EVENTS[{kind!r}]'!r})",
        *(f"{key} = {value}" for key, (_, value, _) in fields.items() if value),
        f"return {{'block': block, 'type': {kind!r}, "
        + "".join(f"{key!r}: {key}, " for key in declared) + f"}}, f{line!r}"])
    exec(compile(source, f"<render {kind}>", "exec"),
         namespace := dict(_text=encode_basestring_ascii))
    return namespace["render"]


_RENDERERS = {kind: _declare(kind, declared) for kind, declared in DECLARED_EVENTS.items()}


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
    """Block-count windows; the commit window scales with the gas limit. A message
    d blocks late still lands in a w-block window of jitter j when d <= w - min(j, w)."""

    gas_per_block: int = 10_000
    w_src_slack: int = 2
    w_buf: int = 2
    w_sr: int = 4

    def __post_init__(self) -> None:
        _require_ints(self, 1, "gas_per_block", "w_sr")
        _require_ints(self, 0, "w_src_slack", "w_buf")

    def w_src(self, gas_limit: int) -> int:
        return -(-gas_limit // self.gas_per_block) + self.w_src_slack


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
        # by node id: every enrolled node's NodeKeys, the stake pool's, and each ledger entry
        self.keys, self.pool, self.balances, self.deposits = {}, {}, {}, {}
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

    def emit(self, block: int, kind: str, *fields, **payload) -> None:
        """Append the event and its canonical line from the kind's renderer, which takes fields
        by position, in `DECLARED_EVENTS` order, or by name, and raises TypeError on a misfit."""
        event, line = _RENDERERS[kind](block, *fields, **payload)
        self.events.append(event)
        self.lines.append(line)

    def total_value(self) -> int:
        return (self.treasury + self.burned + sum(self.balances.values())
                + sum(self.deposits.values()) + sum(self.creators.values())
                + sum(it.escrow for it in self.active.values()))

    def add_node(self, keys: NodeKeys, deposit: int, balance: int) -> None:
        """Enrol a node, once: a second enrolment would restore a forfeited deposit."""
        node_id = keys.node_id
        if node_id in self.keys:
            raise ValueError(f"node {node_id} is already enrolled")
        self.keys[node_id] = self.pool[node_id] = keys
        self.deposits[node_id], self.balances[node_id] = deposit, balance

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
        if node_id not in self.pool:
            raise NotInSP(f"node {node_id} is not in the stake pool")
        if it is None or it.phase != COMMITTING:
            raise OutsideWindow("no commit window is open")
        rnd = it.rounds[-1]
        if not rnd.commit_open <= block <= rnd.commit_close:
            raise OutsideWindow(
                f"block {block} outside [{rnd.commit_open}, {rnd.commit_close}]")
        if node_id in rnd.commitments:
            raise DuplicateCommit(f"node {node_id} already committed")
        rnd.commitments[node_id] = se
        self.emit(block, "commit", cid, rnd.round_index, node_id, se)

    def submit_reveal(self, node_id: int, cid: bytes, digest: Digest,
                      sort: SortResult, block: int) -> None:
        it = self.active.get(cid)
        if it is None or it.phase != REVEALING:
            raise OutsideWindow("no reveal window is open")
        rnd = it.rounds[-1]
        if not rnd.reveal_open <= block <= rnd.reveal_close:
            raise OutsideWindow(
                f"block {block} outside [{rnd.reveal_open}, {rnd.reveal_close}]")
        se = rnd.commitments.get(node_id)
        if se is None:
            raise NoCommitment(f"node {node_id} never committed")
        encoded = sort.encode()
        if sha256(digest.seed, digest.root.value, encoded) != se:
            raise CommitMismatch("reveal does not match the commitment")
        # a node forfeited in another transaction still reveals here
        if not self.oracle.verify(self.keys[node_id], rnd.nonce, self.params.q, sort):
            raise InvalidSortition(f"sortition proof rejected for node {node_id}")
        rnd.reveals[node_id] = (digest, sort)
        self.emit(block, "reveal", cid, rnd.round_index, node_id, digest.root.value,
                  digest.seed, encoded)

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
        reward, th1, th2, balances = policy.reward, policy.th1, policy.th2, self.balances
        for rnd in it.rounds:
            index, groups = rnd.round_index, {}
            for node_id, (digest, _) in sorted(rnd.reveals.items()):
                if digest.root.value != winning:
                    self._forfeit(node_id, block, "wrong root", cid, round_index=index)
                else:
                    groups.setdefault(digest.seed, []).append(node_id)
            total = sum(map(len, groups.values()))
            for _, members in sorted(groups.items()):
                fraction = len(members) / total
                if fraction > th1:
                    for node_id in members:
                        amount = min(reward, self.treasury)
                        self.treasury -= amount
                        balances[node_id] += amount
                        self.emit(block, "reward", cid, node_id, index, amount)
                elif fraction < th2:
                    for node_id in members:
                        self._forfeit(node_id, block, "minority seed", cid, round_index=index)
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
                self.emit(block + 1, "rejected", "enqueue", -1, type(exc).__name__, str(exc))

    def _forfeit(self, node_id: int, block: int, reason: str, cid: bytes,
                 round_index: Optional[int] = None) -> None:
        amount, self.deposits[node_id] = self.deposits[node_id], 0
        if amount:
            self.pool.pop(node_id, None)
            self.burned += amount
            self.emit(block, "forfeit", cid, node_id, amount, reason, round_index)


# --- scenario-driven simulation ------------------------------------------------


@dataclass(frozen=True)
class ItSpec:
    cic_index: int = 0
    eta: int = 8
    gas_price: int = 1
    gas_margin: int = 12
    submit_block: int = 1

    def __post_init__(self) -> None:
        _require_ints(self, 0, "cic_index", "gas_price", "gas_margin")  # gas covers the run
        _require_ints(self, 0, "eta", high=WORD_MASK)
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
        if any(isinstance(x, bool) for x in (self.q, self.f_max, self.beta,
                                              self.policy.th1, self.policy.th2)):
            raise ValueError("q, f_max, beta, th1 and th2 are numbers, not bools")
        miracle.ConsensusParams(self.m_total, self.f_max, self.q, self.beta)
        seed = bytes.fromhex(self.seed)
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes of hex")
        object.__setattr__(self, "seed", seed.hex())  # one spelling: lowercase, no spaces
        if not all(0 <= it.cic_index < len(self.cics) for it in self.its):
            raise ValueError("an its entry names a cic_index outside cics")
        _require_ints(self, 0, "node_balance", "creator_balance", "treasury")
        _require_ints(self, 1, "m_total", "max_rounds", "commit_jitter", "reveal_jitter")
        self._strategy_counts()     # raises on any entry a run cannot use

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

    def _strategy_counts(self) -> list:
        """(Strategy, count) per `[kind, count]` or `[kind, count, {param:
        value}]` entry, checked without building the pool; `adversary.Strategy`
        checks the kind and its parameter against `adversary.KINDS`."""
        out = []
        for kind, count, *rest in self.strategies:
            if type(count) is not int or count < 0 or len(rest) > 1:
                raise ValueError(f"not a [kind, count, params] entry: {[kind, count, *rest]}")
            out.append((adversary.Strategy(kind, **(rest[0] if rest else {})), count))
        if (total := sum(count for _, count in out)) != self.m_total:
            raise ValueError(f"strategy counts sum to {total}, pool size is {self.m_total}")
        return out

    def expand_strategies(self) -> list:
        """One Strategy per node, entry by entry."""
        return list(chain.from_iterable([s] * count for s, count in self._strategy_counts()))


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
    passes visit all M nodes: enrolment once per run, the sweep of the stake
    pool once per round, and the conservation check once per block, which
    recomputes every ledger term on purpose so a leak shows in its block.
    A selected node posts in the first block of a window of jitter 1, the
    default, and draws nothing; above jitter 1 its block is a PRF draw."""

    _POST_ORDER = {"enqueue": 0, "commit": 1, "reveal": 2, "witness": 3}

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.seed = bytes.fromhex(scenario.seed)
        params = miracle.ConsensusParams(scenario.m_total, scenario.f_max,
                                         scenario.q, scenario.beta)
        self.mc = MasterContract(params, scenario.policy, scenario.windows,
                                 sha256(b"beacon", self.seed), max_rounds=scenario.max_rounds,
                                 treasury=scenario.treasury)
        self.strategies = scenario.expand_strategies()  # off-chain, so not the contract's
        seed, add_node = self.seed, self.mc.add_node
        deposit, balance = scenario.policy.deposit, scenario.node_balance
        for node_id in range(scenario.m_total):
            add_node(keygen(seed, node_id), deposit, balance)
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

    def _plan_digest(self, node_id: int, strategy: adversary.Strategy, tid: bytes,
                     honest: Digest, round_index: int, planned: dict) -> Digest:
        """The digest this node submits, by its kind's rule in `adversary.KINDS`;
        `planned` keeps the round's digests by preimages, which nodes share."""
        preimages = adversary.KINDS[strategy.kind].rule(
            strategy, node_id, tid, round_index, self._prf_value)
        if preimages not in planned:
            seed, root = preimages
            planned[preimages] = honest if seed is None and root is None else Digest(
                seed=sha256(*seed) if seed else honest.seed,
                root=MerkleRoot(sha256(*root)) if root else honest.root)
        return planned[preimages]

    def _jitter(self, label: bytes, tag: bytes, lo: int, hi: int, jitter: int) -> int:
        """A block in [lo, hi], drawn from its first `jitter` blocks. Jitter 1 draws
        nothing: its block is `lo`, so `_plan_round` calls this only above jitter 1."""
        span = min(jitter, hi - lo + 1)
        return lo if span == 1 else lo + self._prf_value(label, tag) % span

    def _plan_round(self, cid: bytes) -> None:
        mc, scenario = self.mc, self.scenario
        it = mc.active[cid]
        rnd = it.rounds[-1]
        nonce, q, index, tid = rnd.nonce, scenario.q, rnd.round_index, it.tx.tid
        commit_window = rnd.commit_open, rnd.commit_close, scenario.commit_jitter
        reveal_window = rnd.reveal_open, rnd.reveal_close, scenario.reveal_jitter
        # a window of jitter 1 posts every message at its first block (windows are never empty)
        commit_at, reveal_at = rnd.commit_open, rnd.reveal_open
        honest, planned, suffix = None, {}, cid + be8(index)
        # the post order of different nodes decides nothing: delivery sorts by node
        for node_id, keys in mc.pool.items():
            sort = check_sort(keys, nonce, q)
            if not sort.selected:
                continue
            if honest is None:
                # through the module, so a wrapper patched onto it sees the call
                honest, _ = rice.rice_execute_traced(self.models[cid], mc.states[cid],
                                                     it.tx.data, index, it.round1_entropy,
                                                     gas_limit=it.tx.gas_limit)
            strategy = self.strategies[node_id]
            digest = self._plan_digest(node_id, strategy, tid, honest, index, planned)
            # the bytes of sha256(digest.encode(), sort.encode()) for a selected sort
            se = sha256(digest.seed, digest.root.value, sort.output, sort.proof)
            if commit_window[2] > 1:
                commit_at = self._jitter(b"cjit", be8(node_id) + suffix, *commit_window)
            self._post(commit_at, "commit", node_id, mc.submit_commit, node_id, cid, se)
            if adversary.KINDS[strategy.kind].reveals:
                if reveal_window[2] > 1:
                    reveal_at = self._jitter(b"rjit", be8(node_id) + suffix, *reveal_window)
                self._post(reveal_at, "reveal", node_id, mc.submit_reveal,
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
                self.mc.emit(block, "rejected", kind, node_id, type(exc).__name__, str(exc))

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
        block = settled = 0
        while block < MAX_BLOCKS:
            block += 1
            seen = len(self.mc.events)
            self._deliver(block)
            self.mc.tick(block)
            for event in self.mc.events[seen:]:
                kind = event["type"]
                if kind == "round_started":
                    self._plan_round(bytes.fromhex(event["cid"]))
                elif kind == "round_closed" and event["accepted"]:
                    self._plan_witnesses(bytes.fromhex(event["cid"]), block)
                elif kind == "settled":
                    settled += 1
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
                         settled=settled)


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
    # the first differing field and each side's JSON value of it (None where that side
    # lacks it); all None where a line is missing or does not parse to a JSON object
    field: Optional[str] = None
    recorded_value: object = None
    replayed_value: object = None


def _parsed(line: Optional[str]) -> Optional[dict]:
    try:
        doc = json.loads(line)
    except (ValueError, TypeError):
        return None
    return doc if type(doc) is dict else None


def replay_check(scenario: Scenario, recorded_lines: list) -> ReplayReport:
    """Re-run a scenario from its seeds and diff the event stream; a
    divergent event's type is the replay's unless the replay has ended, and
    its first differing field is the first key in the canonical line's
    order whose JSON text differs (or that one side lacks)."""
    fresh = run_scenario(scenario)
    recorded, replayed = list(recorded_lines), fresh.lines
    counts = (len(recorded), len(replayed))
    if recorded == replayed:
        return ReplayReport(True, None, *counts)
    first, (mine, theirs) = next((i, pair) for i, pair in enumerate(
        zip_longest(recorded, replayed)) if pair[0] != pair[1])
    old, new = _parsed(mine), _parsed(theirs)
    kind = fresh.events[first]["type"] if theirs is not None else (old or {}).get("type")
    if old is None or new is None:
        return ReplayReport(False, first, *counts, mine, theirs, kind)
    key = next((key for key in sorted(old.keys() | new.keys()) if key not in old
                or key not in new or canonical_json(old[key]) != canonical_json(new[key])), None)
    return ReplayReport(False, first, *counts, mine, theirs, kind, key, old.get(key), new.get(key))
