"""Monte Carlo harness: reproducible experiments emitting CSV.

Every experiment is fully determined by its spec and a 256-bit seed;
per-trial randomness comes from hash-derived sub-seeds so trial order and
parallel merging cannot change results. CSV artifacts carry a leading
comment line with the spec hash and seed for provenance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

from . import __version__, adversary, miracle, protocol, rice
from .hashing import be8, sha256
from .merkle_state import CicState
from .randomness import random_gen
from .toy_vm import ClosedFormCursor, ComputeModel, compute_data, random_program

FORMAT_VERSION = 1


class ConfigError(ValueError):
    pass


def seed_from_hex(text: str) -> bytes:
    """A 32-byte seed from its hex spelling; ConfigError for anything else."""
    try:
        raw = bytes.fromhex(text)
    except (ValueError, TypeError) as exc:     # TypeError: not a str
        raise ConfigError(f"seed must be hex: {exc}") from None
    if len(raw) != 32:
        raise ConfigError("seed must be 32 bytes of hex")
    return raw


def _fits_default(value, default) -> bool:
    """Whether a parameter value has its default's type; a bool is no number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits_default(v, default[0]) for v in value)
    if default is None:
        return value is None or _fits_default(value, 0.0)
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict = field(default_factory=dict)
    trials: int = 1000
    seed: str = "00" * 32

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind: {self.kind}")
        unknown = sorted(set(self.params) - set(KINDS[self.kind].defaults))
        if unknown:
            raise ConfigError(f"unknown parameter for {self.kind}: {', '.join(unknown)}")
        for key, value in self.params.items():
            default = KINDS[self.kind].defaults[key]
            if not _fits_default(value, default):
                raise ConfigError(f"{self.kind} parameter {key}={value!r} does not have "
                                  f"the type of its default {default!r}")
            if value == []:
                raise ConfigError(f"{self.kind} parameter {key} lists no value")
        if type(self.trials) is not int or self.trials <= 0:
            raise ConfigError(f"trial count must be a positive int, not {self.trials!r}")
        object.__setattr__(self, "seed", seed_from_hex(self.seed).hex())  # one spelling

    def canonical(self) -> str:
        return protocol.canonical_json({"kind": self.kind, "params": self.params,
                                        "trials": self.trials, "seed": self.seed})

    def spec_hash(self) -> str:
        return sha256(self.canonical().encode()).hex()


def _rng(seed: bytes, *tags: bytes):
    """A numpy `Generator` seeded from sha256(seed, *tags)."""
    import numpy as np
    return np.random.default_rng(int.from_bytes(sha256(seed, *tags), "big"))


# --- vectorized two-root consensus Monte Carlo --------------------------------

@dataclass(frozen=True)
class SweepStats:
    f: float
    beta: float
    trials: int
    mean_rounds: float
    ci95_rounds: float
    p_wrong: float
    mean_nodes_used: float
    unconverged: int


# a Monte Carlo trial still undecided after this many rounds is unconverged
MC_MAX_ROUNDS = 100


def simulate_two_root(params: miracle.ConsensusParams, f: float, trials: int, rng):
    """All Byzantine nodes pool on one incorrect root; honest nodes submit
    the correct one. Returns per-trial (rounds, wrong, nodes_used, unconverged
    mask) using the exact integer score, the real-valued threshold and the
    numpy `Generator` `rng`.
    The wrong root's score is minus the right one's, so a trial is one walk
    adding (nh - nb)(nh + nb) a round, won above the threshold and lost below
    its negative, or lost when both hold (a negative threshold, beta > 0.5).
    `live` keeps the undecided trials in trial order, the order of the draws."""
    import numpy as np
    if not 0 <= f <= 1:
        raise miracle.DegenerateParams("actual Byzantine fraction must lie in [0, 1]")
    gate = miracle.threshold(params)
    if params.m_total ** 2 >= 2 ** 63 - abs(gate):     # an undecided walk is within the gate
        raise miracle.DegenerateParams("M**2 + |threshold| overflows the int64 walk")
    n_byz = round(f * params.m_total)
    n_hon = params.m_total - n_byz
    rounds = np.full(trials, MC_MAX_ROUNDS, dtype=np.int64)
    wrong = np.zeros(trials, dtype=bool)
    nodes_used = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials)
    walk = np.zeros(trials, dtype=np.int64)
    for round_index in range(1, MC_MAX_ROUNDS + 1):
        if live.size == 0:
            break
        nh = rng.binomial(n_hon, params.q, size=live.size).astype(np.int64)
        nb = rng.binomial(n_byz, params.q, size=live.size).astype(np.int64) if n_byz else 0
        totals = nh + nb
        walk += (nh - nb) * totals
        nodes_used[live] += totals
        hit_w = -walk > gate
        decided = (walk > gate) | hit_w
        rounds[live[decided]] = round_index
        wrong[live[hit_w]] = True
        live, walk = live[~decided], walk[~decided]
    unconverged = np.zeros(trials, dtype=bool)
    unconverged[live] = True
    return rounds, wrong, nodes_used, unconverged


def sweep_point(params: miracle.ConsensusParams, f: float, trials: int,
                seed: bytes) -> SweepStats:
    rng = _rng(seed, b"sweep", str((params.m_total, params.q, params.beta,
                                    params.f_max, f)).encode())
    rounds, wrong, nodes, unconv = simulate_two_root(params, f, trials, rng)
    mean = float(rounds.mean())
    half = 1.96 * float(rounds.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return SweepStats(f=f, beta=params.beta, trials=trials, mean_rounds=mean,
                      ci95_rounds=half, p_wrong=float(wrong.mean()),
                      mean_nodes_used=float(nodes.mean()),
                      unconverged=int(unconv.sum()))


def _stats_columns(stats: SweepStats) -> dict:
    """The five `SweepStats` columns that both consensus sweeps report, in order."""
    return {name: getattr(stats, name) for name in
            ("trials", "mean_rounds", "ci95_rounds", "p_wrong", "mean_nodes_used")}


def miracle_sweep_rows(trials: int, seed: bytes, m: int, q: float,
                       betas: Sequence[float], f_values: Sequence[float],
                       f_max: Optional[float] = None):
    """Mean rounds / error rate / node usage over a (beta, f) grid of pool
    size m, with f_max = f unless pinned (the worst-case design point)."""
    rows = []
    for beta in betas:
        for f in f_values:
            design = f_max if f_max is not None else f
            params = miracle.ConsensusParams(m, design, q, beta)
            stats = sweep_point(params, f, trials, seed)
            rows.append({"f": f, "beta": beta, "f_max": design, **_stats_columns(stats),
                         "unconverged": stats.unconverged})
    return rows


def adaptive_rows(trials: int, seed: bytes, m: int, beta: float, f_max: float,
                  target_rounds: float, f_values: Sequence[float]):
    """Fix q so the design point of pool size `m` runs `target_rounds` by the
    Wald/Gaussian `expected_rounds` (the exact mean is lower, see
    `solve_q_for_expected_rounds`), then sweep the actual f downwards."""
    q = miracle.solve_q_for_expected_rounds(m, f_max, beta, target_rounds)
    params = miracle.ConsensusParams(m, f_max, q, beta)
    rows = []
    for f in f_values:
        stats = sweep_point(params, f, trials, seed)
        rows.append({"f": f, "f_max": f_max, "q": q, "beta": beta, "expected_es": q * m,
                     **_stats_columns(stats)})
    return rows


def es_sizing_rows(m_total: int, beta: float, f_max_values: Sequence[float]):
    """One-round set sizing against the single-shot majority baseline."""
    rows = []
    for f_max in f_max_values:
        q = miracle.one_round_q(m_total, f_max, beta)
        rows.append({"f_max": f_max, "beta": beta, "q_one_round": q,
                     "es_one_round": q * m_total,
                     "ns1_size": miracle.ns1_size(f_max, m_total, beta)})
    return rows


# --- schedule experiments ------------------------------------------------------

class SyntheticRunner:
    """Interruptible substrate whose root differs at every index: the worst
    case for anyone hoping to reuse intermediate states across rounds, and
    an O(1)-per-subarray driver for schedule studies at large T."""

    def __init__(self, total: int, salt: bytes):
        if total < 1:
            raise ValueError("total instruction count must be positive")
        self.total = total
        self.salt = salt

    def start(self, state, data: bytes = b"", gas_limit=None):
        return ClosedFormCursor(self.total, self.root_at, gas_limit=gas_limit)

    def root_at(self, t: int) -> bytes:
        return sha256(b"synthetic-root", self.salt, be8(t))


def rice_overhead_rows(count: int, t_lo: int, t_hi: int, seed: bytes,
                       vm_fraction: float = 0.2):
    """Schedule-bound audit over programs with log-uniform total length.

    Mixes three substrates: closed-form benchmark runs, synthetic runs, and
    (below 20,000 instructions) randomly generated programs on the interpreter.
    """
    if not 2 <= t_lo <= t_hi:
        raise ConfigError("rice_overhead needs 2 <= t_lo <= t_hi")
    rng = random.Random(int.from_bytes(sha256(seed, b"rice-overhead"), "big"))
    rows = []
    for index in range(count):
        u = rng.random()
        total_target = int(round(t_lo * (t_hi / t_lo) ** u))
        salt = sha256(seed, b"salt", be8(index))
        entropy = sha256(seed, b"entropy", be8(index))
        pick = rng.random()
        if pick < vm_fraction and total_target <= 20_000:
            backend = "vm"
            substrate = random_program(rng, max_iterations=max(total_target // 12, 1))
            state, data = CicState(sha256(b"cic", salt), substrate.code_id), b""
        elif pick < 0.6:
            backend = "model"
            substrate = ComputeModel(key=int.from_bytes(salt[:2], "big"))
            state = CicState(sha256(b"cic", salt), substrate.code_id)
            data = compute_data(max((total_target - 5) // 6, 1))
        else:
            backend, substrate = "synthetic", SyntheticRunner(total_target, salt)
            state, data = None, b""
        _, trace = rice.rice_execute_traced(substrate, state, data, 1, entropy)
        total = trace.total
        bound = 3.0 / (4.0 * math.log2(total))
        frac = trace.last_update_fraction()
        rows.append({
            "trial": index, "backend": backend, "total": total,
            "phi": trace.phi,
            "k_of_total": rice.exponent_of_total(total),
            "k_of_last_update": (rice.exponent_of_total(trace.update_indices[-1])
                                 if trace.update_indices else None),
            "phi_bounds_ok": rice.check_phi_bounds(trace),
            "k_relation_ok": rice.check_total_exponent(trace),
            "last_update_fraction": frac,
            "last_fraction_bound": bound,
            "last_fraction_ok": frac is not None and frac < bound,
        })
    return rows


def fit_phi_vs_log2_squared(rows: Sequence[dict]):
    """Least-squares fit phi ~ a (log2 T)^2 + b; returns (a, b, r_squared).
    Rows that all have one phi leave R^2 undefined: a `ConfigError`."""
    import numpy as np
    x = np.array([math.log2(r["total"]) ** 2 for r in rows])
    y = np.array([r["phi"] for r in rows], dtype=float)
    total_ss = float(((y - y.mean()) ** 2).sum())
    if total_ss == 0.0:
        raise ConfigError("every run has the same phi, so the phi fit's R^2 is undefined")
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    r2 = 1.0 - float(((y - pred) ** 2).sum()) / total_ss
    return float(coef[0]), float(coef[1]), r2


def rice_unmatched_rows(trials: int, seed: bytes, k: int, rounds: int):
    """Strong-unmatched counts for runs ending in a 2^k segment, across
    consecutive rounds of the same synthetic computation."""
    if k < 2:
        raise ConfigError("rice_unmatched needs k >= 2")
    if rounds < 2:
        raise ConfigError("rice_unmatched needs rounds >= 2: each row compares two rounds")
    lo, hi = rice.group_end(k - 1) + 1, rice.group_end(k)
    rng = random.Random(int.from_bytes(sha256(seed, b"unmatched", be8(k)), "big"))
    rows = []
    for index in range(trials):
        total = rng.randint(lo, hi)
        entropy = sha256(seed, b"uent", be8(index))
        runner = SyntheticRunner(total, sha256(seed, b"usalt", be8(index)))
        traces = [rice.rice_execute_traced(runner, None, b"", j, entropy)[1]
                  for j in range(1, rounds + 1)]
        counts = rice.strong_unmatched(traces)
        for trace, strong in zip(traces[1:], counts[1:]):
            rows.append({"trial": index, "total": trace.total, "round": trace.round_index,
                         "k_of_total": rice.exponent_of_total(trace.total), "phi": trace.phi,
                         "strong_unmatched": strong})
    return rows


# --- randomized protocol runs ---------------------------------------------------

def random_scenario(index: int, seed: bytes, max_parallel: int = 16) -> protocol.Scenario:
    """A small randomized protocol scenario: mixed strategies, one to
    `max_parallel` transactions, occasional shared queues and zero buffers."""
    rng = random.Random(int.from_bytes(random_gen(seed, index), "big"))
    m = rng.randint(12, 28)
    n_byz = rng.randint(0, int(0.30 * m))
    n_free = rng.randint(0, 2)
    n_silent = rng.randint(0, 2)
    n_coll = rng.choice([0, 0, 2, 3])
    n_honest = m - n_byz - n_free - n_silent - n_coll
    if n_honest < max(3, int(0.45 * m)):
        n_byz = max(0, n_byz - (max(3, int(0.45 * m)) - n_honest))
        n_honest = m - n_byz - n_free - n_silent - n_coll
    strategies = [("honest", n_honest)]
    if n_byz:
        if rng.random() < 0.3:
            strategies.append(("byz_multi", n_byz, {"fanout": rng.randint(2, 3)}))
        else:
            strategies.append(("byz_single", n_byz))
    if n_free:
        strategies.append(("freeloader", n_free,
                           {"gamma": round(rng.uniform(0.0, 0.6), 3)}))
    if n_silent:
        strategies.append(("silent", n_silent))
    if n_coll:
        strategies.append(("colluder", n_coll, {"group": 1}))
    n_its = rng.choice([1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 8, max_parallel])
    n_cics = n_its if rng.random() < 0.8 else max(1, n_its // 2)
    cics = tuple(protocol.CicSpec(key=i, init=rng.randint(0, 50))
                 for i in range(n_cics))
    its = tuple(protocol.ItSpec(cic_index=i % n_cics, eta=rng.randint(3, 10),
                                gas_price=rng.randint(1, 3),
                                submit_block=rng.randint(1, 3))
                for i in range(n_its))
    return protocol.Scenario(
        seed=random_gen(seed, index).hex(),
        m_total=m, q=round(rng.uniform(0.35, 0.65), 3), f_max=0.4,
        beta=10.0 ** -rng.randint(3, 8), max_rounds=rng.randint(6, 10),
        strategies=tuple(strategies), cics=cics, its=its,
        windows=protocol.WindowConfig(gas_per_block=40,
                                      w_src_slack=rng.randint(1, 2),
                                      w_buf=rng.choice([0, 1, 2]),
                                      w_sr=rng.randint(2, 4)),
        commit_jitter=rng.randint(1, 3), reveal_jitter=rng.randint(1, 3))


def audit_event_log(events: Sequence[dict]) -> dict:
    """Log-level audit: window discipline and commitment/reveal binding,
    reconstructed purely from the event stream."""
    windows: dict = {}
    commits: dict = {}
    ok_windows = True
    ok_binding = True
    for event in events:
        kind = event["type"]
        if kind == "round_started":
            windows[event["cid"]] = event
        elif kind in ("commit", "reveal"):
            w = windows[event["cid"]]
            if not (w["round"] == event["round"]
                    and w[kind + "_open"] <= event["block"] <= w[kind + "_close"]):
                ok_windows = False
            key = (event["cid"], event["round"], event["node"])
            if kind == "commit":
                commits[key] = event["se"]
            elif commits.get(key) != sha256(*[bytes.fromhex(event[part])
                                              for part in ("seed", "root", "sort")]).hex():
                ok_binding = False
    return {"window_discipline": ok_windows, "reveal_binding": ok_binding}


def protocol_batch_rows(count: int, seed: bytes, max_parallel: int = 16):
    """Run `count` randomized scenarios; audit conservation, windows,
    binding, and bit-exact replay of every event log. `honest_forfeits`
    reports settlement punishments landing on honest nodes (possible only
    when a wrong root wins or honest seeds fall under the forfeit
    threshold, both of which the incentive design keeps rare)."""
    if max_parallel < 1:
        raise ConfigError("max_parallel must be at least 1")
    rows = []
    for index in range(count):
        scenario = random_scenario(index, seed, max_parallel=max_parallel)
        result = protocol.run_scenario(scenario)
        audit = audit_event_log(result.events)
        replay_ok = protocol.replay_check(scenario, result.lines).identical
        honest_ids = {n for n, s in enumerate(scenario.expand_strategies())
                      if s.kind == adversary.HONEST}
        honest_forfeits = sum(1 for e in result.events
                              if e["type"] == "forfeit" and e["node"] in honest_ids)
        rows.append({
            "trial": index, "m_total": scenario.m_total,
            "parallel_its": len(scenario.its), "blocks": result.total_blocks,
            "settled": result.settled, "events": len(result.events),
            "conserved": result.conserved, **audit,
            "replay_identical": replay_ok,
            "honest_forfeits": honest_forfeits,
        })
    return rows


# --- utility surface -------------------------------------------------------------

def utility_surface_rows(points: int, seed: bytes):
    """Random sweep of the incentive inequality; `agrees` records whether
    the closed-form condition matches the direct utility comparison."""
    rng = _rng(seed, b"utility")
    rows = []
    for index in range(points):
        p = adversary.UtilityParams(
            reward=float(rng.uniform(0.0, 200.0)),
            deposit=float(rng.uniform(0.0, 200.0)),
            beta=float(rng.uniform(0.0, 0.45)),
            gamma=float(rng.uniform(0.0, 0.99)),
            c1=float(rng.uniform(0.0, 60.0)),
            c2=float(rng.uniform(0.0, 60.0)),
            c3=float(rng.uniform(0.0, 80.0)))
        honest_u = adversary.utility_honest(p)
        freeload_u = adversary.utility_freeload(p)
        rows.append({"trial": index, "reward": p.reward, "deposit": p.deposit,
                     "beta": p.beta, "gamma": p.gamma, "c1": p.c1, "c2": p.c2,
                     "utility_honest": honest_u, "utility_freeload": freeload_u,
                     "nash": adversary.nash_condition(p),
                     "agrees": adversary.nash_condition(p) == (honest_u > freeload_u)})
    return rows


# --- CSV plumbing and the experiment entry point ---------------------------------

def render_csv(rows: Sequence[dict], meta: dict) -> str:
    buf = io.StringIO()
    buf.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Kind:
    """One experiment kind. `rows(trials, seed, **params)` builds its rows;
    `defaults` names every parameter it reads, with its default; a run
    passes when every row has all of its `audited` fields true."""

    rows: Callable
    defaults: dict
    audited: tuple = ()

    def passed(self, rows: Sequence[dict]) -> bool:
        return all(row[name] for row in rows for name in self.audited)


def _rice_overhead_with_fit(trials: int, seed: bytes, t_lo: int, t_hi: int):
    rows = rice_overhead_rows(trials, t_lo, t_hi, seed)
    a, b, r2 = fit_phi_vs_log2_squared(rows)
    for row in rows:
        row["fit_a"], row["fit_b"], row["fit_r2"] = a, b, r2
    return rows


KINDS = {
    "miracle_sweep": Kind(miracle_sweep_rows, {"m": 1600, "q": 0.125, "betas": [1e-10],
                                               "f_values": [0.4], "f_max": None}),
    "adaptive_rounds": Kind(adaptive_rows, {"m": 1600, "beta": 1e-20, "f_max": 0.35,
                                            "target_rounds": 5.0, "f_values": [0.0, 0.25]}),
    "es_sizing": Kind(
        lambda trials, seed, m, beta, f_max_values: es_sizing_rows(m, beta, f_max_values),
        {"m": 1600, "beta": 1e-20,
         "f_max_values": [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]}),
    "rice_overhead": Kind(_rice_overhead_with_fit, {"t_lo": 1000, "t_hi": 10_000_000},
                          ("phi_bounds_ok", "k_relation_ok")),
    "rice_unmatched": Kind(rice_unmatched_rows, {"k": 10, "rounds": 2}),
    "protocol_run": Kind(protocol_batch_rows, {"max_parallel": 16},
                         ("conserved", "window_discipline", "reveal_binding",
                          "replay_identical")),
    "utility_surface": Kind(utility_surface_rows, {}, ("agrees",)),
}


def run(spec: ExperimentSpec):
    """Execute an experiment spec; returns (rows, meta), which `render_csv`
    turns into the CSV artifact."""
    kind = KINDS[spec.kind]
    rows = kind.rows(spec.trials, seed_from_hex(spec.seed), **{**kind.defaults, **spec.params})
    return rows, {"spec": spec.spec_hash(), "seed": spec.seed, "kind": spec.kind,
                  "lib": __version__}


# --- protocol log files and replay ------------------------------------------------

def write_event_log(path: str, result: protocol.RunResult) -> None:
    header = {"format": FORMAT_VERSION, "lib": __version__,
              "scenario": asdict(result.scenario)}
    with open(path, "w") as fh:
        fh.write(protocol.canonical_json(header) + "\n")
        for line in result.lines:
            fh.write(line + "\n")


def replay(path: str) -> dict:
    """The replay report of a logged scenario plus the log's versions; its
    `identical` is false on any mismatch."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise protocol.ScenarioError(f"{path}: empty event log")
    try:
        header = json.loads(lines[0])
        text = protocol.canonical_json(header["scenario"])
    except (ValueError, KeyError, TypeError) as exc:
        raise protocol.ScenarioError(f"{path}: malformed log header: {exc!r}") from exc
    scenario = protocol.Scenario.from_json(text)
    report = protocol.replay_check(scenario, lines[1:])
    return {**asdict(report), "log_format": header.get("format"),
            "log_lib": header.get("lib"), "lib": __version__,
            "version_match": header.get("lib") == __version__}
