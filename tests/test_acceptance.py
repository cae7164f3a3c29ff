"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Three criteria carry sub-targets that this implementation reproduces
faithfully but cannot hit, and they are left red on purpose:

* criterion 1 and the low-f_max half of criterion 2 target round counts
  measured on the original hardware testbed; those published points exceed
  what the stated sampling model can produce (at f = f_max = 0.30, M=1600,
  q=0.125 and beta=1e-10 the model's exact mean is 1.0000078 rounds, from
  the walk oracle in tests/oracles.py; the published curve shows 1.12), so
  the gap is a testbed artifact, not a simulator parameter.
* criterion 7's last-update-fraction bound 3/(4 log2 T) follows from a
  mis-summed geometric series; the schedule obeys the same Theta(1/log2 T)
  scaling but with a larger constant: over T in [1e3, 1e7] the exact
  supremum of (T - t_last)/T * log2 T is 2.7423, at T = 2,050, 3.66 times
  the 3/4 of the bound. Roughly a third of runs land between the two
  constants: the exact law of each run's miss
  (tests/oracles.py::schedule_tail_miss) expects 341 +- 15 of c07's 1,000.

Everything else must be green at the stated tolerances.
"""

import math
import random

import numpy as np

from cicsim import adversary, experiments, miracle, protocol, rice
from cicsim.hashing import be8, sha256
from cicsim.merkle_state import CicState
from cicsim.toy_vm import ComputeModel, compute_data, random_program, run_full, run_sub

from oracles import count_double_crossings, merged_vs_split_margin, random_tally_batch
from test_protocol import settle_with_seed_groups

SEED = sha256(b"cicsim-acceptance-v1")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * target


def test_c01_beta_sweep_reproduction():
    """Mean rounds at f = f_max for (f_max, beta) reference points,
    M=1600, q=0.125, single-incorrect-root adversary, >= 2000 trials."""
    targets = [(0.40, 1e-10, 2.13), (0.45, 1e-10, 7.61), (0.45, 1e-6, 4.52)]
    failures = []
    lines = []
    for f_max, beta, target in targets:
        params = miracle.ConsensusParams(1600, f_max, 0.125, beta)
        stats = experiments.sweep_point(params, f_max, 4000, SEED)
        ok = within(stats.mean_rounds, target, 0.15)
        lines.append(f"(f_max={f_max}, beta={beta}): mean_rounds="
                     f"{stats.mean_rounds:.3f} target={target}+-15% -> "
                     f"{'ok' if ok else 'MISS'}")
        if not ok:
            failures.append(lines[-1])
    report(1, not failures, "; ".join(lines))
    assert not failures, (
        "published testbed round counts exceed the stated sampling model; "
        "see the analysis in this module's docstring: "
        + " | ".join(failures))


def test_c02_adaptivity_reproduction():
    """q solved for five expected rounds at the design point by the
    Wald/Gaussian `expected_rounds` (the exact walk mean there is 3.847
    rounds at f_max=0.35 and 3.315 at 0.45); mean rounds at smaller actual
    fractions, M=1600, beta=1e-20."""
    failures = []
    lines = []
    q35 = miracle.solve_q_for_expected_rounds(1600, 0.35, 1e-20, 5.0)
    params35 = miracle.ConsensusParams(1600, 0.35, q35, 1e-20)
    for f, target in [(0.0, 2.61), (0.25, 4.76)]:
        stats = experiments.sweep_point(params35, f, 10_000, SEED)
        ok = within(stats.mean_rounds, target, 0.10)
        lines.append(f"(f_max=0.35, f={f}): mean={stats.mean_rounds:.3f} "
                     f"target={target}+-10% -> {'ok' if ok else 'MISS'}")
        if not ok:
            failures.append(lines[-1])
    q45 = miracle.solve_q_for_expected_rounds(1600, 0.45, 1e-20, 5.0)
    params45 = miracle.ConsensusParams(1600, 0.45, q45, 1e-20)
    for f in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
        stats = experiments.sweep_point(params45, f, 10_000, SEED)
        ok = stats.mean_rounds == 1.0
        lines.append(f"(f_max=0.45, f={f}): mean={stats.mean_rounds} "
                     f"-> {'exactly 1.00' if ok else 'MISS'}")
        if not ok:
            failures.append(lines[-1])
    report(2, not failures, "; ".join(lines))
    assert not failures, (
        "low-f_max published points are testbed artifacts (see this module's docstring): "
        + " | ".join(failures))


def test_c03_execution_set_sizing():
    rows = {r["f_max"]: r for r in experiments.es_sizing_rows(
        1600, 1e-20, [0.05, 0.35, 0.40, 0.45])}
    checks = [
        ("one-round ES at 0.35", abs(rows[0.35]["es_one_round"] - 66.92) <= 3),
        ("one-round ES at 0.45", abs(rows[0.45]["es_one_round"] - 199.53) <= 3),
        ("majority baseline at 0.35", abs(rows[0.35]["ns1_size"] - 897) <= 5),
        ("baseline saturates at 0.40", rows[0.40]["ns1_size"] == 1600),
        ("baseline saturates at 0.45", rows[0.45]["ns1_size"] == 1600),
    ]
    detail = (f"es(0.35)={rows[0.35]['es_one_round']:.2f}, "
              f"es(0.45)={rows[0.45]['es_one_round']:.2f}, "
              f"ns1(0.35)={rows[0.35]['ns1_size']}, "
              f"ns1(0.40)={rows[0.40]['ns1_size']}, "
              f"ns1(0.45)={rows[0.45]['ns1_size']}")
    ok = all(c for _, c in checks)
    report(3, ok, detail)
    assert ok, [name for name, c in checks if not c]


def test_c04_validity_at_testable_error_budget():
    """Wrong-root acceptance frequency at beta=1e-2, f=f_max=0.40,
    q=0.125, M=1600 over 1e5 trials."""
    params = miracle.ConsensusParams(1600, 0.40, 0.125, 1e-2)
    stats = experiments.sweep_point(params, 0.40, 100_000, SEED)
    bound = 0.01 + 3 * math.sqrt(0.01 * 0.99 / 100_000)
    ok = stats.p_wrong <= bound
    report(4, ok, f"p_wrong={stats.p_wrong:.6f} <= {bound:.6f} "
                  f"(mean_rounds={stats.mean_rounds:.2f})")
    assert ok


def test_c05_single_winner_property():
    """1e6 randomized tally sequences: never two scores above the gate."""
    rng = np.random.default_rng(int.from_bytes(sha256(SEED, b"c5"), "big"))
    params = miracle.ConsensusParams(400, 0.45, 0.3, 0.01)
    gate = miracle.threshold(params)
    assert gate > 0
    total = violations = 0
    while total < 1_000_000:
        batch = min(50_000, 1_000_000 - total)
        counts = random_tally_batch(rng, batch, max_roots=5, max_rounds=6, scale=150)
        violations += count_double_crossings(counts, gate)
        total += batch
    ok = violations == 0
    report(5, ok, f"double crossings: {violations} in {total} sequences")
    assert ok


def test_c06_merging_dominates_splitting():
    """1e4 random adversary splits over 2..5 roots: pooling the counts never
    lowers the best incorrect score."""
    rng = np.random.default_rng(int.from_bytes(sha256(SEED, b"c6"), "big"))
    checked = 0
    worst = None
    while checked < 10_000:
        counts = random_tally_batch(rng, 2_000, max_roots=6, max_rounds=5, scale=120)
        if counts.shape[2] < 3:
            continue  # needs at least two incorrect roots to split
        margins = merged_vs_split_margin(counts)
        worst = margins.min() if worst is None else min(worst, margins.min())
        checked += counts.shape[0]
    ok = worst is not None and worst >= 0
    report(6, ok, f"min(merged - split) = {worst} over {checked} splits")
    assert ok


def test_c07_schedule_bounds():
    """1e3 runs with T in [1e3, 1e7]: update-count band, group relation,
    last-update fraction, and the quadratic-in-log fit. The schedule's
    exact supremum of (T - t_last)/T * log2 T on this range is 2.7423."""
    rows = experiments.rice_overhead_rows(1000, 1_000, 10_000_000, SEED)
    phi_bad = [r for r in rows if not r["phi_bounds_ok"]]
    k_bad = [r for r in rows if not r["k_relation_ok"]]
    frac_bad = [r for r in rows if not r["last_fraction_ok"]]
    a, b, r2 = experiments.fit_phi_vs_log2_squared(rows)
    worst = max(r["last_update_fraction"] / r["last_fraction_bound"]
                for r in rows)
    detail = (f"phi-band misses={len(phi_bad)}/1000, group misses={len(k_bad)}/1000, "
              f"fit R^2={r2:.4f}, last-fraction misses={len(frac_bad)}/1000 "
              f"(worst {worst:.2f}x the 3/(4 log2 T) bound)")
    report(7, not (phi_bad or k_bad or frac_bad or r2 <= 0.98), detail)
    assert not phi_bad
    assert not k_bad
    assert r2 > 0.98
    assert not frac_bad, (
        "the 3/(4 log2 T) constant comes from a mis-summed series; the "
        f"schedule's true tail constant is larger (see this module's docstring). {detail}")


def test_c08_round_divergence_and_strong_unmatched():
    """Roots stable / seeds distinct across rounds 1-5 for 1e3 pairs, and
    strong-unmatched counts beat sqrt(k) at terminal k >= 9."""
    rng = random.Random(int.from_bytes(sha256(SEED, b"c8"), "big"))
    model_cache = {}
    root_stable = seeds_distinct = 0
    pairs = 1000
    for trial in range(pairs):
        key = rng.randint(0, 3)
        model = model_cache.setdefault(key, ComputeModel(key=key))
        state = CicState(sha256(b"c8-cid", be8(trial)), model.code_id)
        if rng.random() < 0.5:
            state = state.put(key, rng.randint(1, 10 ** 9))
        eta = rng.randint(30, 1000)
        entropy = sha256(SEED, b"c8-entropy", be8(trial))
        digests = [rice.rice_execute_traced(model, state, compute_data(eta), j, entropy)[0]
                   for j in range(1, 6)]
        roots = {d.root.value for d in digests}
        seeds = {d.seed for d in digests}
        root_stable += len(roots) == 1
        seeds_distinct += len(seeds) == 5
    unmatched_ok = True
    tail_detail = []
    for k in (9, 10):
        rows = experiments.rice_unmatched_rows(k=k, trials=5000, rounds=2,
                                               seed=SEED)
        xs = np.array([r["strong_unmatched"] for r in rows])
        frac = float((xs >= math.sqrt(k)).mean())
        tail_detail.append(f"k={k}: P(X>=sqrt(k))={frac:.4f}")
        unmatched_ok &= frac >= 0.99
    ok = root_stable == pairs and seeds_distinct == pairs and unmatched_ok
    report(8, ok, f"roots stable {root_stable}/{pairs}, seeds distinct "
                  f"{seeds_distinct}/{pairs}, {', '.join(tail_detail)}")
    assert root_stable == pairs
    assert seeds_distinct == pairs
    assert unmatched_ok


def test_c09_protocol_conservation_and_discipline():
    """1e3 randomized protocol runs (parallel transactions up to 16):
    exact conservation, window discipline, reveal binding, replay."""
    rows = experiments.protocol_batch_rows(1000, SEED, max_parallel=16)
    conserved = sum(r["conserved"] for r in rows)
    windows = sum(r["window_discipline"] for r in rows)
    binding = sum(r["reveal_binding"] for r in rows)
    replayed = sum(r["replay_identical"] for r in rows)
    max_parallel = max(r["parallel_its"] for r in rows)
    honest_hits = sum(r["honest_forfeits"] for r in rows)
    ok = (conserved == windows == binding == replayed == len(rows)
          and max_parallel == 16)
    report(9, ok, f"conserved {conserved}/1000, windows {windows}/1000, "
                  f"binding {binding}/1000, replay {replayed}/1000, "
                  f"max parallel={max_parallel}, honest forfeits={honest_hits}")
    assert ok
    # honest punishment is possible only through the rare under-threshold
    # seed split; it must stay a fringe event across a thousand runs
    assert honest_hits <= 10


def test_c10_settlement_rule_matrix():
    """Deterministic branch coverage of the reward/forfeit thresholds."""
    checks = []
    # strict majority seed rewarded, tiny minority forfeits
    mc, (a, b) = settle_with_seed_groups([8, 2])
    checks.append(("0.8 > th1 rewarded",
                   all(mc.nodes[n].balance == 60 for n in a)))
    checks.append(("0.2 < th2 forfeited",
                   all(mc.nodes[n].deposit == 0 for n in b)))
    # balanced split: nobody rewarded, nobody punished
    mc, (a, b) = settle_with_seed_groups([5, 5])
    checks.append(("split untouched",
                   all(mc.nodes[n].balance == 50 and mc.nodes[n].deposit == 100
                       for n in a + b)))
    # boundary equality is strict on both sides
    mc, (a, b) = settle_with_seed_groups([3, 1], th1=0.75, th2=0.25)
    checks.append(("== th1 not rewarded",
                   all(mc.nodes[n].balance == 50 for n in a)))
    checks.append(("== th2 not punished",
                   all(mc.nodes[n].deposit == 100 for n in b)))
    # three-way splits around the thresholds
    mc, (a, b, c) = settle_with_seed_groups([7, 2, 1])
    checks.append(("0.7 > th1 rewarded", all(mc.nodes[n].balance == 60 for n in a)))
    checks.append(("0.2 < th2 forfeited", all(mc.nodes[n].deposit == 0 for n in b + c)))
    mc, groups = settle_with_seed_groups([4, 3, 3])
    checks.append(("no group past either threshold",
                   all(mc.nodes[n].balance == 50 and mc.nodes[n].deposit == 100
                       for g in groups for n in g)))
    ok = all(c for _, c in checks)
    report(10, ok, "; ".join(name for name, _ in checks))
    assert ok, [name for name, c in checks if not c]


def test_c11_utility_model_grid():
    """1e4 random parameter points: closed-form condition vs direct sign,
    plus the exact collusion slack in the certain-majority case."""
    rows = experiments.utility_surface_rows(10_000, SEED)
    disagreements = [r for r in rows if not r["agrees"]]
    rng = np.random.default_rng(int.from_bytes(sha256(SEED, b"c11"), "big"))
    eps_ok = True
    for _ in range(1000):
        c1 = float(rng.uniform(0, 50))
        c3 = float(rng.uniform(0, 80))
        p = adversary.UtilityParams(reward=100.0, deposit=50.0, beta=1e-6,
                                    gamma1=1.0, gamma2=0.0, c1=c1, c3=c3)
        _, eps = adversary.utility_collude(p)
        eps_ok &= eps == c3 - c1
    ok = not disagreements and eps_ok
    report(11, ok, f"disagreements={len(disagreements)}/10000, "
                   f"epsilon exact={eps_ok}")
    assert ok


def test_c12_subarray_composability():
    """1e3 random (program, split) pairs: chained subarray runs equal the
    one-shot run byte-exactly."""
    rng = random.Random(int.from_bytes(sha256(SEED, b"c12"), "big"))
    pairs = 1000
    good = 0
    for trial in range(pairs):
        program = random_program(rng)
        state = CicState(sha256(b"c12", be8(trial)), program.code_id)
        full, total = run_full(program, state)
        cursor = program.start(state)
        t_i = 1
        if total > 2 and rng.random() < 0.5:
            cuts = sorted(rng.sample(range(1, total), min(3, total - 1)))
        else:
            cuts = [rng.randint(1, max(total - 1, 1))]
        for cut in cuts:
            cursor, last = run_sub(program, cursor, t_i, cut)
            t_i = last + 1
            if cursor.halted:
                break
        if not cursor.halted:
            cursor, last = run_sub(program, cursor, t_i, total)
        good += (cursor.halted and last == total and cursor.state == full
                 and cursor.state.root() == full.root())
    ok = good == pairs
    report(12, ok, f"byte-exact chains: {good}/{pairs}")
    assert ok
