"""Schedule arithmetic, seed chains, digests, and the appendix-style bounds."""

import collections
import hashlib
import itertools
import math
import random
import types

import numpy as np
import pytest
from scipy.stats import binomtest

from cicsim import hashing, merkle_state, rice
from cicsim.hashing import be8, sha256, to_word
from cicsim.merkle_state import CicState
from cicsim.experiments import SyntheticRunner, rice_overhead_rows
from cicsim.rice import (Digest, RiceTrace, check_phi_bounds, check_total_exponent,
                         exponent_of_total, group_end, init_seed, phi_bounds,
                         rice_execute_traced, strong_unmatched)
from cicsim.toy_vm import (ComputeModel, assemble, compute_data, compute_length,
                           compute_program, run_full)

from oracles import (merkle_root_oracle, oracle_state_after, rice_round_oracle,
                     run_program_oracle, schedule_tail_miss, schedule_tail_supremum,
                     segment_table_oracle, strong_unmatched_tail_bound, tree_rehash_count)
from test_acceptance import SEED as ACCEPTANCE_SEED


def test_schedule_oracle_prefix_and_group_ends():
    # the oracle table the driver is held to: hand-derived first segments,
    # and each exponent group ending where `group_end` says
    table = segment_table_oracle(10 ** 6)
    assert table[:8] == [(1, 1), (3, 2), (7, 2), (11, 3), (19, 3), (27, 3), (35, 4), (51, 4)]
    for (start, k), (_, next_k) in zip(table, table[1:]):
        if next_k != k:
            assert start + 2 ** k - 1 == group_end(k)


def test_group_containment_of_totals():
    # brute walk of the oracle table vs the closed-form group classifier
    for total in [1, 2, 3, 10, 11, 34, 35, 60, 98, 99, 1000, 54321]:
        k = exponent_of_total(total)
        assert group_end(k - 1) < total <= group_end(k)


def test_seed_initialization_chain():
    entropy = sha256(b"round-1-entropy")
    assert init_seed(1, entropy) == entropy
    assert init_seed(2, entropy) == hashlib.sha256(entropy).digest()
    expected = entropy
    for _ in range(3):
        expected = hashlib.sha256(expected).digest()
    assert init_seed(4, entropy) == expected


def _interpreter_run(program, state, data):
    """(total, root_at) of a plain run, from the stepping oracle and the
    recursive Merkle builder."""
    instructions, entry = program.instructions, program.entry()
    _, total = run_program_oracle(instructions, entry, state.storage, data)

    def root_at(t):
        store = oracle_state_after(instructions, entry, state.storage, data, t)[2]
        return merkle_root_oracle(state.cid, state.code, store)
    return total, root_at


@pytest.mark.parametrize("round_index", [1, 2, 3])
def test_rice_rounds_match_the_schedule_oracle(round_index):
    entropy = sha256(b"oracle-entropy")
    program = compute_program(key=7)
    state = CicState(sha256(b"oracle-cic"), program.code_id).put(7, 40)
    data = compute_data(30)
    total, root_at = _interpreter_run(program, state, data)
    runner = SyntheticRunner(5000, sha256(b"oracle-salt"))
    cases = [(program, state, data, total, root_at),
             (ComputeModel(key=7), state, data, total, root_at),
             (runner, None, b"", runner.total, runner.root_at)]
    for substrate, st, dt, t, roots in cases:
        digest, trace = rice_execute_traced(substrate, st, dt, round_index, entropy)
        seed, root, updates = rice_round_oracle(t, roots, round_index, entropy)
        assert trace.total == t
        assert list(trace.update_indices) == updates
        assert (digest.seed, digest.root.value) == (seed, root)
        assert trace.digest == digest and trace.round_index == round_index
        assert updates  # every case runs past several segments


def test_the_driver_walks_the_schedule_across_many_groups():
    # a synthetic round long enough to reach exponent 12: every update index
    # the driver's walk picks is the oracle table's
    runner = SyntheticRunner(60_000, sha256(b"long-salt"))
    entropy = sha256(b"long-entropy")
    for round_index in (1, 2):
        digest, trace = rice_execute_traced(runner, None, b"", round_index, entropy)
        seed, root, updates = rice_round_oracle(runner.total, runner.root_at,
                                                round_index, entropy)
        assert list(trace.update_indices) == updates
        assert (digest.seed, digest.root.value, trace.total) == (seed, root, runner.total)
        assert exponent_of_total(updates[-1]) == 12


def test_one_model_across_pre_states_reads_as_a_fresh_model_and_the_interpreter():
    # one ComputeModel runs rounds over A, A, B, A' and A, where A' equals A but
    # is another object, with two iteration counts on A: its table of roots by
    # counter value must serve each round as a fresh model and the interpreter do
    entropy = sha256(b"table-entropy")
    model, program = ComputeModel(key=7), compute_program(key=7)
    a = CicState(sha256(b"table-cic"), model.code_id).put(7, 40)
    b, a_again = a.put(7, 41), CicState(sha256(b"table-cic"), model.code_id).put(7, 40)
    assert a_again == a and a_again is not a
    runs = [(a, 30, 1), (a, 50, 2), (b, 30, 3), (a_again, 30, 4), (a, 30, 2)]
    for state, eta, round_index in runs:
        shared = rice_execute_traced(model, state, compute_data(eta), round_index, entropy)
        fresh = rice_execute_traced(ComputeModel(key=7), state, compute_data(eta),
                                    round_index, entropy)
        interpreted = rice_execute_traced(program, state, compute_data(eta), round_index, entropy)
        assert shared == fresh == interpreted
        assert shared[1].update_indices


def test_a_closed_form_round_hashes_twice_per_distinct_counter_value(monkeypatch):
    # one ComputeModel round on a one-key state whose root is already known:
    # the cursor never builds a tree from scratch, and it hashes a root once
    # per distinct nonzero counter value its updates and halt reach (pinned)
    model = ComputeModel(key=7)
    state = CicState(sha256(b"count-cic"), model.code_id).put(7, 40)
    entropy, data = sha256(b"count"), compute_data(5_000)
    state.root()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(hashing, "hashlib",
                        types.SimpleNamespace(sha256=counted("sha256", hashlib.sha256)))
    monkeypatch.setattr(merkle_state, "storage_root",
                        counted("storage_root", merkle_state.storage_root))
    _, trace = rice_execute_traced(model, state, data, 2, entropy)
    monkeypatch.undo()
    assert trace.total == compute_length(5_000) and trace.phi == 61
    assert calls["storage_root"] == 0
    # one to start round 2's seed, one per update, and two per distinct
    # nonzero counter value (the counter's leaf, then cid and code): the 59
    # updates after the first store and the final root reach 59 of them, as
    # two updates fall within one 6-instruction iteration
    counters = [min(max(t - 1, 0) // 6, 5_000) for t in (*trace.update_indices, trace.total)]
    assert sum(map(bool, counters)) == 60 and len(set(counters) - {0}) == 59
    assert calls["sha256"] == 1 + 61 + 2 * 59


# r8 = key count, r9 = first key, r10 = increment: `update` adds the
# increment to each present key's value, `insert` stores key + increment at
# each new key; both walk ascending keys
KEYED_LOOP = """
func {name}
  mov r0 r8
  mov r1 r9
  mov r5 r10
  const r3 1
loop:
  jnz r0 body
  halt
body:
  {body}
  store r1 r2
  add r1 r1 r3
  sub r0 r0 r3
  jmp loop
"""
BASE = 7 << 200


@pytest.mark.parametrize("name, body, count, present", [
    # 60 present keys, each rewritten once
    ("update", "load r2 r1\n  add r2 r2 r5", 60, range(BASE, BASE + 60)),
    # 300 new keys, 4 present keys below the run and 4 above it
    ("insert", "add r2 r1 r5", 300,
     [*range(BASE - 40, BASE, 10), *range(BASE + 500, BASE + 540, 10)]),
    # the same run over 8 present keys, each rewritten as the run reaches it
    ("insert", "add r2 r1 r5", 300, range(BASE + 5, BASE + 300, 37)),
], ids=["update", "insert", "insert-over-present"])
def test_an_interpreter_round_hashes_what_its_roots_flush(monkeypatch, name, body, count, present):
    # with the pre-state's tree built, a round's `merkle_state` hashes are,
    # summed over its roots (each update and the halt), `tree_rehash_count`
    # of the batch of keys whose word the stepping oracle changed since the
    # previous root (here every store changes one), plus one for
    # `state_root`'s sha256(cid || code || storage root)
    program = assemble(KEYED_LOOP.format(name=name, body=body))
    state = CicState(sha256(b"flush-cic"), program.code_id,
                     {to_word(k): to_word(k % 997) for k in present})
    data = to_word(count) + to_word(BASE) + to_word(3)
    state.working_copy()
    calls = []

    def counted(*parts):
        calls.append(parts)
        return sha256(*parts)
    monkeypatch.setattr(merkle_state, "sha256", counted)
    digest, trace = rice_execute_traced(program, state, data, 1, sha256(b"flush"))
    monkeypatch.undo()
    expected, before = 0, state.storage
    for t in (*trace.update_indices, trace.total):
        after = oracle_state_after(program.instructions, program.entry(), state.storage, data, t)[2]
        keys = sorted(after)
        batch = [i for i, k in enumerate(keys) if before.get(k) != after[k]]
        fresh = [i for i, k in enumerate(keys) if k not in before]
        expected += tree_rehash_count(len(keys), batch, min(fresh, default=len(keys))) + 1
        before = after
    assert digest.root.value == merkle_root_oracle(state.cid, state.code, before)
    assert len(after) == len({*present, *range(BASE, BASE + count)})
    assert trace.phi > 10 and len(calls) == expected


def test_trivial_program_has_zero_updates():
    program = assemble("func main\n  halt\n")
    state = CicState(1, program.code_id)
    _, trace = rice_execute_traced(program, state, b"", 1, sha256(b"e"))
    assert trace.total == 1
    assert trace.phi == 0
    assert trace.digest.seed == init_seed(1, sha256(b"e"))
    assert trace.digest.root == state.root()


def test_rounds_share_roots_but_not_seeds():
    model = ComputeModel()
    state = CicState(2, model.code_id)
    entropy = sha256(b"shared-entropy")
    d1, _ = rice_execute_traced(model, state, compute_data(40), 1, entropy)
    d2, _ = rice_execute_traced(model, state, compute_data(40), 2, entropy)
    assert d1.root == d2.root
    assert d1.seed != d2.seed
    # determinism: identical inputs give a bit-identical digest
    assert rice_execute_traced(model, state, compute_data(40), 1, entropy)[0] == d1


def test_digest_matches_plain_execution_root():
    program = compute_program()
    state = CicState(3, program.code_id)
    final, _ = run_full(program, state, compute_data(25))
    digest, _ = rice_execute_traced(program, state, compute_data(25), 1, sha256(b"x"))
    assert digest.root == final.root()


def test_phi_band_for_a_run_ending_in_the_fourth_group():
    # T = 60 sits in (34, 98]; the update count must land in (6, 10]
    eta = (60 - 5) // 6  # closest benchmark length: T = 59
    model = ComputeModel()
    state = CicState(4, model.code_id)
    for salt in range(20):
        _, trace = rice_execute_traced(model, state, compute_data(eta), 1,
                                       sha256(b"band", to_word(salt)))
        assert 6 < trace.phi <= 10
        assert check_phi_bounds(trace)


def test_schedule_bounds_hold_on_vm_and_model_runs():
    rng = random.Random(5)
    model = ComputeModel()
    for trial in range(60):
        eta = rng.randint(1, 4000)
        state = CicState(trial, model.code_id)
        _, trace = rice_execute_traced(model, state, compute_data(eta), 1,
                                       sha256(b"t", to_word(trial)))
        assert trace.total == 6 * eta + 5
        assert check_phi_bounds(trace), trace
        assert check_total_exponent(trace)
        lo, hi = phi_bounds(trace)
        assert lo < trace.phi <= hi


@pytest.mark.parametrize("k, lo, hi", [(2, 1, 3), (3, 3, 6), (5, 10, 15)])
def test_phi_check_refuses_update_counts_outside_the_band(k, lo, hi):
    """Hand-built traces whose last update ends group k: the band (lo, hi]
    admits its top and refuses its bottom and one past its top; a trace
    with no updates passes only if it ran at most 2 instructions."""
    end = group_end(k)
    digest = Digest(seed=bytes(32), root=merkle_state.MerkleRoot(bytes(32)))

    def trace(phi, total=end):
        return RiceTrace(1, total, tuple(range(end - phi + 1, end + 1)), digest)

    assert [check_phi_bounds(trace(phi)) for phi in (lo, hi, hi + 1)] == [False, True, False]
    assert check_phi_bounds(trace(0, total=2)) and not check_phi_bounds(trace(0, total=3))


def _wrong_group_end(change):
    return lambda k: 0 if k < 1 else change(k)


@pytest.mark.parametrize("wrong", [
    _wrong_group_end(lambda k: (k - 1) * 2 ** (k + 1) + 3),     # one past each group's end
    _wrong_group_end(lambda k: (k - 1) * 2 ** (k + 1) + 1),     # one short of it
    _wrong_group_end(lambda k: (k - 1) * 2 ** k + 2),           # groups half as long
    _wrong_group_end(lambda k: k * 2 ** (k + 1) + 2),           # a group too many
], ids=["one-past", "one-short", "half", "shifted"])
def test_total_exponent_check_reads_false_under_a_wrong_group_end(monkeypatch, wrong):
    """Against the schedule `rice_execute_traced` walks, every T reads True, each group's last
    index and the next one up to k = 20 included; a wrong `group_end` patched into
    `rice` moves `exponent_of_total` off the walk, and some T reads False."""
    digest = Digest(seed=bytes(32), root=merkle_state.MerkleRoot(bytes(32)))
    edges = [group_end(k) + step for k in range(1, 21) for step in (0, 1)]
    traces = [RiceTrace(1, total, (), digest) for total in [*range(1, 3000), *edges]]
    assert all(map(check_total_exponent, traces))
    monkeypatch.setattr(rice, "group_end", wrong)
    assert not all(map(check_total_exponent, traces))


def test_single_round_report_is_vacuously_strong():
    model = ComputeModel()
    state = CicState(5, model.code_id)
    _, trace = rice_execute_traced(model, state, compute_data(100), 1, sha256(b"s"))
    assert strong_unmatched([trace]) == [trace.phi]


def test_strong_unmatched_across_rounds():
    model = ComputeModel()
    state = CicState(6, model.code_id)
    entropy = sha256(b"multi-round")
    traces = [rice_execute_traced(model, state, compute_data(300), j, entropy)[1]
              for j in (1, 2, 3)]
    counts = strong_unmatched(traces)
    first, second, third = (set(t.update_indices) for t in traces)
    assert counts[0] == traces[0].phi
    assert counts[1] == len(second - first)
    assert counts[1] >= 1
    assert counts[2] == len(third - first - second)


def test_mismatched_totals_are_rejected():
    model = ComputeModel()
    state = CicState(7, model.code_id)
    t1 = rice_execute_traced(model, state, compute_data(10), 1, sha256(b"a"))[1]
    t2 = rice_execute_traced(model, state, compute_data(11), 2, sha256(b"a"))[1]
    with pytest.raises(ValueError):
        strong_unmatched([t1, t2])


def test_tail_bound_is_a_valid_probability_and_monotone():
    values = [strong_unmatched_tail_bound(10, 2, 3, x) for x in range(0, 30)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_empirical_unmatched_tail_dominates_the_binomial_bound():
    # second-round strong-unmatched counts at terminal k=10 must sit above
    # the binomial lower bound for every cutoff and admissible b2
    from cicsim.experiments import rice_unmatched_rows

    rows = rice_unmatched_rows(k=10, trials=400, rounds=2, seed=sha256(b"dom"))
    xs = sorted(r["strong_unmatched"] for r in rows)
    n = len(xs)
    for b2 in (2, 3, 4):
        for x in range(1, 45, 4):
            empirical = sum(v >= x for v in xs) / n
            bound = strong_unmatched_tail_bound(10, 2, b2, x)
            # allow three-sigma Monte Carlo slack on the empirical side
            slack = 3 * (bound * (1 - bound) / n) ** 0.5
            assert empirical >= bound - slack - 1e-9, (b2, x, empirical, bound)


# --- the last-update tail: c07's 3/(4 log2 T) sub-check against its exact law ---

def _tail_outcomes(total: int):
    """Every t_last of a run of `total` instructions (None for no update),
    one per combination of all its segments' offsets, by walking them."""
    table = segment_table_oracle(total)
    for offsets in itertools.product(*[range(2 ** k) for _, k in table]):
        updates = [start + u for (start, _), u in zip(table, offsets) if start + u < total]
        yield updates[-1] if updates else None


def _misses(total: int, t_last) -> bool:
    # c07's rule: a run passes iff (T - t_last)/T < 3/(4 log2 T) in floats
    return t_last is None or not (total - t_last) / total < 3.0 / (4.0 * math.log2(total))


@pytest.mark.parametrize("total", range(3, 27))
def test_schedule_tail_law_over_every_offset_outcome(total):
    outcomes = list(_tail_outcomes(total))
    assert schedule_tail_miss(total) * len(outcomes) == sum(
        _misses(total, t) for t in outcomes)
    worst = max((total - t) / total * math.log2(total) for t in outcomes if t is not None)
    assert schedule_tail_supremum(total, total) == (worst, total)


def test_schedule_tail_supremum_on_c07s_range():
    """The largest (T - t_last)/T * log2 T over T in [1e3, 1e7]: T = 2,050,
    the last T of the second exponent-8 segment, its update not reached and
    the previous one at offset 0; 3.66 times the 3/4 of c07's bound."""
    value, total = schedule_tail_supremum(1_000, 10_000_000)
    assert total == 2050
    assert value == pytest.approx(511 / 2050 * math.log2(2050), rel=1e-15)
    assert value == pytest.approx(2.742302237724, rel=1e-12)
    # a range's supremum is the largest of its parts'
    parts = [schedule_tail_supremum(lo, hi) for lo, hi in
             ((1_000, 2_049), (2_050, 2_050), (2_051, 10_000_000))]
    assert max(parts) == (value, total)


@pytest.mark.parametrize("total", [10, 37, 1_500, 9_218, 50_000, 700_000])
def test_schedule_tail_law_against_synthetic_runs(total):
    """Misses of the last-update sub-check over synthetic runs of one length,
    against the exact law at level 1e-4. At T = 10 the law is 1/2; an
    update allowed at index T itself would make it 1/4."""
    runs = 1_500
    misses = 0
    for i in range(runs):
        runner = SyntheticRunner(total, sha256(b"tail-salt", be8(i)))
        _, trace = rice_execute_traced(runner, None, b"", 1, sha256(b"tail-entropy", be8(i)))
        t_last = trace.update_indices[-1] if trace.update_indices else None
        misses += _misses(total, t_last)
    assert binomtest(misses, runs, float(schedule_tail_miss(total))).pvalue > 1e-4


def test_c07_misses_match_the_exact_law_of_its_corpus():
    """c07's corpus, redrawn: its last-fraction miss count is a sum of
    independent Bernoulli(schedule_tail_miss(T)) over the runs' lengths, so
    its exact Poisson-binomial law must not put it in a 1e-4 tail."""
    rows = rice_overhead_rows(1000, 1_000, 10_000_000, ACCEPTANCE_SEED)
    observed = sum(not r["last_fraction_ok"] for r in rows)
    law = np.ones(1)
    for row in rows:
        p = float(schedule_tail_miss(row["total"]))
        law = np.convolve(law, [1.0 - p, p])
    mean = float(np.dot(np.arange(law.size), law))
    assert 300 < mean < 380 and observed == 331
    assert law[:observed + 1].sum() > 0.5e-4 and law[observed:].sum() > 0.5e-4


def test_invalid_arguments():
    with pytest.raises(ValueError):
        init_seed(0, sha256(b"e"))
    for round_index in (1, 2):
        with pytest.raises(ValueError, match="entropy"):
            init_seed(round_index, bytes(31))
    with pytest.raises(ValueError):
        strong_unmatched_tail_bound(5, 2, 9, 1)
