"""Harness plumbing: determinism, CSV artifacts, CLI, log replay."""

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import cicsim
from cicsim import cli, experiments, miracle, protocol, randomness, toy_vm
from cicsim.hashing import sha256
from cicsim.merkle_state import CicState

from oracles import canonical_line, walk_first_passage

SEED = sha256(b"experiments-tests")


def test_spec_validation():
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="nonsense")
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="es_sizing", seed="zz")
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="es_sizing", trials=0)
    # a bool or a float is no trial count, and a seed is its hex text
    for bad, message in ((dict(trials=True), "positive int"), (dict(trials=2.5), "positive int"),
                         (dict(seed=5), "seed must be hex")):
        with pytest.raises(experiments.ConfigError, match=message):
            experiments.ExperimentSpec(kind="utility_surface", **bad)
    spec = experiments.ExperimentSpec(kind="es_sizing", seed="ab" * 32)
    assert len(spec.spec_hash()) == 64


def test_vectorized_engine_agrees_with_the_scalar_engine():
    """The numpy fast path and the per-round table engine describe the same
    process: their mean round counts agree within Monte Carlo error."""
    params = miracle.ConsensusParams(m_total=400, f_max=0.4, q=0.125, beta=1e-4)
    trials = 1500
    rng = np.random.default_rng(7)
    rounds_vec, wrong_vec, _, _ = experiments.simulate_two_root(
        params, 0.4, trials, rng)

    rng2 = np.random.default_rng(8)
    correct, incorrect = sha256(b"good"), sha256(b"bad")
    rounds_eng = np.empty(trials)
    for t in range(trials):
        table = miracle.LikelihoodTable()
        for round_index in range(1, 101):
            nh = int(rng2.binomial(240, params.q))
            nb = int(rng2.binomial(160, params.q))
            table = miracle.update_likelihoods(
                table, miracle.RoundTally(round_index,
                                          {correct: nh, incorrect: nb}))
            if miracle.step(table, params) is not None:
                rounds_eng[t] = round_index
                break
    se = (rounds_vec.std(ddof=1) ** 2 / trials
          + rounds_eng.std(ddof=1) ** 2 / trials) ** 0.5
    assert abs(rounds_vec.mean() - rounds_eng.mean()) < 4 * se + 0.05


def test_monte_carlo_refuses_a_pool_whose_walk_could_overflow_int64():
    """An undecided walk lies within the threshold and a round moves it by at
    most M**2, so the walk stays in int64 while M**2 + |threshold| < 2**63: at
    q = 0.125, f_max = 0.4 and beta = 1e-6 up to M = 3,037,000,498. One more
    node is refused, as is any pool that would wrap the walk (at M = 3e10 and
    no Byzantine node it read p_wrong 1)."""
    def params(m):
        return miracle.ConsensusParams(m_total=m, f_max=0.4, q=0.125, beta=1e-6)
    largest = 3_037_000_498
    # the walk's largest value, in exact integers: M**2 past the threshold's floor
    assert [m ** 2 + math.floor(miracle.threshold(params(m))) < 2 ** 63
            for m in (largest, largest + 1)] == [True, False]
    rounds, wrong, _, unconverged = experiments.simulate_two_root(
        params(largest), 0.0, 20, np.random.default_rng(1))
    assert rounds.tolist() == [1] * 20 and not wrong.any() and not unconverged.any()
    for m in (largest + 1, 3 * 10 ** 10):
        with pytest.raises(miracle.DegenerateParams, match="overflows the int64 walk"):
            experiments.simulate_two_root(params(m), 0.0, 20, np.random.default_rng(1))


def test_protocol_round_counts_match_the_consensus_monte_carlo():
    """Cross-layer agreement: the rounds to a decision of full protocol runs
    and of `simulate_two_root` at one operating point (M=40, q=0.3,
    f_max=0.4, beta=1e-3, 14 `byz_single` nodes pooling on one wrong root).
    Two-sample KS test at level 1e-3: over independent seeds a faithful
    protocol fails it at most 0.1% of the time (less, as KS is conservative
    on discrete counts). The seeds are fixed, so the outcome never flakes."""
    params = miracle.ConsensusParams(m_total=40, f_max=0.4, q=0.3, beta=1e-3)
    mc_rounds, _, _, _ = experiments.simulate_two_root(
        params, 14 / 40, 20_000, np.random.default_rng(11))
    run_rounds = []
    for i in range(400):
        result = protocol.run_scenario(protocol.Scenario(
            seed=sha256(SEED, b"cross-layer", bytes([i >> 8, i & 255])).hex(),
            m_total=40, q=0.3, f_max=0.4, beta=1e-3,
            strategies=(("honest", 26), ("byz_single", 14))))
        run_rounds.append(sum(e["type"] == "round_closed" for e in result.events))
    assert scipy.stats.ks_2samp(run_rounds, mc_rounds).pvalue > 1e-3


@functools.lru_cache(maxsize=None)
def exact_round_law(m, q, f_max, beta, f):
    """The walk oracle's law of `simulate_two_root`'s outputs: P(rounds = k)
    for k = 1..MC_MAX_ROUNDS, with undecided trials at the cap, and P(wrong)."""
    cap = experiments.MC_MAX_ROUNDS
    p_right, p_wrong, undecided = walk_first_passage(m, q, f_max, beta, f, max_rounds=cap)
    law = np.zeros(cap)
    law[:p_right.size] = p_right + p_wrong
    law[-1] += undecided
    return law, float(p_wrong.sum())


def bins_of_at_least(expected, least=5.0):
    """Starts of contiguous round bins holding `least` expected trials or more
    each; a tail short of that joins the bin before it."""
    starts, held = [0], 0.0
    for k, e in enumerate(expected[:-1]):
        held += e
        if held >= least:
            starts.append(k + 1)
            held = 0.0
    if held + expected[-1] < least and len(starts) > 1:
        starts.pop()
    return starts


@pytest.mark.parametrize("m,q,f_max,beta,f,seed", [
    (1600, 0.125, 0.40, 1e-10, 0.40, 1),    # criterion 1's three points
    (1600, 0.125, 0.45, 1e-10, 0.45, 2),
    (1600, 0.125, 0.45, 1e-6, 0.45, 3),
    (60, 0.2, 0.40, 1e-3, 0.0, 4),          # small, no Byzantine node
    (40, 0.3, 0.40, 0.05, 0.40, 5),         # small, the wrong root often wins
])
def test_monte_carlo_matches_the_exact_walk(m, q, f_max, beta, f, seed):
    """`simulate_two_root` against the walk oracle's exact first-passage law:
    a chi-square test on the round-count pmf (bins of at least 5 expected
    trials) and an exact binomial test on the wrong decisions, each at level
    1e-4. Over independent seeds a faithful simulator fails one of the ten
    tests at most 0.1% of the time; the seeds are fixed, so the outcome
    never flakes."""
    trials = 20_000
    law, p_wrong = exact_round_law(m, q, f_max, beta, f)
    rounds, wrong, _, _ = experiments.simulate_two_root(
        miracle.ConsensusParams(m, f_max, q, beta), f, trials, np.random.default_rng(seed))
    starts = bins_of_at_least(law * trials)
    assert len(starts) >= 2
    observed = np.add.reduceat(np.bincount(rounds - 1, minlength=law.size), starts)
    expected = np.add.reduceat(law, starts) * trials
    assert scipy.stats.chisquare(observed, expected).pvalue > 1e-4
    test = scipy.stats.binomtest(int(wrong.sum()), trials, min(max(p_wrong, 0.0), 1.0))
    assert test.pvalue > 1e-4


@pytest.mark.parametrize("f_max,beta,q,mean", [
    (0.40, 1e-10, 0.125, "1.7778"), (0.45, 1e-10, 0.125, "5.6690"),
    (0.45, 1e-6, 0.125, "3.6825"),
    # the README's model figure at f = f_max = 0.30
    (0.30, 1e-10, 0.125, "1.0000078"), (0.30, 1e-6, 0.125, "1.0000002"),
    # `solve_q_for_expected_rounds(1600, f_max, 1e-20, 5)` returns these q:
    # the Wald/Gaussian approximation's five rounds are ~3.8 and ~3.3 exact
    (0.35, 1e-20, 0.04232, "3.847"), (0.45, 1e-20, 0.3410, "3.315")])
def test_exact_walk_mean_rounds(f_max, beta, q, mean):
    """Exact mean rounds at f = f_max, M=1600, to the digits given."""
    law, _ = exact_round_law(1600, q, f_max, beta, f_max)
    exact = float((np.arange(1, law.size + 1) * law).sum())
    assert f"{exact:.{len(mean) - 2}f}" == mean


def test_sweep_rows_are_deterministic():
    kw = dict(m=200, q=0.2, betas=[1e-3], f_values=[0.2, 0.3],
              trials=300, seed=SEED)
    assert experiments.miracle_sweep_rows(**kw) == experiments.miracle_sweep_rows(**kw)


def test_csv_artifact_shape_and_determinism(tmp_path):
    spec = experiments.ExperimentSpec(
        kind="es_sizing", params={"m": 1600, "beta": 1e-20}, trials=1, seed="cd" * 32)
    argv = ["es-sizing", "--m", "1600", "--beta", "1e-20", "--trials", "1",
            "--seed", "cd" * 32, "--out", str(tmp_path / "a.csv")]
    assert cli.main(argv) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "a.csv").read_bytes() == first
    text = first.decode()
    assert text.startswith("# ")
    assert f"spec={spec.spec_hash()}" in text.splitlines()[0]
    header = text.splitlines()[1].split(",")
    assert header[0] == "f_max" and "ns1_size" in header


def test_rice_overhead_rows_and_fit():
    rows = experiments.rice_overhead_rows(80, 1000, 200_000, SEED)
    assert all(r["phi_bounds_ok"] for r in rows)
    assert all(r["k_relation_ok"] for r in rows)
    a, b, r2 = experiments.fit_phi_vs_log2_squared(rows)
    assert 0.2 < a < 0.45
    assert r2 > 0.9


def test_rice_unmatched_rows():
    rows = experiments.rice_unmatched_rows(k=9, trials=40, rounds=2, seed=SEED)
    assert all(r["k_of_total"] == 9 for r in rows)
    assert all(r["strong_unmatched"] <= r["phi"] for r in rows)
    assert all(r["strong_unmatched"] >= 3 for r in rows)  # sqrt(9), generously


def test_rice_unmatched_needs_a_segment_exponent_and_a_round_count_of_two_or_more():
    # exponent 1 holds only T = 1 and 2, and the rows draw T from 3 up; each row
    # counts a round's strong-unmatched updates against the round before
    for name, value in [("k", 1), ("k", 0), ("k", -3),
                        ("rounds", 1), ("rounds", 0), ("rounds", -2)]:
        spec = experiments.ExperimentSpec(kind="rice_unmatched", params={name: value}, trials=3)
        with pytest.raises(experiments.ConfigError, match=f"{name} >= 2"):
            experiments.run(spec)
    assert experiments.rice_unmatched_rows(3, SEED, 2, 2)


def test_protocol_batch_and_audit():
    rows = experiments.protocol_batch_rows(6, SEED, max_parallel=4)
    for row in rows:
        assert row["conserved"]
        assert row["window_discipline"]
        assert row["reveal_binding"]
        assert row["replay_identical"]


def test_audit_catches_forged_binding():
    scenario = experiments.random_scenario(0, SEED, max_parallel=2)
    result = protocol.run_scenario(scenario)
    events = [dict(e) for e in result.events]
    for event in events:
        if event["type"] == "reveal":
            event["seed"] = "00" * 32
            break
    audit = experiments.audit_event_log(events)
    assert not audit["reveal_binding"]


def test_audit_catches_window_breaches_inside_their_round():
    """Two edits that keep each event inside its round: a commit one block
    past its commit window, and a node's round-r reveal re-sent in its
    round-(r+1) reveal's block, whose round number is then stale though it
    still opens its commitment. Each breaks window discipline, not binding."""
    scenario = experiments.random_scenario(0, SEED, max_parallel=2)
    events = [dict(e) for e in protocol.run_scenario(scenario).events]
    assert experiments.audit_event_log(events) == {"window_discipline": True,
                                                   "reveal_binding": True}
    late, windows = [dict(e) for e in events], {}
    for event in late:
        if event["type"] == "round_started":
            windows[event["cid"]] = event
        elif event["type"] == "commit":
            window = windows[event["cid"]]
            event["block"] = window["commit_close"] + 1
            assert event["block"] <= window["reveal_close"]
            break
    stale, reveals = [dict(e) for e in events], {}
    for index, event in enumerate(stale):
        if event["type"] == "reveal":
            earlier = reveals.get((event["cid"], event["node"], event["round"] - 1))
            if earlier is not None:
                stale[index] = dict(earlier, block=event["block"])
                break
            reveals[(event["cid"], event["node"], event["round"])] = event
    else:
        raise AssertionError("no node revealed in two consecutive rounds")
    for edited in (late, stale):
        assert experiments.audit_event_log(edited) == {"window_discipline": False,
                                                       "reveal_binding": True}


def test_utility_surface_agrees_everywhere():
    rows = experiments.utility_surface_rows(500, SEED)
    assert all(r["agrees"] for r in rows)


def test_event_log_file_round_trip_and_replay(tmp_path):
    scenario = experiments.random_scenario(3, SEED, max_parallel=2)
    result = protocol.run_scenario(scenario)
    path = tmp_path / "run.jsonl"
    experiments.write_event_log(str(path), result)
    report = experiments.replay(str(path))
    assert report["identical"]
    assert report["version_match"]
    # flip one byte inside a commitment: replay must pinpoint the event
    lines = path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if '"type":"commit"' in l)
    lines[idx] = lines[idx].replace('"se":"', '"se":"ff', 1)
    path.write_text("\n".join(lines) + "\n")
    report = experiments.replay(str(path))
    assert not report["identical"]
    assert report["first_divergence"] == idx - 1
    assert report["recorded_line"] == lines[idx]
    assert report["replayed_line"] == result.lines[idx - 1]
    assert report["event_type"] == "commit"
    assert report["field"] == "se"
    assert report["recorded_value"] == "ff" + report["replayed_value"]


def test_cli_es_sizing_stdout(capsys):
    code = cli.main(["es-sizing", "--m", "1600", "--beta", "1e-20"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# ")
    assert "ns1_size" in out


def test_cli_rice_trace(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = cli.main(["rice-trace", "--eta", "50", "--rounds", "2",
                     "--seed", "ee" * 32, "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["total"] == lines[1]["total"] == 6 * 50 + 5
    assert lines[0]["root"] == lines[1]["root"]
    assert lines[0]["seed"] != lines[1]["seed"]


def test_cli_protocol_scenario_and_replay(tmp_path, capsys):
    scenario = experiments.random_scenario(5, SEED, max_parallel=2)
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(scenario.to_json())
    log_path = tmp_path / "log.jsonl"
    code = cli.main(["protocol-run", "--scenario", str(scen_path),
                     "--log", str(log_path)])
    assert code == 0
    assert cli.main(["replay", str(log_path)]) == 0
    lines = log_path.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if '"type":"reveal"' in l)
    lines[idx] = lines[idx].replace('"seed":"', '"seed":"ff', 1)
    log_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["replay", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("divergence: ")
    report = json.loads(err[len("divergence: "):])
    assert report["first_divergence"] == idx - 1
    assert report["recorded_line"] == lines[idx]
    assert report["event_type"] == "reveal"
    assert report["field"] == "seed"
    assert report["recorded_value"] == "ff" + report["replayed_value"]


def _python(code: str, *args: str, **env: str) -> str:
    """The stdout of `python -c code *args` in a fresh process that imports this
    checkout's cicsim, with `env` added to the environment; it must exit 0."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_loads_numpy_only_for_a_monte_carlo(tmp_path):
    """A scenario run, its replay, a RICE trace, set sizing and a protocol
    batch run through `cli.main` with numpy unloaded; a consensus sweep then
    loads it, which shows that the probe can fail."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(experiments.random_scenario(5, SEED, max_parallel=2).to_json())
    log, out = str(tmp_path / "log.jsonl"), str(tmp_path / "out.csv")
    runs = [["protocol-run", "--scenario", str(scenario), "--log", log], ["replay", log],
            ["rice-trace", "--eta", "50", "--out", out], ["es-sizing", "--out", out],
            ["protocol-run", "--trials", "2", "--out", out],
            ["miracle-mc", "--trials", "10", "--out", out]]
    code = ("import json, sys; from cicsim import cli; loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps(loaded))")
    stdout = _python(code, json.dumps(runs))
    assert json.loads(stdout.splitlines()[-1]) == [False] * 5 + [True]


def test_batch_rows_and_event_lines_do_not_depend_on_the_hash_seed():
    """A protocol batch's rows and every event line of its runs hash the same
    in two processes under different `PYTHONHASHSEED`s, which the processes'
    own `hash` of a string shows took effect."""
    code = ("import hashlib, json; from cicsim import experiments, protocol\n"
            "seed, digest = bytes(32), hashlib.sha256()\n"
            "rows = experiments.protocol_batch_rows(20, seed, max_parallel=4)\n"
            "digest.update(json.dumps(rows, sort_keys=True).encode())\n"
            "for index in range(20):\n"
            "    scenario = experiments.random_scenario(index, seed, max_parallel=4)\n"
            "    digest.update('\\n'.join(protocol.run_scenario(scenario).lines).encode())\n"
            "print(hash('cicsim'), digest.hexdigest())")
    (hash0, digest0), (hash1, digest1) = (_python(code, PYTHONHASHSEED=hash_seed).split()
                                          for hash_seed in ("0", "1"))
    assert hash0 != hash1 and digest0 == digest1


def test_runs_without_the_json_accelerator_write_the_same_lines():
    """With CPython's `_json` blocked, so that `json` falls back to its pure-Python
    encoder, cicsim imports, and 20 random scenarios write the same documents and
    event lines as in this process, each line the event's plain `json.dumps`."""
    code = ("import sys; sys.modules['_json'] = None\n"
            "import json, json.encoder; from cicsim import experiments, protocol\n"
            "assert json.encoder.c_make_encoder is None\n"
            "runs = [protocol.run_scenario(experiments.random_scenario(i, bytes(32), 4))\n"
            "        for i in range(20)]\n"
            "print(json.dumps([[r.scenario.to_json(), r.lines] for r in runs]))")
    runs = [protocol.run_scenario(experiments.random_scenario(i, bytes(32), 4)) for i in range(20)]
    assert json.loads(_python(code)) == [[r.scenario.to_json(), r.lines] for r in runs]
    assert all(r.lines == [canonical_line(e) for e in r.events] for r in runs)


def test_what_a_pool_worker_receives_or_returns_round_trips_through_pickle():
    """Each thing a batch worker would receive or return comes back from `pickle`
    equal: a node's keys, whose `__reduce__` rebuilds the midstate from sk, so that a
    check at a fixed nonce agrees at q = 1 and at a small q; a `Program`, compiled
    trace and all; a `random_scenario`; and the rows of a 4-scenario batch."""
    seed, nonce = sha256(b"pickle-round-trips"), sha256(b"pickle-nonce")
    selected = 0
    for node_id in range(64):
        keys = randomness.keygen(seed, node_id)
        twin = pickle.loads(pickle.dumps(keys))
        assert twin == keys
        for q in (1.0, 0.05):
            assert randomness.check_sort(twin, nonce, q) == randomness.check_sort(keys, nonce, q)
        selected += randomness.check_sort(twin, nonce, 0.05).selected
    assert 0 < selected < 64
    program = toy_vm.compute_program(key=3)
    data = toy_vm.compute_data(2 * toy_vm.COMPILE_AFTER)
    toy_vm.run_full(program, CicState(1, program.code_id), data)
    assert program.warmth[1] is not None        # compiled: pickling drops its trace table
    assert pickle.loads(pickle.dumps(program)) == program
    scenario = experiments.random_scenario(3, seed)
    assert pickle.loads(pickle.dumps(scenario)) == scenario
    rows = experiments.protocol_batch_rows(4, seed)
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_every_annotation_in_the_package_resolves():
    """`typing.get_type_hints` resolves every function, class and method that
    a `cicsim` module defines, from the module's own names: a name bound
    only inside a function body, as numpy is, or one only type stubs know
    fails here."""
    checked = 0
    for info in pkgutil.iter_modules(cicsim.__path__):
        module = importlib.import_module(f"cicsim.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for target in (obj, *(getattr(m, "__func__", getattr(m, "fget", m)) for m in members)):
                if inspect.isclass(target) or inspect.isfunction(target):
                    typing.get_type_hints(target)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("log_text", ["", "\n\n", "not json\n", '{"format":1}\n'])
def test_malformed_event_log_is_a_scenario_error(tmp_path, capsys, log_text):
    path = tmp_path / "log.jsonl"
    path.write_text(log_text)
    with pytest.raises(protocol.ScenarioError):
        experiments.replay(str(path))
    assert cli.main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_rejects_a_malformed_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"seed": "00"}')
    assert cli.main(["protocol-run", "--scenario", str(path)]) == 2
    assert "malformed scenario" in capsys.readouterr().err


@pytest.mark.parametrize("edit,it_edit", [
    ({"q": 2}, {}), ({"beta": 0}, {}), ({"seed": "zz"}, {}), ({"seed": "00"}, {}),
    ({}, {"cic_index": 5}), ({}, {"eta": -1}), ({}, {"gas_price": -1}),
    ({}, {"submit_block": 0}), ({}, {"gas_margin": -1}),
    ({"windows": {"gas_per_block": 0, "w_src_slack": 2, "w_buf": 2, "w_sr": 4}}, {}),
    # a float where an int belongs
    ({"commit_jitter": 1.5}, {}), ({"creator_balance": 1e6}, {}), ({}, {"submit_block": 1.5}),
    ({"windows": {"gas_per_block": 40, "w_src_slack": 0.5, "w_buf": 2, "w_sr": 4}}, {})])
def test_cli_rejects_scenario_values_a_run_cannot_use(tmp_path, capsys, edit, it_edit):
    doc = json.loads(experiments.random_scenario(5, SEED, max_parallel=2).to_json())
    doc.update(edit)
    doc["its"][0].update(it_edit)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["protocol-run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed scenario: ")


def test_cli_rejects_an_eta_beyond_one_word(tmp_path, capsys):
    """An `its` eta that `compute_data` cannot encode is refused with the
    scenario, as `rice-trace --eta` is, not by a traceback from inside the run."""
    doc = json.loads(protocol.Scenario().to_json())
    doc["its"][0]["eta"] = 2 ** 300
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["protocol-run", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed scenario: ") and "eta" in captured.err
    assert captured.out == ""


def test_cli_exits_1_on_a_run_stopped_at_the_block_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_BLOCKS", 50)
    path, log = tmp_path / "scenario.json", tmp_path / "log.jsonl"
    path.write_text(protocol.Scenario(its=(protocol.ItSpec(submit_block=80),)).to_json())
    assert cli.main(["protocol-run", "--scenario", str(path), "--log", str(log)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["capped"] and summary["blocks"] == 50 and summary["events"] == 1
    assert json.loads(log.read_text().splitlines()[-1])["type"] == "block_cap"


def test_cli_rejects_a_strategy_parameter_out_of_range(tmp_path, capsys):
    doc = json.loads(protocol.Scenario(strategies=(("honest", 22),
                                                   ("colluder", 2, {"group": 0}))).to_json())
    doc["strategies"][1][2]["group"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["protocol-run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed scenario: ")


@pytest.mark.parametrize("argv", [["miracle-mc", "--q", "2"], ["es-sizing", "--beta", "0"],
                                  ["rice-overhead", "--t-lo", "0"],
                                  ["rice-overhead", "--t-lo", "50", "--t-hi", "40"],
                                  ["es-sizing", "--m", "-5"], ["es-sizing", "--m", "0"],
                                  ["protocol-run", "--trials", "40", "--max-parallel", "-2"],
                                  ["miracle-mc", "--f", "1.5", "--f-max", "0.4"],
                                  ["adaptive", "--f", "-0.2"],
                                  ["rice-overhead", "--t-lo", "1", "--t-hi", "1"],
                                  ["es-sizing", "--config", '{"f_max_values": [0.5]}'],
                                  ["rice-trace", "--eta", str(2 ** 256)],
                                  # every run has one phi: the fit's R^2 is undefined
                                  ["rice-overhead", "--trials", "3", "--t-lo", "2", "--t-hi", "2"],
                                  ["rice-overhead", "--trials", "1", "--t-lo", "100",
                                   "--t-hi", "1000"],
                                  # no q in (0, 1) makes the design point that slow
                                  ["adaptive", "--target-rounds", "1000"],
                                  ["adaptive", "--target-rounds", "nan"],
                                  ["adaptive", "--beta", "0.6"],
                                  # a pool whose int64 walk could overflow
                                  *(["miracle-mc", "--m", m, "--q", "0.125", "--f", "0.0",
                                     "--f-max", "0.4", "--beta", "1e-6", "--trials", "20"]
                                    for m in ("30000000000", "100000000000000000000"))])
def test_cli_rejects_experiment_flags_outside_their_domain(tmp_path, capsys, argv):
    # the text after --config is written to a file and passed by its path
    if "--config" in argv:
        path = tmp_path / "cfg.json"
        path.write_text(argv[-1])
        argv = [*argv[:-1], str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_missing_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert cli.main(["protocol-run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cli_missing_event_log_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.jsonl"
    assert cli.main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert cli.main(["es-sizing", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("text", ["not json", "[1, 2]"])
def test_cli_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["es-sizing", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_misspelled_parameter_is_a_config_error(tmp_path, capsys):
    with pytest.raises(experiments.ConfigError, match="tirals"):
        experiments.ExperimentSpec(kind="es_sizing", params={"tirals": 5})
    path = tmp_path / "cfg.json"
    path.write_text('{"tirals": 5, "betaz": [0.001]}')
    assert cli.main(["es-sizing", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "betaz, tirals" in err
    # a key the kind reads is still accepted from the config file
    path.write_text('{"f_max_values": [0.2]}')
    assert cli.main(["es-sizing", "--config", str(path)]) == 0


@pytest.mark.parametrize("command,key", [("miracle-mc", "betas"), ("miracle-mc", "f_values"),
                                         ("adaptive", "f_values"),
                                         ("es-sizing", "f_max_values")])
def test_cli_refuses_an_empty_parameter_list(tmp_path, capsys, command, key):
    # an empty sweep would print a header-only CSV and exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: []}))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{key} lists no value" in captured.err


def test_parameter_values_must_have_their_default_type():
    def spec(kind, **params):
        return experiments.ExperimentSpec(kind=kind, params=params, seed="ab" * 32)

    for kind, params in [("es_sizing", {"m": "abc"}), ("es_sizing", {"m": 1600.0}),
                         ("es_sizing", {"m": True}), ("es_sizing", {"beta": False}),
                         ("es_sizing", {"f_max_values": [0.1, "x"]}),
                         ("es_sizing", {"f_max_values": 0.1}),
                         ("miracle_sweep", {"f_max": "0.3"})]:
        with pytest.raises(experiments.ConfigError, match=next(iter(params))):
            spec(kind, **params)
    # an int where a float is expected, and None or a number for a None default
    spec("es_sizing", beta=1, f_max_values=[0.1, 1])
    spec("miracle_sweep", f_max=None)
    spec("miracle_sweep", f_max=0.3)
    # a valid spec hashes as before
    assert spec("es_sizing", m=800).spec_hash() == experiments.ExperimentSpec(
        kind="es_sizing", params={"m": 800}, seed="ab" * 32).spec_hash()


def test_cli_config_with_a_wrong_typed_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": "abc"}')
    assert cli.main(["es-sizing", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: es_sizing parameter m='abc' ")


@pytest.mark.parametrize("argv", [["--eta", "-1"], ["--rounds", "0"]])
def test_cli_rice_trace_rejects_a_bad_count(capsys, argv):
    assert cli.main(["rice-trace", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --eta must be >= 0 and --rounds >= 1")


@pytest.mark.parametrize("flags", [["--out"], ["--trials", "50"], ["--seed", "ab" * 32],
                                   ["--max-parallel", "3", "--config", "c.json"]])
def test_cli_protocol_scenario_rejects_the_batch_flags(tmp_path, capsys, flags):
    # a flag given with --scenario is an error even when it spells the default
    flags = [*flags, str(tmp_path / "x.csv")] if flags == ["--out"] else flags
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(experiments.random_scenario(5, SEED, max_parallel=2).to_json())
    assert cli.main(["protocol-run", "--scenario", str(scen_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --scenario takes none of ")
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not (tmp_path / "x.csv").exists()
    # and --log, which only a scenario run writes, is an error without one
    assert cli.main(["protocol-run", "--log", str(tmp_path / "log.jsonl")]) == 2
    assert capsys.readouterr().err == "error: --log needs --scenario\n"


# Every subcommand's options as (option strings, dest, type, action, default),
# pinned as literals so a change to how the flags are built cannot move one.
_COMMON = [(("--seed",), "seed", None, "store", None),
           (("--trials",), "trials", int, "store", None),
           (("--out",), "out", None, "store", None),
           (("--config",), "config", None, "store", None)]
PARSERS = {
    "miracle-mc": [*_COMMON, (("--m",), "m", int, "store", None),
                   (("--q",), "q", float, "store", None),
                   (("--beta",), "betas", float, "append", None),
                   (("--f",), "f_values", float, "append", None),
                   (("--f-max",), "f_max", float, "store", None)],
    "adaptive": [*_COMMON, (("--m",), "m", int, "store", None),
                 (("--beta",), "beta", float, "store", None),
                 (("--f-max",), "f_max", float, "store", None),
                 (("--target-rounds",), "target_rounds", float, "store", None),
                 (("--f",), "f_values", float, "append", None)],
    "es-sizing": [*_COMMON, (("--m",), "m", int, "store", None),
                  (("--beta",), "beta", float, "store", None)],
    "rice-trace": [(("--seed",), "seed", None, "store", cli.DEFAULT_SEED),
                   (("--eta",), "eta", int, "store", 200),
                   (("--rounds",), "rounds", int, "store", 1),
                   (("--out",), "out", None, "store", None)],
    "rice-overhead": [*_COMMON, (("--t-lo",), "t_lo", int, "store", None),
                      (("--t-hi",), "t_hi", int, "store", None)],
    "protocol-run": [*_COMMON, (("--max-parallel",), "max_parallel", int, "store", None),
                     (("--scenario",), "scenario", None, "store", None),
                     (("--log",), "log", None, "store", None)],
    "utility": _COMMON,
    "replay": [((), "log", None, "store", None)],
}
_ACTIONS = {argparse._StoreAction: "store", argparse._AppendAction: "append"}


def test_cli_subcommand_parsers_are_pinned(monkeypatch):
    class Parsed(Exception):
        pass

    def capture(parser, *args, **kwargs):
        raise Parsed(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(Parsed) as caught:
        cli.main([])
    sub = next(action for action in caught.value.args[0]._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(PARSERS)
    for name, parser in sub.choices.items():
        options = [(tuple(a.option_strings), a.dest, a.type, _ACTIONS[type(a)], a.default)
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert options == PARSERS[name], name


def test_cli_miracle_mc(tmp_path):
    out = tmp_path / "mc.csv"
    code = cli.main(["miracle-mc", "--m", "200", "--q", "0.2", "--beta", "1e-3",
                     "--f", "0.2", "--trials", "200", "--seed", "aa" * 32,
                     "--out", str(out)])
    assert code == 0
    body = out.read_text().splitlines()
    assert body[1].split(",")[:3] == ["f", "beta", "f_max"]
    assert len(body) == 3


# The CSV metadata line of every experiment subcommand, run once at its
# defaults and once with every experiment flag spelled out. The spec hash
# covers the kind's parameters exactly as the CLI passes them, so a default
# or a flag mapping that drifts changes the pin.
PIN_SEED = "5e" * 32
CLI_META = [
    (("miracle-mc",), "miracle_sweep",
     "4df67d12222f4758883ad104a8f1d14cfd00114aa36697393b3ab1b922e828e6"),
    (("miracle-mc", "--m", "200", "--q", "0.2", "--beta", "1e-3", "--beta", "1e-4",
      "--f", "0.2", "--f", "0.3", "--f-max", "0.35"), "miracle_sweep",
     "d60067dd1984fa79875f50c72c6fe922370d5fb33e92a3270617fd71c9f0116e"),
    (("adaptive",), "adaptive_rounds",
     "362becb769aa3f41178c7231d1dff20e422f62bea882161c6c302c072e4f12d9"),
    (("adaptive", "--m", "400", "--beta", "1e-6", "--f-max", "0.3",
      "--target-rounds", "4", "--f", "0.1", "--f", "0.2"), "adaptive_rounds",
     "f00f7cddf21a8ebf68dfc1b11bd06e32e005e15e216c9523b99bbcaf30010fab"),
    (("es-sizing",), "es_sizing",
     "9f4a63a14b7f3c7992abb3dc1ab9026bcee7c02a8dcc39e1f0e2d20463693889"),
    (("es-sizing", "--m", "800", "--beta", "1e-6"), "es_sizing",
     "5099c4db744aaa392b101d7d9ae6ec8320b7177eab44ebb839484f265ef5acd4"),
    (("rice-overhead",), "rice_overhead",
     "2ac7c40ce09171b5cfd797c63608ced5e0d1c125824170ecb377e34e93a8decd"),
    (("rice-overhead", "--t-lo", "100", "--t-hi", "100000"), "rice_overhead",
     "6b1d1281a09169fbaf2f50978bc02003421bd935c66f41085a6710662a2c03f9"),
    (("protocol-run",), "protocol_run",
     "9f65fdc2f0cde0882db1a49f2a9d225e13111c63080fdd1f5c89a95619c04dde"),
    (("protocol-run", "--max-parallel", "4"), "protocol_run",
     "8b74a301656bcf2109592807568eef244d2cf5af9d8384d73d10588fd8d9ea75"),
    (("utility",), "utility_surface",
     "53812d5d9c65a720d5a601d9d8d5cd867e885d803c5f4fa80c65253ea61933f6"),
]


@pytest.mark.parametrize("argv,kind,spec_hash", CLI_META,
                         ids=[f"{a[0]}-{'flags' if len(a) > 1 else 'defaults'}"
                              for a, _, _ in CLI_META])
def test_cli_metadata_line(capsys, argv, kind, spec_hash):
    assert cli.main([*argv, "--seed", PIN_SEED, "--trials", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"# kind={kind} lib=0.1.0 seed={PIN_SEED} spec={spec_hash}"


def test_kind_audit_fails_on_a_false_audited_field():
    protocol_kind = experiments.KINDS["protocol_run"]
    row = {"conserved": True, "window_discipline": True, "reveal_binding": True,
           "replay_identical": True}
    assert protocol_kind.passed([row])
    assert not protocol_kind.passed([row, {**row, "conserved": False}])
    utility_kind = experiments.KINDS["utility_surface"]
    assert utility_kind.passed([{"agrees": True}])
    assert not utility_kind.passed([{"agrees": True}, {"agrees": False}])


def test_an_experiment_seed_has_one_spelling():
    # bytes.fromhex ignores case and whitespace, so these run with one seed:
    # one spec, one spec hash and one CSV, meta line included
    specs = [experiments.ExperimentSpec(kind="es_sizing", seed=spelling)
             for spelling in ("ab" * 32, "AB" * 32, " " + "AB " * 32)]
    assert {spec.seed for spec in specs} == {"ab" * 32}
    assert len({spec.spec_hash() for spec in specs}) == 1
    assert len({experiments.render_csv(*experiments.run(spec)) for spec in specs}) == 1


@pytest.mark.parametrize("seed", ["zz", "abcd"])
def test_cli_rice_trace_rejects_a_bad_seed(capsys, seed):
    assert cli.main(["rice-trace", "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be ")
