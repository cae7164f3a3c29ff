"""Harness plumbing: determinism, CSV artifacts, CLI, log replay."""

import json

import numpy as np
import pytest

from cicsim import cli, experiments, miracle, protocol
from cicsim.hashing import sha256

SEED = sha256(b"experiments-tests")


def test_spec_validation():
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="nonsense")
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="es_sizing", seed="zz")
    with pytest.raises(experiments.ConfigError):
        experiments.ExperimentSpec(kind="es_sizing", trials=0)
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
            decision = miracle.step(table, params)
            if decision.accepted:
                rounds_eng[t] = round_index
                break
    se = (rounds_vec.std(ddof=1) ** 2 / trials
          + rounds_eng.std(ddof=1) ** 2 / trials) ** 0.5
    assert abs(rounds_vec.mean() - rounds_eng.mean()) < 4 * se + 0.05


def test_sweep_rows_are_deterministic():
    kw = dict(m_total=200, q=0.2, betas=[1e-3], f_values=[0.2, 0.3],
              trials=300, seed=SEED)
    assert experiments.miracle_sweep_rows(**kw) == experiments.miracle_sweep_rows(**kw)


def test_csv_artifact_shape_and_determinism(tmp_path):
    spec = experiments.ExperimentSpec(
        kind="es_sizing", params={"m": 1600, "beta": 1e-20},
        trials=1, seed="cd" * 32, out=str(tmp_path / "a.csv"))
    experiments.run(spec)
    first = (tmp_path / "a.csv").read_bytes()
    experiments.run(spec)
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
    with pytest.raises(experiments.DivergenceDetected) as err:
        experiments.replay(str(path))
    assert json.loads(str(err.value))["first_divergence"] == idx - 1


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


def test_cli_protocol_scenario_and_replay(tmp_path):
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
    assert cli.main(["replay", str(log_path)]) == 1


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


def test_cli_miracle_mc(tmp_path):
    out = tmp_path / "mc.csv"
    code = cli.main(["miracle-mc", "--m", "200", "--q", "0.2", "--beta", "1e-3",
                     "--f", "0.2", "--trials", "200", "--seed", "aa" * 32,
                     "--out", str(out)])
    assert code == 0
    body = out.read_text().splitlines()
    assert body[1].split(",")[:3] == ["f", "beta", "f_max"]
    assert len(body) == 3
