"""Every package name the benchmark's traced run wraps must still exist,
and the traced run must reach it.

`perfbench/spans.py` swaps timing wrappers in for package attributes by
name. A refactor that deletes or moves one of them would otherwise show up
only as a KeyError from `perfbench/run.py --trace 1`, and one that binds a
wrapped function by name would show up only as a count that reads 0.
"""

import json
from pathlib import Path

import pytest

from cicsim import experiments, protocol, rice
from cicsim.hashing import sha256
from cicsim.merkle_state import CicState
from cicsim.miracle import ConsensusParams
from cicsim.toy_vm import compute_data, compute_program
from test_experiments import _python


def test_every_wrapped_name_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    targets = spans._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert not missing, missing


def _spans_reached(spans, run) -> set:
    """Names of the wrapped spans that `run()` calls while a recorder is on."""
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.recording(0):
            run()
    finally:
        recorder.uninstall()
    return {name for name, (calls, _, _) in recorder.totals.items() if calls}


def test_the_traced_run_reaches_what_it_wraps(monkeypatch):
    """A wrapper sees only calls that look the name up where it is patched:
    a module that binds a wrapped function by name at import bypasses it,
    and its span reads 0 with every output unchanged."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    wrapped = {name for _, _, name, *_ in spans._targets()}
    seed = sha256(b"traced-run-reach")
    batch = _spans_reached(spans, lambda: experiments.protocol_batch_rows(2, seed))
    # no run path calls `event_lines`; the batch runs no interpreter and no sweep
    missing = wrapped - {"protocol.event_lines", "toy_vm.resume", "experiments.mc"} - batch
    assert not missing, missing
    program = compute_program()
    state = CicState(sha256(b"traced-cid"), program.code_id)
    vm = _spans_reached(spans, lambda: rice.rice_execute_traced(
        program, state, compute_data(20), 1, seed))
    assert {"toy_vm.resume", "rice.round"} <= vm
    params = ConsensusParams(100, 0.4, 0.3, 1e-3)
    assert "experiments.mc" in _spans_reached(
        spans, lambda: experiments.sweep_point(params, 0.3, 50, seed))


def test_every_event_passes_through_emit(monkeypatch):
    """`protocol.events` and `protocol.rejected` count calls of the wrapped
    `emit`: an event appended any other way would be missing from both."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    seed = sha256(b"traced-run-emit")
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.recording(0):
            experiments.protocol_batch_rows(2, seed)
    finally:
        recorder.uninstall()
    events = [e for index in range(2)
              for e in protocol.run_scenario(experiments.random_scenario(index, seed)).events]
    # each scenario runs once and replays once
    assert recorder.counts["protocol.events"] == 2 * len(events)
    assert recorder.counts["protocol.rejected"] == 2 * sum(e["type"] == "rejected" for e in events)


@pytest.fixture(scope="module")
def paper_trace():
    """One traced paper-scale run, after an untraced one, as the benchmark's
    warm-up does: its scenario, result and recorder."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans

    scenario = protocol.Scenario(seed=sha256(b"traced-run-passes").hex(), m_total=1600,
                                 q=0.125, f_max=0.45, beta=1e-6,
                                 strategies=(("honest", 880), ("byz_single", 720)))
    protocol.run_scenario(scenario)
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.recording(0):
            result = protocol.run_scenario(scenario)
    finally:
        recorder.uninstall()
    return scenario, result, recorder


def test_a_paper_scale_run_makes_each_per_node_call_once(paper_trace):
    """The traced run's per-layer counts of the three passes over all M nodes:
    one `keygen` per node, one `check_sort` per pool member per round, and one
    `total_value` per block plus the baseline. A later inlining or fast path
    that bypasses a wrapped name shows here as a count that moved."""
    scenario, result, recorder = paper_trace
    forfeited, sweeps = 0, 0
    for event in result.events:
        forfeited += event["type"] == "forfeit"
        sweeps += (scenario.m_total - forfeited) * (event["type"] == "round_started")
    assert result.settled == 1 and sweeps >= 2 * scenario.m_total
    assert recorder.calls("randomness.keygen") == scenario.m_total
    assert recorder.calls("randomness.check_sort") == sweeps
    assert recorder.calls("protocol.total_value") == result.total_blocks + 1


# traced calls of the paper-scale run above, as the tree before the per-selected-node trims
# counted them; each trim kept every hash, sortition check, event and contract call. Since
# keygen derives no public key, each of the 1600 nodes hashes once less: 7248 -> 5648. The
# closed-form model's table of roots by counter value spares the 23 roots that a later round of
# the transaction derived again, two hashes each (-46), and its one model hashes its code id
# itself, where a process-wide cache had hashed it in the untraced run before (+1): 5603
PAPER_TRACE_CALLS = {"hashing.sha256": 5603, "randomness.verify": 979, "protocol.emit": 2974,
                     "protocol.commit": 979, "protocol.reveal": 979, "protocol.settle": 1}


def test_a_paper_scale_run_keeps_its_traced_call_counts(paper_trace):
    """A trim of per-node work that bypasses a wrapped call, or adds a hash, fails
    here by the name whose count moved."""
    _, result, recorder = paper_trace
    assert {name: recorder.calls(name) for name in PAPER_TRACE_CALLS} == PAPER_TRACE_CALLS
    assert len(result.events) == PAPER_TRACE_CALLS["protocol.emit"]


# two traced runs of one scenario in a fresh interpreter; prints each run's calls per wrapped
# name and its observed counts
TWO_TRACED_RUNS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from cicsim import protocol
scenario, runs = protocol.Scenario.from_json(sys.argv[2]), []
for _ in range(2):
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.recording(0):
            protocol.run_scenario(scenario)
    finally:
        recorder.uninstall()
    runs.append([{name: total[0] for name, total in recorder.totals.items()}, recorder.counts])
print(json.dumps(runs))
"""


def test_no_traced_count_depends_on_what_ran_before_in_the_process(paper_trace):
    """The first traced paper-scale run in a fresh interpreter calls every wrapped
    name, and hashes, as often as a second run of the scenario there, and as the
    fixture's run after a warm-up: no cache outlives a run and moves a count."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    first, second = json.loads(_python(TWO_TRACED_RUNS, str(perfbench), paper_trace[0].to_json()))
    assert first == second
    assert first[0]["hashing.sha256"] == PAPER_TRACE_CALLS["hashing.sha256"]
