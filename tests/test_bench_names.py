"""Every package name the benchmark's traced run wraps must still exist,
and the traced run must reach it.

`perfbench/spans.py` swaps timing wrappers in for package attributes by
name. A refactor that deletes or moves one of them would otherwise show up
only as a KeyError from `perfbench/run.py --trace 1`, and one that binds a
wrapped function by name would show up only as a count that reads 0.
"""

from pathlib import Path

from cicsim import experiments, protocol, rice
from cicsim.hashing import sha256
from cicsim.merkle_state import CicState
from cicsim.miracle import ConsensusParams
from cicsim.toy_vm import compute_data, compute_program


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
