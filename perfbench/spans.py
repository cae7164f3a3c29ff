"""Span recorder for the traced run.

The recorder replaces public cicsim names with timing wrappers where the
calling module looks them up (for example `protocol.check_sort`, or a
`MasterContract` method on the class), and puts the originals back when
the run ends. Nothing in the package itself changes.

Every wrapped call keeps its duration and, from the spans opened inside it,
its self time. Calls from per-call hot leaves (SHA-256, sortition checks,
`emit`) are only summed; the rest are kept as spans (id, parent, operation,
name, start, end) in memory and written out when the benchmark ends.
Recording is active only inside the benchmark's timed operations, so the
output checks run untraced.
"""

from __future__ import annotations

import collections
import contextlib
import json
from time import perf_counter

from cicsim import experiments, hashing, merkle_state, miracle, protocol, randomness, rice, toy_vm
from workloads import RICE_KINDS


class Recorder:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list = []      # (span_id, parent_id, op, name, start, end)
        self.totals = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = collections.Counter()
        self._stack: list = []     # open frames: [span_id, child_seconds]
        self._ids = 0
        self._saved: list = []

    def wrap(self, name, fn, keep=True, observe=None):
        stack, totals, spans, counts = self._stack, self.totals, self.spans, self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._ids += 1
            parent = stack[-1][0] if stack else None
            frame = [self._ids, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if keep:
                    spans.append((frame[0], parent, self.op, name, start, end))
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, op):
        """Record spans of operation `op` while the block runs."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False

    def patch(self, owner, attr, name, keep=True, observe=None):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep, observe))

    def install(self):
        for owner, attr, name, keep, observe in _targets():
            self.patch(owner, attr, name, keep, observe)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def seconds(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_seconds(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


# --- observers: counts taken at the same boundaries as the spans ----------------

def _leaves(counts, args, result):
    counts["merkle_state.leaves_hashed"] += len(args[0])


def _resume(counts, args, result):
    # run_sub(program, cursor, t_i, t_f) returns (cursor, last index run)
    counts["toy_vm.instructions"] += result[1] - args[2] + 1


def _round(counts, args, result):
    counts["rice.seed_updates"] += result[1].phi


def _sort(counts, args, result):
    counts["randomness.selected"] += result.selected


def _emit(counts, args, result):
    counts["protocol.events"] += 1
    counts["protocol.rejected"] += args[2] == "rejected"


def _run(counts, args, result):
    counts["protocol.blocks"] += result.total_blocks


def _sweep(counts, args, result):
    counts["experiments.mc_trials"] += args[2]


def _targets():
    """(owner, attribute, span name, keep spans, observer) for every wrap."""
    targets = [(module, "sha256", "hashing.sha256", False, None)
               for module in (randomness, merkle_state, toy_vm, rice, protocol, experiments)
               if module.__dict__.get("sha256") is hashing.sha256]
    mc = protocol.MasterContract
    targets += [
        (merkle_state, "storage_root", "merkle_state.root", False, _leaves),
        (protocol, "prove_inclusion", "merkle_state.prove", True, None),
        (toy_vm, "run_sub", "toy_vm.resume", True, _resume),
        (rice, "rice_execute_traced", "rice.round", True, _round),
        (protocol, "check_sort", "randomness.check_sort", False, _sort),
        (randomness.SortitionOracle, "verify", "randomness.verify", False, None),
        (protocol, "keygen", "randomness.keygen", False, None),
        (miracle, "update_likelihoods", "miracle.update", True, None),
        (miracle, "step", "miracle.step", True, None),
        (mc, "emit", "protocol.emit", False, _emit),
        (mc, "submit_commit", "protocol.commit", True, None),
        (mc, "submit_reveal", "protocol.reveal", True, None),
        (mc, "close_round", "protocol.close_round", True, None),
        (mc, "settle", "protocol.settle", True, None),
        (mc, "total_value", "protocol.total_value", False, None),
        (protocol, "event_lines", "protocol.event_lines", True, None),
        (protocol, "run_scenario", "protocol.run", True, _run),
        (protocol, "replay_check", "protocol.replay", True, None),
        (experiments, "audit_event_log", "experiments.audit", True, None),
        (experiments, "random_scenario", "experiments.random_scenario", True, None),
        (experiments, "protocol_batch_rows", "experiments.batch", True, None),
        (experiments, "sweep_point", "experiments.mc", True, _sweep),
    ]
    return targets


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, kinds: dict, overhead_ms: float) -> dict:
    """Per-layer metrics from one traced pass: (value, unit) by name.

    `kinds` maps each RICE program kind to its untraced round median in ms
    and its overhead ratio over the plain run; kinds not run read 0.
    """
    c = rec.counts
    instr, interp = c["toy_vm.instructions"], rec.seconds("toy_vm.resume")
    trials, mc_s = c["experiments.mc_trials"], rec.seconds("experiments.mc")
    checks = rec.calls("randomness.check_sort")
    return {
        "hashing.sha256_calls": (rec.calls("hashing.sha256"), "count"),
        "hashing.sha256_s": (rec.seconds("hashing.sha256"), "s"),
        "merkle_state.root_calls": (rec.calls("merkle_state.root"), "count"),
        "merkle_state.root_s": (rec.seconds("merkle_state.root"), "s"),
        "merkle_state.leaves_hashed": (c["merkle_state.leaves_hashed"], "count"),
        "merkle_state.prove_s": (rec.seconds("merkle_state.prove"), "s"),
        "toy_vm.instructions": (instr, "count"),
        "toy_vm.resume_calls": (rec.calls("toy_vm.resume"), "count"),
        "toy_vm.interp_s": (interp, "s"),
        "toy_vm.instr_per_s": (_ratio(instr, interp), "1/s"),
        "rice.rounds": (rec.calls("rice.round"), "count"),
        "rice.seed_updates": (c["rice.seed_updates"], "count"),
        "rice.round_s": (rec.seconds("rice.round"), "s"),
        "rice.self_s": (rec.self_seconds("rice.round"), "s"),
        **{f"rice.{kind}_round_ms": (kinds.get(kind, (0.0, 0.0))[0], "ms")
           for kind in RICE_KINDS},
        **{f"rice.{kind}_overhead_ratio": (kinds.get(kind, (0.0, 0.0))[1], "ratio")
           for kind in RICE_KINDS},
        "randomness.check_sort_calls": (checks, "count"),
        "randomness.check_sort_s": (rec.seconds("randomness.check_sort"), "s"),
        "randomness.selected_ratio": (_ratio(c["randomness.selected"], checks), "ratio"),
        "randomness.verify_calls": (rec.calls("randomness.verify"), "count"),
        "randomness.verify_s": (rec.seconds("randomness.verify"), "s"),
        "randomness.keygen_s": (rec.seconds("randomness.keygen"), "s"),
        "miracle.update_calls": (rec.calls("miracle.update"), "count"),
        "miracle.update_s": (rec.seconds("miracle.update"), "s"),
        "miracle.step_s": (rec.seconds("miracle.step"), "s"),
        "protocol.emit_s": (rec.seconds("protocol.emit"), "s"),
        "protocol.event_lines_s": (rec.seconds("protocol.event_lines"), "s"),
        "protocol.commit_s": (rec.seconds("protocol.commit"), "s"),
        "protocol.reveal_s": (rec.seconds("protocol.reveal"), "s"),
        "protocol.close_round_s": (rec.seconds("protocol.close_round"), "s"),
        "protocol.settle_s": (rec.seconds("protocol.settle"), "s"),
        "protocol.total_value_s": (rec.seconds("protocol.total_value"), "s"),
        "protocol.run_self_s": (rec.self_seconds("protocol.run"), "s"),
        "protocol.replay_s": (rec.seconds("protocol.replay"), "s"),
        "protocol.events": (c["protocol.events"], "count"),
        "protocol.rejected": (c["protocol.rejected"], "count"),
        "protocol.blocks": (c["protocol.blocks"], "count"),
        "experiments.audit_s": (rec.seconds("experiments.audit"), "s"),
        "experiments.random_scenario_s": (rec.seconds("experiments.random_scenario"), "s"),
        "experiments.batch_self_s": (rec.self_seconds("experiments.batch"), "s"),
        "experiments.mc_s": (mc_s, "s"),
        "experiments.mc_trials_per_s": (_ratio(trials, mc_s), "1/s"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
