"""cicsim benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

With --trace 0 the run sets up (imports, input generation, warm-up), then
issues operations back to back for S seconds, checking every output, and
reports the end-to-end metrics. Set-up is timed once per fresh interpreter,
in this process and in SETUP_CHILDREN child processes run one after
another, so every sample pays first-use costs; setup_s is their median. With --trace 1
it runs the workload's fixed number of operations twice, untraced and then
traced, and reports the per-layer metrics from the traced pass; the fixed
count makes every per-layer count repeat exactly at one seed.

All timings are host time. End-to-end times are calibrated against
host-speed drift as calibrate.py describes; per-layer span times are not.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. The lines before it give the uncalibrated figures, the
per-kind round medians of workloads that rotate operation kinds (`detail`)
and the environment. With --out, all of them are also appended to FILE as
one JSON line, which is what perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_CHILDREN = 2      # fresh interpreters that time set-up besides this one
SETUP_TIMEOUT_S = 60
GOLDEN_OPS = 6          # leading operations whose digests the golden file pins
MIN_SAMPLES = 110       # so that at least ten latencies lie beyond p90
WARMUP_OP = -1          # operation index reserved for warm-up
SHOWN_ERRORS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSONL file")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it as JSON (used by the run itself)")
    return parser.parse_args(argv)


def seed_bytes(seed: int) -> bytes:
    return hashlib.sha256(b"cicsim-perfbench/v1" + seed.to_bytes(8, "big", signed=True)).digest()


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read from files; "unknown" without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit_id()}


class Tally:
    """Attempted and failed operations; prints the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, i, what):
        self.failed += 1
        if self.failed <= SHOWN_ERRORS:
            print(f"operation {i} failed: {what}", file=sys.stderr)

    def run(self, workload, i, calibration, recorder=None):
        """Run and check operation i; returns (output, calibrated seconds,
        raw seconds), or None when it fails.

        With a recorder, spans are recorded around the operation but not
        around the calibration loops or the checks.
        """
        self.attempted += 1
        try:
            before = calibration.time()
            with recorder.recording(i) if recorder else contextlib.nullcontext():
                start = perf_counter()
                out = workload.op(i)
                elapsed = perf_counter() - start
            scaled = calibration.scale(elapsed, before, calibration.time())
            workload.check(i, out)
        except Exception:  # any failure counts against the operation
            self.fail(i, traceback.format_exc())
            return None
        return out, scaled, elapsed


def set_up(cls, seed, import_s, calibration):
    """Generate the inputs and run the warm-up operation, once.

    Returns the workload, the set-up time including `import_s` (calibrated
    and raw) and the warm-up output's digest. The calibration loop runs
    after the set-up, so that the set-up pays its first-use costs itself.
    """
    start = perf_counter()
    workload = cls(seed)
    out = workload.op(WARMUP_OP)
    raw = import_s + perf_counter() - start
    scaled = calibration.scale(raw, *(calibration.time() for _ in range(3)))
    workload.check(WARMUP_OP, out)
    return workload, scaled, raw, workload.digest(out).hex()


def child_set_ups(args):
    """Set-up timed in SETUP_CHILDREN fresh interpreters, one at a time.

    Returns their (calibrated, raw, warm-up digest) triples; a child that
    fails yields None.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_CHILDREN):
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, cwd=ROOT)
            got = json.loads(done.stdout.strip().splitlines()[-1])
            samples.append((got["setup_s"], got["raw_s"], got["warmup"]))
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError):
            print("set-up in a child process failed", file=sys.stderr)
            samples.append(None)
    return samples


def golden_mismatches(name, seed, first) -> int:
    """Leading operations whose digest differs from the golden file's."""
    if seed != DEFAULT_SEED:
        return 0
    golden = json.loads((HERE / "golden.json").read_text())[name]
    return sum(1 for got, want in zip(first, golden) if got is not None and got != want)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics. Paper
    runs take a whole number of consensus rounds, and the run-time
    distribution has one cluster per round count; a single order statistic
    jumps between clusters from seed to seed, this estimate moves smoothly.
    The weights are integrated by the midpoint rule, 16 points per order
    statistic.
    """
    import numpy as np  # loaded with cicsim, inside the timed set-up

    n = len(values)
    if n < 2:
        return values[0] if values else 0.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    x = (np.arange(16 * n) + 0.5) / (16 * n)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, 16).sum(axis=1)
    return float(np.dot(weights / weights.sum(), sorted(values)))


def latency_metrics(seconds, work):
    busy = sum(seconds)
    return {"op_ms_p50": (quantile(seconds, 0.5) * 1e3, "ms"),
            "op_ms_p90": (quantile(seconds, 0.9) * 1e3, "ms"),
            "work_per_s": (work / busy if busy else 0.0, "1/s")}


def timed_run(workload, seconds, tally, calibration):
    """Closed loop for `seconds`, and on until MIN_SAMPLES operations have
    run. Returns calibrated and raw end-to-end figures, the calibrated
    latency median of each operation kind (`detail`), and the digests of the
    leading operations."""
    samples, work, first = [], 0, [None] * GOLDEN_OPS
    kinds = getattr(workload, "kinds", ())
    per_kind = {kind: [] for kind in kinds}
    start = perf_counter()
    i = 0
    while i < MIN_SAMPLES or perf_counter() - start < seconds:
        done = tally.run(workload, i, calibration)
        if done is not None:
            out, scaled, elapsed = done
            samples.append((scaled, elapsed))
            if kinds:
                per_kind[workload.kind_of(i)].append(scaled)
            work += workload.work(out)
            if i < GOLDEN_OPS:
                first[i] = workload.digest(out).hex()
        i += 1
    detail = {f"{kind}_round_ms_p50": (quantile(values, 0.5) * 1e3, "ms")
              for kind, values in per_kind.items() if values}
    return (latency_metrics([s for s, _ in samples], work),
            latency_metrics([e for _, e in samples], work), detail, first)


def traced_run(workload, tally, calibration, seed):
    """The fixed operation count untraced, then traced; per-layer metrics."""
    import spans

    n = workload.trace_ops
    kinds = getattr(workload, "kinds", ())
    untraced, raw, plain, digests = [], [], [], []
    for i in range(n):
        done = tally.run(workload, i, calibration)
        digests.append(None if done is None else workload.digest(done[0]).hex())
        untraced.append(0.0 if done is None else done[1])
        raw.append(0.0 if done is None else done[2])
        if kinds:
            start = perf_counter()
            workload.plain(i)
            plain.append(perf_counter() - start)
    recorder = spans.Recorder()
    recorder.install()
    traced = []
    try:
        for i in range(n):
            done = tally.run(workload, i, calibration, recorder)
            if done is not None and workload.digest(done[0]).hex() != digests[i]:
                tally.fail(i, "traced output differs from the untraced output")
            traced.append(0.0 if done is None else done[1])
    finally:
        recorder.uninstall()
    # per RICE program kind: the calibrated round median, and the round over
    # the plain run of the same input; the two ran back to back, so their
    # ratio needs no calibration
    per_kind = {}
    for kind in kinds:
        idx = [i for i in range(n) if workload.kind_of(i) == kind]
        per_kind[kind] = (statistics.median(untraced[i] for i in idx) * 1e3,
                          statistics.median(raw[i] for i in idx)
                          / statistics.median(plain[i] for i in idx))
    overhead_ms = (sum(traced) - sum(untraced)) / n * 1e3
    out_dir = ROOT / ".perfbench" / "spans"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"{workload.name}-seed{seed}.jsonl")
    return spans.layer_metrics(recorder, per_kind, overhead_ms), digests[:GOLDEN_OPS]


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    if not (SRC / "cicsim" / "__init__.py").is_file():
        print(f"cicsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cicsim
    import workloads
    from calibrate import Calibration
    if Path(cicsim.__file__).resolve().parent != SRC / "cicsim":
        print(f"imported cicsim from {cicsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    workload, setup_s, setup_raw, warmup = set_up(cls, seed_bytes(args.seed), import_s,
                                                  Calibration("python"))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw, "warmup": warmup}))
        return 0
    calibration = Calibration(workload.calibration)
    tally = Tally()
    raw, detail, steady = {}, {}, True
    if args.trace:
        metrics, first = traced_run(workload, tally, calibration, args.seed)
    else:
        children = child_set_ups(args)
        setups = [(setup_s, setup_raw, warmup)] + children
        steady = all(s is not None and s[2] == warmup for s in setups)
        setups = [s for s in setups if s is not None]
        metrics, raw, detail, first = timed_run(workload, args.seconds, tally, calibration)
        metrics["setup_s"] = (statistics.median(s[0] for s in setups), "s")
        raw["setup_s"] = (statistics.median(s[1] for s in setups), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    mismatches = golden_mismatches(args.workload, args.seed, first)
    if mismatches:
        print(f"{mismatches} leading outputs differ from golden.json", file=sys.stderr)
        tally.failed += mismatches
    if not steady:
        print("set-up failed or its warm-up output differs between processes",
              file=sys.stderr)

    def as_json(figures):
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in figures.items()}

    result = {"correct": steady and tally.failed == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": as_json(metrics)}
    env = environment(args)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"env": env, "result": result, "uncalibrated": as_json(raw),
                                 "detail": as_json(detail)}, sort_keys=True) + "\n")
    print("uncalibrated " + json.dumps(as_json(raw)))
    if detail:
        print("detail " + json.dumps(as_json(detail)))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
