"""Compare two result sets of the benchmark. Reports only; never fails a build.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by `run.py --out`. Runs are paired by
(workload, seed, trace); the n-th run of a seed on one side pairs with the
n-th run of that seed on the other. For every (workload, metric) the report
gives each side's median and quartiles, the fraction of pairs the change
wins (ties count for neither side), and a verdict:

- improved: the change wins at least nine tenths of the pairs and its median
  beats the base median by more than the base's quartile distance;
- unresolved: the run-to-run spread (quartile distance over median) of
  either side is wider than the metric's bound, and not every run of the
  change beats every run of the base;
- regression: the change's median is worse than the base's by more than
  the bound (a share of the base median) set in BENCHMARK.json;
- no worse: otherwise.

Every metric of a workload is a regression when the change fails a larger
share of its operations than the base, or has more runs that are not
correct: a failed operation counts as missing every limit, and it is left
out of the latency samples, so a change that makes slow operations fail
fast would otherwise read as a gain. The report prints each side's
operations attempted and failed and its incorrect runs.

The per-kind round medians of `rice_vm` (`detail` in the records) are
reported like end-to-end metrics, with the bound of `op_ms_p50`: the
bounded percentiles follow a kind only while the kinds keep their cost
order, and these show which kind moved.

Per-layer metrics have no bound: they are improved or regression by the
nine-tenths rule on either side, no worse when both sides read identically,
and unresolved otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: {seed: [values]}}}, the environments, and
    {(workload, trace): [attempted, failed, incorrect runs]}."""
    runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    envs = set()
    ops = defaultdict(lambda: [0, 0, 0])
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            env = record["env"]
            key = (env["workload"], env["trace"])
            result = record["result"]
            metrics = {**result["metrics"], **record.get("detail", {})}
            for name, metric in metrics.items():
                runs[key][name][env["seed"]].append(metric["value"])
            tally = ops[key]
            tally[0] += result["attempted"]
            tally[1] += result["failed"]
            tally[2] += 0 if result["correct"] else 1
            envs.add(tuple((k, env[k]) for k in
                           ("commit", "cpu_model", "nproc", "python", "numpy")))
    return runs, envs, ops


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(width, median):
    return width / abs(median) if median else (0.0 if width == 0 else float("inf"))


def machine(env):
    """An environment without its commit."""
    return tuple(item for item in env if item[0] != "commit")


def fails_more(base, change):
    """Whether the change side fails a larger share of operations, or has
    more incorrect runs, than the base side ([attempted, failed, incorrect])."""
    share = [failed / attempted if attempted else 1.0 for attempted, failed, _ in (base, change)]
    return share[1] > share[0] or change[2] > base[2]


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    share = wins / len(pairs) if pairs else 0.0
    if share >= 0.9 and gain > bq3 - bq1:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > bq3 - bq1:
            return "regression", share
        if bq1 == bq3 == cq1 == cq3:
            return "no worse", share
        return "unresolved", share
    spread = max(relative(bq3 - bq1, bmed), relative(cq3 - cq1, cmed))
    beats_all = all(sign * (c - b) > 0 for b in base for c in change)
    if spread > bound and not beats_all:
        return "unresolved", share
    if -gain > bound * abs(bmed):
        return "regression", share
    return "no worse", share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    rules.update({f"{kind}_round_ms_p50": ("lower", rules["op_ms_p50"][1])
                  for kind in ("compute", "update", "insert")})
    (base, base_env, base_ops), (change, change_env, change_ops) = load(argv[0]), load(argv[1])
    for label, envs in (("base", base_env), ("change", change_env)):
        for env in sorted(envs):
            print(f"{label} env: " + ", ".join(f"{k}={v}" for k, v in env))
    if {machine(e) for e in base_env} != {machine(e) for e in change_env}:
        print("warning: the two sides ran on different machines or toolchains")
    print(f"{'workload':15} {'metric':30} {'base median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'wins':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, _ = key
        failing = fails_more(base_ops[key], change_ops[key])
        for label, (attempted, failed, incorrect) in (("base", base_ops[key]),
                                                      ("change", change_ops[key])):
            print(f"{workload:15} {label} operations: {attempted} attempted, {failed} failed, "
                  f"{incorrect} incorrect runs")
        if failing:
            print(f"{workload:15} the change fails more: every metric is a regression")
        for name in sorted(set(base[key]) & set(change[key])):
            if name not in rules:
                continue
            b_runs, c_runs = base[key][name], change[key][name]
            pairs = [pair for seed in sorted(set(b_runs) & set(c_runs))
                     for pair in zip(b_runs[seed], c_runs[seed])]
            b_all = [v for vs in b_runs.values() for v in vs]
            c_all = [v for vs in c_runs.values() for v in vs]
            better, bound = rules[name]
            word, share = verdict(b_all, c_all, pairs, better, bound)
            if failing:
                word = "regression"
            bq1, bmed, bq3 = quartiles(b_all)
            cq1, cmed, cq3 = quartiles(c_all)
            print(f"{workload:15} {name:30} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b_all)}':>38} "
                  f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] n={len(c_all)}':>38} "
                  f"{share:6.2f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
