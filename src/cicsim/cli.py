"""Command-line entry points for the experiment harness.

Six subcommands each run one experiment kind (`COMMANDS`); the
`rice_unmatched` kind has no subcommand and runs only through
`experiments.run`. Each parameter of the kind in `experiments.KINDS` has a
flag, `--` and its key with `-` for `_`, of its default's type (float for a
None default); a list has one repeated flag named in `REPEATED_FLAGS` or, like
`f_max_values`, is set by `--config` only. A flag left out takes the default.
Two utilities complete the set: `rice-trace` emits a single run's update
schedule as JSON lines, and `replay` re-executes a recorded protocol log,
verifies it bit-exactly and reports where it first diverges.
Every run is pinned by --seed; identical invocations produce identical
artifacts. The process exits 1 if any invariant audited by the requested
experiment fails or a `--scenario` run stops at the block cap, and 2 with
an `error:` line on input it cannot use: a missing or unreadable file, a
malformed scenario (a bool `q`, `f_max`, `beta`, `th1` or `th2` included) or
event log, a bad seed, a config file that is not a JSON object, a parameter the
experiment does not read, of another type than its default or an empty list, a
consensus parameter, a Byzantine fraction `--f` (in [0, 1], above `--f-max`
allowed) or a `rice-overhead` length range (2 <= t_lo <= t_hi) outside its
domain, a Monte Carlo pool `--m` with M**2 + |threshold| >= 2**63 (its int64
walk could overflow), `rice-overhead` runs that all have one phi (the fit's R^2
is undefined), a `--max-parallel` or `--rounds` below 1, a `rice-trace --eta` or
a scenario `its` entry's `eta` outside [0, 2**256 - 1], an `adaptive` target
round count that no q in (0, 1) reaches (NaN included), or a `protocol-run` flag
that the presence or absence of `--scenario` would leave unused.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, miracle, protocol, rice
from .hashing import WORD_MASK, sha256
from .merkle_state import CicState
from .toy_vm import ComputeModel, compute_data

DEFAULT_SEED = sha256(b"cicsim-default-seed").hex()

# experiment subcommand -> (the experiment kind it runs, help, default trials)
COMMANDS = {"miracle-mc": ("miracle_sweep", "consensus Monte Carlo sweep", 2000),
            "adaptive": ("adaptive_rounds", "rounds vs actual Byzantine fraction", 10_000),
            "es-sizing": ("es_sizing", "one-round set sizing and the majority baseline", 1),
            "rice-overhead": ("rice_overhead", "schedule bounds over a T sweep", 1000),
            "protocol-run": ("protocol_run", "randomized full-protocol batch", 50),
            "utility": ("utility_surface", "incentive inequality surface", 10_000)}

# list parameter -> its repeated flag; a list not named here is set by --config only
REPEATED_FLAGS = {"betas": "--beta", "f_values": "--f"}


def _add_experiment(sub, command: str) -> None:
    """The subcommand's parser: the common flags, then its kind's. Flags
    default to None, so `protocol-run --scenario` can tell a given flag from
    a default; `_spec` fills the defaults in."""
    kind, help_text, trials = COMMANDS[command]
    parser = sub.add_parser(command, help=help_text)
    parser.add_argument("--seed", help="hex experiment seed")
    parser.add_argument("--trials", type=int, help=f"default {trials}")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--config", help="JSON file of extra experiment parameters")
    for key, default in experiments.KINDS[kind].defaults.items():
        if not isinstance(default, list):
            parser.add_argument("--" + key.replace("_", "-"), dest=key,
                                type=float if default is None else type(default))
        elif key in REPEATED_FLAGS:
            parser.add_argument(REPEATED_FLAGS[key], dest=key, type=type(default[0]),
                                action="append")


def _spec(args: argparse.Namespace) -> experiments.ExperimentSpec:
    """The command's spec: one parameter per flag the kind reads, the
    flag's value if given and the kind's default if not, then `--config`."""
    kind, _, trials = COMMANDS[args.command]
    params = {key: default if getattr(args, key) is None else getattr(args, key)
              for key, default in experiments.KINDS[kind].defaults.items()
              if hasattr(args, key)}
    if args.config:
        with open(args.config) as fh:
            try:
                extra = json.load(fh)
            except ValueError as exc:
                raise experiments.ConfigError(f"{args.config}: not JSON: {exc}") from None
        if not isinstance(extra, dict):
            raise experiments.ConfigError(f"{args.config}: not a JSON object")
        params = {**params, **extra}
    return experiments.ExperimentSpec(
        kind=kind, params=params, trials=trials if args.trials is None else args.trials,
        seed=DEFAULT_SEED if args.seed is None else args.seed)


def _write(text: str, out) -> None:
    """To the `out` path, or to stdout without one; `newline=""` keeps each CSV row's CRLF."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cicsim", description="off-chain contract execution simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _add_experiment(sub, command)

    p = sub.choices["protocol-run"]
    p.add_argument("--scenario", help="run one scenario JSON file and write its event log")
    p.add_argument("--log", default=None, help="event log output path")

    p = sub.add_parser("rice-trace", help="update schedule of one traced run")
    p.add_argument("--seed", default=DEFAULT_SEED, help="hex round-1 entropy")
    p.add_argument("--eta", type=int, default=200, help="benchmark iterations")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("replay", help="verify a recorded event log")
    p.add_argument("log", help="event log produced by protocol-run")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (OSError, protocol.ScenarioError, experiments.ConfigError,
            miracle.DegenerateParams, miracle.NoSolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "rice-trace":
        entropy = experiments.seed_from_hex(args.seed)
        if not 0 <= args.eta <= WORD_MASK or args.rounds < 1:
            raise experiments.ConfigError(
                "--eta must be >= 0 and --rounds >= 1, with --eta at most 2**256 - 1")
        model = ComputeModel()
        state = CicState(sha256(b"trace-cid", entropy), model.code_id)
        lines = []
        for round_index in range(1, args.rounds + 1):
            _, trace = rice.rice_execute_traced(model, state, compute_data(args.eta),
                                                round_index, entropy)
            lines.append(json.dumps({
                "round": round_index, "total": trace.total, "phi": trace.phi,
                "update_indices": list(trace.update_indices),
                "seed": trace.digest.seed.hex(),
                "root": trace.digest.root.hex()}, sort_keys=True))
        _write("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "replay":
        report = experiments.replay(args.log)
        if not report["identical"]:
            print(f"divergence: {json.dumps(report, sort_keys=True)}", file=sys.stderr)
            return 1
        print(json.dumps(report, sort_keys=True))
        return 0

    if args.command == "protocol-run" and args.scenario:
        ignored = [f"--{dest.replace('_', '-')}" for dest in
                   ("out", "trials", "max_parallel", "seed", "config")
                   if getattr(args, dest) is not None]
        if ignored:
            raise experiments.ConfigError(f"--scenario takes none of {', '.join(ignored)}")
        with open(args.scenario) as fh:
            scenario = protocol.Scenario.from_json(fh.read())
        result = protocol.run_scenario(scenario)
        audit = experiments.audit_event_log(result.events)
        if args.log:
            experiments.write_event_log(args.log, result)
        capped = any(event["type"] == "block_cap" for event in result.events[-1:])
        ok = result.conserved and all(audit.values()) and not capped
        print(json.dumps({"settled": result.settled, "blocks": result.total_blocks,
                          "events": len(result.events), "conserved": result.conserved,
                          "capped": capped, **audit}, sort_keys=True))
        return 0 if ok else 1

    if args.command == "protocol-run" and args.log:
        raise experiments.ConfigError("--log needs --scenario")
    spec = _spec(args)
    rows, meta = experiments.run(spec)
    _write(experiments.render_csv(rows, meta), args.out)
    return 0 if experiments.KINDS[spec.kind].passed(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
