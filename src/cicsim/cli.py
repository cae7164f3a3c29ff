"""Command-line entry points for the experiment harness.

Six subcommands each run one experiment kind (`COMMANDS`); the
`rice_unmatched` kind has no subcommand and runs only through
`experiments.run`. A subcommand's flags set its kind's parameters, and a
flag left out takes the kind's default from `experiments.KINDS`. Two
utilities complete the set: `rice-trace` emits a single run's update
schedule as JSON lines, and `replay` re-executes a recorded protocol log,
verifies it bit-exactly and reports where it first diverges.
Every run is pinned by --seed; identical invocations produce identical
artifacts. The process exits 1 if any invariant audited by the requested
experiment fails or a `--scenario` run stops at the block cap, and 2 with
an `error:` line on input it cannot use: a missing or unreadable file, a
malformed scenario or event log, a bad seed, a config file that is not a
JSON object, a parameter the experiment does not read or of another type
than its default, a consensus parameter, a Byzantine fraction `--f` (in
[0, 1], above `--f-max` allowed) or a `rice-overhead` length range (2 <= t_lo
<= t_hi) outside its domain, `rice-overhead` runs that all have one phi (the
fit's R^2 is undefined), a `--max-parallel` or `--rounds` below 1, a
`rice-trace --eta` outside [0, 2**256 - 1], an `adaptive` target round count
that no q in (0, 1) reaches (NaN included), or a `protocol-run` flag that the
presence or absence of `--scenario` would leave unused.
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

# experiment subcommand -> the experiment kind it runs
COMMANDS = {"miracle-mc": "miracle_sweep", "adaptive": "adaptive_rounds",
            "es-sizing": "es_sizing", "rice-overhead": "rice_overhead",
            "protocol-run": "protocol_run", "utility": "utility_surface"}


def _add_common(parser: argparse.ArgumentParser, trials: int) -> None:
    # --seed and --trials default to None, so `protocol-run --scenario` can
    # tell a given flag from a default; `_spec` fills the defaults in
    parser.add_argument("--seed", help="hex experiment seed")
    parser.add_argument("--trials", type=int, help=f"default {trials}")
    parser.set_defaults(default_trials=trials)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--config", default=None,
                        help="JSON file of extra experiment parameters")


def _spec(args: argparse.Namespace) -> experiments.ExperimentSpec:
    """The command's spec: one parameter per flag the kind reads, the
    flag's value if given and the kind's default if not, then `--config`."""
    kind = COMMANDS[args.command]
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
        kind=kind, params=params,
        trials=args.default_trials if args.trials is None else args.trials,
        seed=DEFAULT_SEED if args.seed is None else args.seed, out=args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cicsim", description="off-chain contract execution simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    # experiment flags default to None: the kind's own default applies
    p = sub.add_parser("miracle-mc", help="consensus Monte Carlo sweep")
    _add_common(p, trials=2000)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--beta", dest="betas", type=float, action="append")
    p.add_argument("--f", dest="f_values", type=float, action="append")
    p.add_argument("--f-max", type=float)

    p = sub.add_parser("adaptive", help="rounds vs actual Byzantine fraction")
    _add_common(p, trials=10_000)
    p.add_argument("--m", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--f-max", type=float)
    p.add_argument("--target-rounds", type=float)
    p.add_argument("--f", dest="f_values", type=float, action="append")

    p = sub.add_parser("es-sizing", help="one-round set sizing and the majority baseline")
    _add_common(p, trials=1)
    p.add_argument("--m", type=int)
    p.add_argument("--beta", type=float)

    p = sub.add_parser("rice-trace", help="update schedule of one traced run")
    p.add_argument("--seed", default=DEFAULT_SEED, help="hex round-1 entropy")
    p.add_argument("--eta", type=int, default=200, help="benchmark iterations")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rice-overhead", help="schedule bounds over a T sweep")
    _add_common(p, trials=1000)
    p.add_argument("--t-lo", type=int)
    p.add_argument("--t-hi", type=int)

    p = sub.add_parser("protocol-run", help="randomized full-protocol batch")
    _add_common(p, trials=50)
    p.add_argument("--max-parallel", type=int)
    p.add_argument("--scenario", default=None,
                   help="run one scenario JSON file and write its event log")
    p.add_argument("--log", default=None, help="event log output path")

    p = sub.add_parser("utility", help="incentive inequality surface")
    _add_common(p, trials=10_000)

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
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    if not spec.out:
        sys.stdout.write(experiments.render_csv(rows, meta))
    return 0 if experiments.KINDS[spec.kind].passed(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
