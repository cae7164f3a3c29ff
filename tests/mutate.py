"""Mutation audit of the checks: does every check have a test that fails when it is wrong?

    python tests/mutate.py

Each function in `TARGETS`, named by its `src/cicsim` module and qualified
name, gets mutants that each change one site of its body:

* a comparison replaced by its negation (`<` by `>=`, `==` by `!=`, `is` by
  `is not`, `in` by `not in`, and back);
* `and` swapped with `or`;
* a `not` dropped;
* the whole body replaced by a constant return (`return True` and
  `return False`, or `return None` where the function returns no value).

A mutant is written, by `ast.unparse` of its whole module, into a temporary
copy of the repository, never into the working tree, and the module's named
test subset (`TESTS`) runs there with `pytest -x`. The mutant is killed if a
test fails or the run times out, and survives if every test passes. Each
module's unmutated `ast.unparse` runs first, so a subset that fails without a
mutant is reported instead of counting its mutants as killed. At most
`os.cpu_count()` pytest processes run at once, each in its own copy. The
file's name keeps it out of pytest's collection; the run takes minutes and
is not part of the test suite.
"""

from __future__ import annotations

import ast
import copy
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# every function whose result gates a refusal, an audited column, a criterion or a replay verdict
TARGETS = [
    "randomness:sortition_bound", "randomness:check_sort", "randomness:SortitionOracle.verify",
    "merkle_state:MerkleRoot.__post_init__", "merkle_state:prove_inclusion",
    "merkle_state:verify_inclusion", "merkle_state:StorageTree._refresh",
    "rice:exponent_of_total", "rice:phi_bounds", "rice:check_phi_bounds",
    "rice:check_total_exponent", "rice:strong_unmatched",
    "miracle:ConsensusParams.__post_init__", "miracle:RoundTally.__post_init__",
    "miracle:threshold", "miracle:update_likelihoods", "miracle:step",
    "protocol:MasterContract.submit_commit", "protocol:MasterContract.submit_reveal",
    "protocol:MasterContract.submit_witness", "protocol:MasterContract.tick",
    "protocol:MasterContract.close_round", "protocol:MasterContract.settle",
    "protocol:replay_check",
    "experiments:seed_from_hex", "experiments:ExperimentSpec.__post_init__",
    "experiments:simulate_two_root", "experiments:audit_event_log",
    "experiments:rice_overhead_rows", "experiments:protocol_batch_rows", "experiments:Kind.passed",
    "experiments:replay", "toy_vm:ComputeModel.start",
]

# module -> the test files its mutants run against; any other module runs
# test_<module>.py and test_refusals.py
TESTS = {
    "randomness": ["test_randomness.py", "test_contract_model.py", "test_refusals.py"],
    "merkle_state": ["test_merkle_state.py", "test_toy_vm.py", "test_rice.py", "test_refusals.py"],
    "protocol": ["test_protocol.py", "test_contract_model.py", "test_refusals.py"],
    "experiments": ["test_experiments.py", "test_artifacts.py", "test_refusals.py"],
    "toy_vm": ["test_toy_vm.py", "test_rice.py", "test_refusals.py"],
}

NEGATED = {ast.Eq: ast.NotEq, ast.Lt: ast.GtE, ast.Gt: ast.LtE, ast.Is: ast.IsNot,
           ast.In: ast.NotIn}
NEGATED |= {b: a for a, b in NEGATED.items()}


def find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == name)
    return node


def replace_child(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for name, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, name, new)
        elif isinstance(value, list) and any(v is old for v in value):
            value[[v is old for v in value].index(True)] = new


def negate(i: int):
    return lambda node, parent: node.ops.__setitem__(i, NEGATED[type(node.ops[i])]())


def swap_bool_op(node: ast.BoolOp, parent) -> None:
    node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()


def drop_not(node: ast.UnaryOp, parent) -> None:
    replace_child(parent, node, node.operand)


def constant_return(constant):
    return lambda node, parent: setattr(node, "body", [ast.Return(ast.Constant(constant))])


def sites(func: ast.FunctionDef):
    """(line, label, index, change) for each mutant of `func`: `change(node, parent)`
    mutates the `index`-th node of `ast.walk(func)`, or the function itself at None."""
    for index, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                label = f"{type(op).__name__} -> {NEGATED[type(op)].__name__}"
                yield node.lineno, label, index, negate(i)
        elif isinstance(node, ast.BoolOp):
            yield node.lineno, "And <-> Or", index, swap_bool_op
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.lineno, "drop not", index, drop_not
    returns = any(isinstance(n, ast.Return) and n.value is not None for n in ast.walk(func))
    for constant in (True, False) if returns else (None,):
        yield func.lineno, f"return {constant}", None, constant_return(constant)


def mutant_source(tree: ast.Module, qualname=None, index=None, change=None) -> str:
    """The module's source by `ast.unparse`, with one change made to a copy of `qualname`."""
    tree = copy.deepcopy(tree)
    if change:
        func = find(tree, qualname)
        nodes = list(ast.walk(func))
        node = func if index is None else nodes[index]
        parent = next((p for p in nodes for c in ast.iter_child_nodes(p) if c is node), None)
        change(node, parent)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(workdir: Path, module: str, source: str, timeout: float, live: set) -> str:
    """'killed', 'timeout' or 'survived': the module's test subset on `source`; its pytest
    process, the leader of its own process group, is in `live` while it runs."""
    path = workdir / "src" / "cicsim" / f"{module}.py"
    original = path.read_text()
    path.write_text(source)
    tests = [f"tests/{name}" for name in TESTS.get(module, [f"test_{module}.py", "test_refusals.py"])]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *tests], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    live.add(proc)
    try:
        status = "survived" if proc.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:     # a mutant that loops forever
        status = "timeout"
    finally:
        stop(proc, live)
        path.write_text(original)
    return status


def stop(proc: subprocess.Popen, live: set) -> None:
    live.discard(proc)
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def main() -> int:
    jobs = os.cpu_count() or 1
    trees, mutants = {}, []
    for target in TARGETS:
        module, qualname = target.split(":")
        if module not in trees:
            trees[module] = ast.parse((ROOT / "src" / "cicsim" / f"{module}.py").read_text())
        for line, label, index, change in sites(find(trees[module], qualname)):
            mutants.append((target, line, label, (index, change)))
    with tempfile.TemporaryDirectory(prefix="cicsim-mutate-") as scratch:
        copies, live = queue.Queue(), set()
        for i in range(jobs):
            workdir = Path(scratch) / f"copy{i}"
            for part in ("src", "tests", "demos", "perfbench"):
                shutil.copytree(ROOT / part, workdir / part,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            for name in ("README.md", "pyproject.toml"):
                shutil.copy(ROOT / name, workdir / name)
            copies.put(workdir)

        def run(module, source, timeout):
            workdir = copies.get()
            try:
                start = time.monotonic()
                return run_tests(workdir, module, source, timeout, live), time.monotonic() - start
            finally:
                copies.put(workdir)

        signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))     # so that `finally` runs
        futures, results = [], []
        with ThreadPoolExecutor(jobs) as pool:
            try:
                # each module's unmutated run sets its mutants' timeout: ten times its duration
                baselines = {m: pool.submit(run, m, mutant_source(t), 3600)
                             for m, t in trees.items()}
                timeouts = {m: 10 * b.result()[1] + 30 for m, b in baselines.items()}
                broken = sorted(m for m, b in baselines.items() if b.result()[0] != "survived")
                for module in broken:
                    print(f"{module}: its tests fail without a mutant; its mutants are skipped")
                for target, line, label, (index, change) in mutants:
                    module, qualname = target.split(":")
                    if module not in broken:
                        source = mutant_source(trees[module], qualname, index, change)
                        futures.append((target, line, label,
                                        pool.submit(run, module, source, timeouts[module])))
                for target, line, label, future in futures:
                    results.append((target, line, label, future.result()[0]))
                    print(f"{results[-1][3]:8} {target}:{line} {label}", flush=True)
            finally:
                for *_, future in futures:
                    future.cancel()
                for proc in list(live):
                    stop(proc, live)

    print("\n| function | mutants | killed | survived |\n| --- | --- | --- | --- |")
    for target in dict.fromkeys(r[0] for r in results):
        statuses = [r[3] for r in results if r[0] == target]
        survived = statuses.count("survived")
        print(f"| `{target}` | {len(statuses)} | {len(statuses) - survived} | {survived} |")
    survivors = [r for r in results if r[3] == "survived"]
    print("\n| survivor | line | mutant |\n| --- | --- | --- |")
    for target, line, label, _ in survivors:
        print(f"| `{target}` | {line} | {label} |")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main())
