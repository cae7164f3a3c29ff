"""Rewrite golden.json: digests of each workload's leading operations.

    python3 perfbench/golden.py

The benchmark compares its first GOLDEN_OPS outputs at the default seed
with these digests. A change that only makes cicsim faster must leave them
as they are; rewrite them only when outputs change on purpose.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> None:
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(run.seed_bytes(run.DEFAULT_SEED))
        digests = []
        for i in range(run.GOLDEN_OPS):
            out = workload.op(i)
            workload.check(i, out)
            digests.append(workload.digest(out).hex())
        golden[name] = digests
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
