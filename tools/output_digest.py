"""Print the output digest of untraced benchmark runs, one per seed.

    python3 tools/output_digest.py smoke-nc 0 2027

Runs the workload once at each seed in turn, in this process, through
``perfbench/child.py``'s ``run_child``, and prints one line per seed: the
digest the benchmark compares between its children, the SHA-256 of
``metrics.csv`` and ``rounds.jsonl`` (of the reports, for ``gradcheck``).
Two commits that print the same digest for a workload and seed wrote the
same outputs. If any run's checks fail, the failures go to standard error
and the exit status is 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int, nargs="+")
    args = parser.parse_args(argv)
    for var in child.THREAD_VARS:  # as the benchmark sets them for its children
        os.environ[var] = "1"
    failed = 0
    for seed in args.seed:
        with tempfile.TemporaryDirectory() as workdir:
            result = child.run_child({"workload": args.workload, "seed": seed,
                                      "trace": False, "dry": False,
                                      "run_id": f"{args.workload}-s{seed}-digest",
                                      "workdir": workdir})
        print(result.get("digest"))
        for failure in result["failures"]:
            print(failure, file=sys.stderr)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
