#!/usr/bin/env python3
"""Record oracle.json: the expected exit code and stdout digest of every op.

    python3 bench/record_oracle.py --seeds 0 1 2 3 4

Runs one untraced pass per workload and seed on the checked-out program.
Word pools and relabellings are chosen so that an op's output does not
depend on the seed; recording fails if two seeds disagree on any op.
Record only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, BenchError, pass_s, prepare, worker
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    oracle = {}
    for workload in workloads.WORKLOADS:
        expected = {}
        for seed in args.seeds:
            result = worker("pass", prepare(workload, seed))
            for op in result["ops"]:
                if op["exit"] is None:
                    raise BenchError(f"{workload} seed {seed}: op {op['label']} raised:\n"
                                     f"{op['stderr']}")
                got = {"exit": op["exit"], "sha256": op["sha256"]}
                if expected.setdefault(op["label"], got) != got:
                    raise BenchError(f"{workload} seed {seed}: op {op['label']} output "
                                     "depends on the seed")
            print(f"{workload} seed {seed}: {pass_s(result, scale=False):.3f} s",
                  file=sys.stderr)
        oracle[workload] = expected
    (BENCH / "oracle.json").write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
