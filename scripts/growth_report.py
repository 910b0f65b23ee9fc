#!/usr/bin/env python3
"""Growth survey over a directory of instance configs.

For every config, prints the ball/sphere growth table around the unit and
a heuristic classification of the ball sizes.  Useful for eyeballing how
the shipped instances compare.

    python3 scripts/growth_report.py configs/ --radius 8
"""

import argparse
import pathlib
import sys

from mvgroups import load_instance
from mvgroups.cayley import ball
from mvgroups.cli import emit_table, growth_rows
from mvgroups.dynamics import classify_growth
from mvgroups.errors import InsufficientData, MvGroupsError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config_dir", type=pathlib.Path)
    parser.add_argument("--radius", type=int, default=8)
    args = parser.parse_args()

    for path in sorted(args.config_dir.glob("*.json")):
        print(f"== {path.stem} ==")
        try:
            inst = load_instance(path)
            table = ball(inst.X, inst.x_generators, inst.X.unit, args.radius,
                         budget=inst.config.default_budget)
        except MvGroupsError as exc:
            print(f"skipped: {exc}\n")
            continue
        emit_table("csv", growth_rows(table))
        try:
            record = classify_growth(table.ball_sizes)
            extra = (f" degree~{record.degree:.2f}" if record.degree is not None
                     else f" base~{record.base:.2f}" if record.base is not None else "")
            print(f"classification: {record.kind}{extra} (heuristic)")
        except InsufficientData:
            print("classification: needs a larger radius")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
