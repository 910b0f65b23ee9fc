#!/usr/bin/env python3
"""Dynamics survey: xi growth of T_z for each declared generator.

For every config in the directory, iterates the dynamic T_z from the unit
for each X-generator z, prints the xi table, and (for coset instances)
checks the monoid-ball sandwich at every radius.

    python3 scripts/dynamics_report.py configs/ --steps 12
"""

import argparse
import pathlib
import sys

from mvgroups import load_instance
from mvgroups.dynamics import bounds_check, iterate_dynamic
from mvgroups.errors import MvGroupsError
from mvgroups.mvalued import CosetGroup
from mvgroups.wordspec import render_word


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config_dir", type=pathlib.Path)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    for path in sorted(args.config_dir.glob("*.json")):
        print(f"== {path.stem} ==")
        try:
            inst = load_instance(path)
        except MvGroupsError as exc:
            print(f"skipped: {exc}\n")
            continue
        X = inst.X
        for word, g, z in zip(inst.config.x_words, inst.config.x_generators,
                              inst.x_generators):
            label = render_word(word)
            try:
                if isinstance(X, CosetGroup):
                    report = bounds_check(X, g, X.unit, args.steps,
                                          budget=inst.config.default_budget)
                    status = "sandwich ok" if report.ok else "SANDWICH VIOLATED"
                    xi = report.dynamics_table.xi
                    print(f"z={label}: xi={xi} ({status})")
                else:
                    table = iterate_dynamic(X, z, X.unit, args.steps,
                                            budget=inst.config.default_budget)
                    print(f"z={label}: xi={table.xi}")
            except MvGroupsError as exc:
                print(f"z={label}: skipped ({exc})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
