"""Command-line entry point.

Exit codes: 0 = success / all verdicts pass, 1 = a verdict failed,
2 = usage or config error, 3 = a BFS budget was exceeded.  Output is
deterministic for fixed config and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Any, List, Optional, Sequence

from .cayley import GrowthTable, ball, compare_generating_sets, power_table
from .dynamics import CLASSIFY_MIN_ROWS, bounds_check, classify_growth, iterate_dynamic
from .errors import BudgetExceeded, MvGroupsError
from .mvalued import CosetGroup, MvGroup, check_axioms
from .verify import SUITES, run_suite, sample_elements
from .wordspec import Instance, load_instance


def _int_at_least(low: int):
    """An argparse type: an int that is at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("-c", "--config", required=True, help="instance config JSON file")
    parser.add_argument("--budget", type=_int_at_least(1), default=None,
                        help="node budget override (default from config, else 10^6)")


def _axioms_args(p: argparse.ArgumentParser):
    p.add_argument("--sample", type=_int_at_least(0), default=10,
                   help="the unit and up to SAMPLE more elements of an infinite "
                        "carrier (a finite one is checked whole)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _growth_args(p: argparse.ArgumentParser):
    p.add_argument("--center", default=None, help="center element word (default: unit)")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _table_args(p)


def _table_args(p: argparse.ArgumentParser):
    """The element and stats flags of every per-radius table."""
    p.add_argument("--emit-elements", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="one JSON line on stderr: the radius reached, and per layer its size")


def _dynamics_args(p: argparse.ArgumentParser):
    p.add_argument("--z", required=True, help="word defining z")
    p.add_argument("--y", default=None, help="starting point word (default: unit)")
    p.add_argument("--steps", type=_int_at_least(0), default=None)
    p.add_argument("--bounds", action="store_true",
                   help="check the monoid-ball sandwich (coset instances)")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _table_args(p)


def _powers_args(p: argparse.ArgumentParser):
    p.add_argument("--x", required=True, help="base element word")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _table_args(p)


def _compare_args(p: argparse.ArgumentParser):
    p.add_argument("--gens2", required=True, help="comma-separated words for S'")
    p.add_argument("--center2", default=None, help="second center word (default: unit)")
    p.add_argument("--radius", type=int, default=None)


def _verify_args(p: argparse.ArgumentParser):
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--radius", type=int, default=None)


@functools.lru_cache(maxsize=None)
def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser with only the subparser of `command` when that names a
    command, else with all of them.  Either way the usage line lists every
    command, so top-level help and errors read the same.  Built once per
    key and process: `run` keys it by the command, or None for anything
    else, so a process holds at most one parser per command and one more.
    Every call shares the parser: `parse_args` leaves it as it found it,
    and no caller may add to it."""
    parser = argparse.ArgumentParser(prog="mvgroups",
                                     description="Exact computation with n-valued groups")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    metavar = "{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        add_arguments(p)
    return parser


def _radius(instance: Instance, value: Optional[int]) -> int:
    return value if value is not None else instance.config.default_radius


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, Fraction):
        return f"{float(value):.6g}"
    return str(value)


def emit_table(fmt: str, rows: List[dict], head: dict, extra: dict):
    """Print a per-radius table: the one output path of growth, powers and dynamics.

    csv: a header made of the row keys, then one line per row; a bool prints
    as pass/fail, a Fraction as %.6g, anything else as str.  json:
    {"schema": 1, **head, "rows": rows, **extra} with every Fraction in a row
    as a float; `head` and `extra` (element sets, classification) are JSON only.
    """
    if fmt == "json":
        json_rows = [{k: float(v) if isinstance(v, Fraction) else v for k, v in row.items()}
                     for row in rows]
        _emit(json.dumps({"schema": 1, **head, "rows": json_rows, **extra}, indent=2))
    else:
        _emit("\n".join([",".join(rows[0]),
                         *(",".join(map(_csv_cell, row.values())) for row in rows)]))


def growth_rows(table: GrowthTable) -> List[dict]:
    """One row per radius: r, |B(x, r)| and |S(x, r)|."""
    return [{"r": r, "ball": size, "sphere": len(sphere)}
            for r, (size, sphere) in enumerate(zip(table.ball_sizes, table.sphere_sets))]


def _elements(args, X: MvGroup, key: str, sets: Sequence[Sequence[Any]]) -> dict:
    """The rendered element sets under `key` when --emit-elements is given,
    each sorted by its canonical forms, which then print: walks leave them unordered."""
    return ({key: [list(map(X.render_form, sorted(map(X.canonical, s)))) for s in sets]}
            if args.emit_elements else {})


@contextlib.contextmanager
def _stats(args):
    """The layer callback of --stats, None without it; on the way out, also
    when the budget stops the walk, its one JSON line goes to stderr: the
    last radius completed, and each completed layer's size and seconds.

    This is the one place a walk is timed: each report (r, size) is stamped
    as it arrives, and a layer's seconds are those since the report before
    it.  The first layer is the walk's start set, which no step forms, so
    it reads 0."""
    if not args.stats:
        yield None
        return
    done: List[tuple] = []  # (r, size, clock at its report) per completed layer
    try:
        yield lambda r, size: done.append((r, size, time.perf_counter()))
    finally:
        stamps = [stamp for _, _, stamp in done]
        layers = [{"r": r, "size": size, "seconds": stamp - before}
                  for (r, size, stamp), before in zip(done, stamps[:1] + stamps)]
        print(json.dumps({"command": args.command, "radius": done[-1][0] if done else -1,
                          "layers": layers}), file=sys.stderr)


def _cmd_axioms(args, instance: Instance, budget: int) -> int:
    X = instance.X
    report = check_axioms(X, sample_elements(instance, limit=args.sample + 1, budget=budget))
    if args.format == "json":
        _emit(json.dumps({"schema": 1, **report.to_record(render=X.render)}, indent=2))
    else:
        _emit(report.to_text(render=X.render))
    return 0 if report.all_ok else 1


def _cmd_growth(args, instance: Instance, budget: int) -> int:
    X = instance.X
    center = instance.element(args.center) if args.center is not None else X.unit
    with _stats(args) as on_layer:
        table = ball(X, instance.x_generators, center, _radius(instance, args.radius), budget,
                     on_layer)
    emit_table(args.format, growth_rows(table), {"center": X.render(table.center)},
               _elements(args, X, "spheres", table.sphere_sets))
    return 0


def _cmd_dynamics(args, instance: Instance, budget: int) -> int:
    X = instance.X
    steps = _radius(instance, args.steps)
    if args.classify and steps < CLASSIFY_MIN_ROWS - 1:
        raise MvGroupsError(f"--classify needs --steps >= {CLASSIFY_MIN_ROWS - 1} "
                            f"(at least {CLASSIFY_MIN_ROWS} rows)")
    z = instance.element(args.z)
    y = instance.element(args.y) if args.y is not None else X.unit

    bounds = None
    if args.bounds and not isinstance(X, CosetGroup):
        raise MvGroupsError("--bounds requires a coset instance")
    with _stats(args) as on_layer:
        if args.bounds:
            bounds = bounds_check(X, instance.backend_element(args.z), y, steps, budget,
                                  on_layer=on_layer)
            table = bounds.dynamics_table
        else:
            table = iterate_dynamic(X, z, y, steps, budget, on_layer)

    if bounds is None:
        rows = [{"r": r, "xi": xi} for r, xi in enumerate(table.xi)]
    else:
        rows = [{"r": r, "xi": xi, "lower_bound": lower, "upper_bound": upper, "verdict": ok}
                for (r, lower, xi, upper), ok in zip(bounds.rows, bounds.verdicts)]
    # classified before anything is printed, so a failure leaves stdout empty
    c = classify_growth(table.xi) if args.classify else None
    extra = _elements(args, X, "supports", table.supports)
    if c is not None and args.format == "json":
        extra["classification"] = c._asdict()
    emit_table(args.format, rows, {"z": X.render(table.z), "y": X.render(table.y)}, extra)
    if c is not None and args.format == "csv":
        notes = []
        if c.degree is not None:
            notes.append(f"degree={c.degree:.3f}")
        if c.base is not None:
            notes.append(f"base={c.base:.3f}")
        notes.append("heuristic")
        _emit(f"classification: {c.kind} ({', '.join(notes)})")
    return 0 if bounds is None or bounds.ok else 1


def _cmd_powers(args, instance: Instance, budget: int) -> int:
    X = instance.X
    x = instance.element(args.x)
    with _stats(args) as on_layer:
        table = power_table(X, x, _radius(instance, args.radius), budget, on_layer)
    rows = [{"r": r, "bstar": size, "sstar_size": len(sphere)}
            for r, (size, sphere) in enumerate(zip(table.bstar_sizes, table.sstar_sets))]
    emit_table(args.format, rows, {"base": X.render(table.base)},
               _elements(args, X, "sstar", table.sstar_sets))
    return 0


def _cmd_compare(args, instance: Instance, budget: int) -> int:
    X = instance.X
    if not instance.x_generators:
        raise MvGroupsError("compare needs X_generators")
    gens2 = [instance.element(w) for w in args.gens2.split(",") if w.strip()]
    if not gens2:
        raise MvGroupsError("--gens2 must list at least one word")
    y2 = instance.element(args.center2) if args.center2 is not None else X.unit
    report = compare_generating_sets(
        X, instance.x_generators, gens2, X.unit, y2,
        _radius(instance, args.radius), budget=budget)
    _emit(f"constant l={report.constant}")
    for r, lower, middle, upper in report.rows:
        verdict = "pass" if r not in report.violations else "fail"
        _emit(f"{r},{lower},{middle},{upper},{verdict}")
    status = "PASS" if report.ok else "FAIL"
    _emit(f"{status} compare r={report.rows[-1][0]} l={report.constant}")
    return 0 if report.ok else 1


def _cmd_verify(args, instance: Instance, budget: int) -> int:
    result = run_suite(args.suite, instance, r_max=args.radius, budget=budget)
    _emit(result.render())
    return 0 if result.ok else 1


# command -> (help, its argument adder, its handler)
_COMMANDS = {
    "axioms": ("check the n-valued group axioms", _axioms_args, _cmd_axioms),
    "growth": ("growth table of balls and spheres", _growth_args, _cmd_growth),
    "dynamics": ("iterate the dynamic T_z and report xi", _dynamics_args, _cmd_dynamics),
    "powers": ("power supports B*/S* of an element", _powers_args, _cmd_powers),
    "compare": ("generating-set growth equivalence sandwich", _compare_args, _cmd_compare),
    "verify": ("run a named verification suite", _verify_args, _cmd_verify),
}


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        instance = load_instance(args.config, args.budget)
        budget = instance.config.default_budget if args.budget is None else args.budget
        return _COMMANDS[args.command][2](args, instance, budget)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (MvGroupsError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
