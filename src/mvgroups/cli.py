"""Command-line entry point.

Exit codes: 0 = success / all verdicts pass, 1 = a verdict failed,
2 = usage or config error, 3 = an enumeration overran the budget, which
the one line on stderr names.  Output is deterministic for fixed config
and flags.

A well-formed command line is parsed straight from the option table in
`_COMMANDS`; argparse, built from the same table, parses only the rest.
"""

from __future__ import annotations

import collections
import contextlib
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, List, Optional, Sequence

from .cayley import BALL, POWERS, SUPPORTS, GrowthTable, ball, compare_generating_sets, power_table
from .dynamics import CLASSIFY_MIN_ROWS, bounds_check, classify_growth, iterate_dynamic
from .errors import BudgetExceeded, MvGroupsError
from .groups import Budget
from .mvalued import CosetGroup, MvGroup, check_axioms
from .verify import SUITES, run_suite, sample_elements
from .wordspec import Instance, load_instance


def _int_at_least(low: int):
    """An option type: an int that is at least `low`.  Named int, so that
    argparse reports a non-int as an int type does; only the check of
    `low` imports argparse, for its message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            import argparse
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


# A row of the option table: what `add_argument` is given, and all the
# direct parse reads; a `type` of None keeps the text as it is.
_Option = collections.namedtuple(
    "_Option", "flags dest type default choices required store_true help",
    defaults=(None, None, None, False, False, None))


_COMMON = (_Option(("-c", "--config"), "config", required=True, help="instance config JSON file"),
           _Option(("--budget",), "budget", _int_at_least(1),
                   help="node budget override (default from config, else 10^6)"))
_RADIUS = _Option(("--radius",), "radius", int)
_CSV_OR_JSON = _Option(("--format",), "format", default="csv", choices=("csv", "json"))
# the element and stats flags of every per-radius table
_TABLE = (_Option(("--emit-elements",), "emit_elements", default=False, store_true=True),
          _Option(("--stats",), "stats", default=False, store_true=True,
                  help="one JSON line on stderr: the radius reached, and per layer its size"))


def build_parser():
    """The argparse parser, from the option table.  `run` builds it only
    for a command line the direct parse refuses, to print help or a usage
    error, or to parse the forms only argparse reads."""
    import argparse
    parser = argparse.ArgumentParser(prog="mvgroups",
                                     description="Exact computation with n-valued groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for o in options:
            kwargs = ({"action": "store_true"} if o.store_true
                      else {"type": o.type, "choices": o.choices})
            p.add_argument(*o.flags, dest=o.dest, default=o.default, required=o.required,
                           help=o.help, **kwargs)
    return parser


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """argv parsed straight from the option table when it is well formed:
    the command, then options by their exact strings, each value one token
    not led by '-' that passes the option's type and choices, a repeat
    keeping the last, every required option given.  Else None, and argparse
    parses it: help, abbreviations, '=' forms and usage errors are its alone."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    by_flag = {flag: o for o in options for flag in o.flags}
    values = {o.dest: o.default for o in options}
    tokens = iter(argv[1:])
    for token in tokens:
        o = by_flag.get(token)
        if o is None:
            return None
        if o.store_true:
            values[o.dest] = True
            continue
        text = next(tokens, "-")  # a missing value reads as dash-led
        try:
            value = None if text.startswith("-") else (o.type or str)(text)
        except Exception:  # argparse words the refusal
            return None
        if value is None or o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    missing = any(o.required and values[o.dest] is None for o in options)  # None until given
    return None if missing else SimpleNamespace(command=argv[0], **values)


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
def _stats(args, budget: Budget, walk: str):
    """With --stats, the budget's layer observer, which keeps the layers of
    the enumeration named `walk` alone; on the way out, also when the
    budget stops a walk, its one JSON line goes to stderr: the last radius
    completed, and each completed layer's size and seconds.

    This is the one place a walk is timed: each report (r, size) of `walk`
    is stamped as it arrives, and a layer's seconds are those since the
    report before it.  The first layer is the walk's start set, which no
    step forms, so it reads 0."""
    if not args.stats:
        yield
        return
    done: List[tuple] = []  # (r, size, clock at its report) per completed layer
    budget.observer = lambda name, r, size: name == walk and done.append(
        (r, size, time.perf_counter()))
    try:
        yield
    finally:
        stamps = [stamp for _, _, stamp in done]
        layers = [{"r": r, "size": size, "seconds": stamp - before}
                  for (r, size, stamp), before in zip(done, stamps[:1] + stamps)]
        print(json.dumps({"command": args.command, "radius": done[-1][0] if done else -1,
                          "layers": layers}), file=sys.stderr)


def _cmd_axioms(args, instance: Instance) -> int:
    X = instance.X
    report = check_axioms(X, sample_elements(instance, args.sample + 1, instance.budget),
                          instance.budget)
    if args.format == "json":
        _emit(json.dumps({"schema": 1, **report.to_record(render=X.render)}, indent=2))
    else:
        _emit(report.to_text(render=X.render))
    return 0 if report.all_ok else 1


def _cmd_growth(args, instance: Instance) -> int:
    X = instance.X
    center = instance.element(args.center) if args.center is not None else X.unit
    with _stats(args, instance.budget, BALL):
        table = ball(X, instance.x_generators, center, _radius(instance, args.radius),
                     instance.budget)
    emit_table(args.format, growth_rows(table), {"center": X.render(table.center)},
               _elements(args, X, "spheres", table.sphere_sets))
    return 0


def _cmd_dynamics(args, instance: Instance) -> int:
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
    with _stats(args, instance.budget, SUPPORTS):
        if args.bounds:
            bounds = bounds_check(X, instance.backend_element(args.z), y, steps, instance.budget)
            table = bounds.dynamics_table
        else:
            table = iterate_dynamic(X, z, y, steps, instance.budget)

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


def _cmd_powers(args, instance: Instance) -> int:
    X = instance.X
    x = instance.element(args.x)
    with _stats(args, instance.budget, POWERS):
        table = power_table(X, x, _radius(instance, args.radius), instance.budget)
    rows = [{"r": r, "bstar": size, "sstar_size": len(sphere)}
            for r, (size, sphere) in enumerate(zip(table.bstar_sizes, table.sstar_sets))]
    emit_table(args.format, rows, {"base": X.render(table.base)},
               _elements(args, X, "sstar", table.sstar_sets))
    return 0


def _cmd_compare(args, instance: Instance) -> int:
    X = instance.X
    if not instance.x_generators:
        raise MvGroupsError("compare needs X_generators")
    gens2 = [instance.element(w) for w in args.gens2.split(",") if w.strip()]
    if not gens2:
        raise MvGroupsError("--gens2 must list at least one word")
    y2 = instance.element(args.center2) if args.center2 is not None else X.unit
    report = compare_generating_sets(
        X, instance.x_generators, gens2, y2,
        _radius(instance, args.radius), instance.budget)
    _emit(f"constant l={report.constant}")
    for r, lower, middle, upper in report.rows:
        verdict = "pass" if r not in report.violations else "fail"
        _emit(f"{r},{lower},{middle},{upper},{verdict}")
    status = "PASS" if report.ok else "FAIL"
    _emit(f"{status} compare r={report.rows[-1][0]} l={report.constant}")
    return 0 if report.ok else 1


def _cmd_verify(args, instance: Instance) -> int:
    result = run_suite(args.suite, instance, args.radius, instance.budget)
    _emit(result.render())
    return 0 if result.ok else 1


# command -> (help, its option table, its handler)
_COMMANDS = {
    "axioms": ("check the n-valued group axioms", (
        *_COMMON, _Option(("--sample",), "sample", _int_at_least(0), 10,
                          help="the unit and up to SAMPLE more elements of an infinite "
                               "carrier (a finite one is checked whole)"),
        _Option(("--format",), "format", default="text", choices=("text", "json"))), _cmd_axioms),
    "growth": ("growth table of balls and spheres", (
        *_COMMON, _Option(("--center",), "center", help="center element word (default: unit)"),
        _RADIUS, _CSV_OR_JSON, *_TABLE), _cmd_growth),
    "dynamics": ("iterate the dynamic T_z and report xi", (
        *_COMMON, _Option(("--z",), "z", required=True, help="word defining z"),
        _Option(("--y",), "y", help="starting point word (default: unit)"),
        _Option(("--steps",), "steps", _int_at_least(0)),
        _Option(("--bounds",), "bounds", default=False, store_true=True,
                help="check the monoid-ball sandwich (coset instances)"),
        _Option(("--classify",), "classify", default=False, store_true=True),
        _CSV_OR_JSON, *_TABLE), _cmd_dynamics),
    "powers": ("power supports B*/S* of an element", (
        *_COMMON, _Option(("--x",), "x", required=True, help="base element word"),
        _RADIUS, _CSV_OR_JSON, *_TABLE), _cmd_powers),
    "compare": ("generating-set growth equivalence sandwich", (
        *_COMMON, _Option(("--gens2",), "gens2", required=True,
                          help="comma-separated words for S'"),
        _Option(("--center2",), "center2", help="second center word (default: unit)"),
        _RADIUS), _cmd_compare),
    "verify": ("run a named verification suite", (
        *_COMMON, _Option(("--suite",), "suite", choices=SUITES, required=True), _RADIUS),
        _cmd_verify),
}


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # argparse only for what the direct parse refuses
        args = _parse(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        instance = load_instance(args.config, args.budget)
        return _COMMANDS[args.command][2](args, instance)
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
