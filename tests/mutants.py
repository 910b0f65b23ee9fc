"""The mutant table: each row (id, file, old, new, killers) is an edit of
one place, `old` occurring once in `file` (a path from the repository
root), and the ids of deterministic tests, none with a wall-clock bound,
that fail on it.  ``python tests/mutants.py [id ...]`` checks the rows
named, or all: every killer must first pass on an unmutated copy; then,
two rows at a time, each row is applied in a copy of ``src/``, ``tests/``,
``configs/`` and ``pyproject.toml`` (whose ``pythonpath = ["src"]`` makes
pytest import the copy's package, which ``PYTHONPATH`` alone would not)
and its killers run there under ``pytest -x``.  A row is killed only by
exit 1 with a failed test.  Nothing is written in the checkout; the exit
code is 0 only if every row is killed.  See README, Tests."""

import collections
import concurrent.futures
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
WORKERS = 2
TIMEOUT = 300  # seconds a child may take

Mutant = collections.namedtuple("Mutant", "id file old new killers")

MVALUED, GROUPS = "src/mvgroups/mvalued.py", "src/mvgroups/groups.py"
VERIFY, CLI, WORDSPEC = "src/mvgroups/verify.py", "src/mvgroups/cli.py", "src/mvgroups/wordspec.py"
STEP, CLI_TESTS = "tests/test_step.py", "tests/test_cli.py"
MVALUED_TESTS, GROUPS_TESTS = "tests/test_mvalued.py", "tests/test_groups.py"
PROOF34 = f"{STEP}::test_proof34_counts_the_ga_ball_by_a_g_walk"
PROJECT_ALL = f"{STEP}::test_project_all_matches_project_on_products_with_repeats"
PRODUCTS = f"{STEP}::test_products_match_the_scalar_products_on_every_backend_kind"
MAPS = f"{GROUPS_TESTS}::test_compiled_maps_match_the_scalar_oracle"
AXIOMS = f"{MVALUED_TESTS}::test_check_axioms_matches_unmemoized_reference"
PAIR_BUDGET = f"{CLI_TESTS}::test_the_axiom_pair_table_takes_the_command_budget[10000-3]"
AT_ITS_CAP = f"{CLI_TESTS}::test_every_enumeration_names_itself_at_its_cap"
STATS = f"{CLI_TESTS}::test_dynamics_and_powers_stats_report_each_row_and_leave_stdout_alone"
CONFIG_PATHS = f"{CLI_TESTS}::test_config_error_exits_2_naming_its_path"
BYTE_ORDER = f"{GROUPS_TESTS}::test_canonical_key_matches_byte_order[free]"
CONJUGATIONS = f"{GROUPS_TESTS}::test_every_conjugation_of_a_small_symmetric_group_matches_the_walk"
NAT_EXAMPLES = f"{MVALUED_TESTS}::test_nat_product_examples"
FLATTEN = "return tuple(sorted(itertools.chain.from_iterable(products)))"
ADDED = ("    added = list(ids)[len(classes):]\n"
         "    xw, wz = [list(map(ids.__getitem__, X.products(*p)))\n"
         "              for p in [(classes, added), (added, classes)]]\n")

MUTANTS = [
    # proof34's G-walk; from A.S it survives where S is A-invariant
    Mutant("g-walk-from-a-s", VERIFY, "walk = layers(S, lambda", "walk = layers(steps, lambda",
           [f"{PROOF34}[z2_pm1]"]),
    Mutant("g-walk-without-unit-term", VERIFY,
           "sizes.append(len(auts) * reached + (not unit_reached))",
           "sizes.append(len(auts) * reached)", [f"{PROOF34}[z_pm1]"]),
    Mutant("g-walk-a-s-for-a", VERIFY, "sizes.append(len(auts) * reached",
           "sizes.append(len(steps) * reached", [f"{PROOF34}[z2_pm1]"]),
    # orbit classes
    Mutant("fold-skips-last-move", MVALUED, "for t in self._moves:", "for t in self._moves[:-1]:",
           [f"{PROJECT_ALL}[z2_dihedral]"]),
    Mutant("fold-returns-its-batch", MVALUED, "return list(gs)", "return gs",
           [f"{STEP}::test_coset_group_of_the_trivial_automorphism_group_is_g"]),
    Mutant("double-coset-filed-under-its-greatest", MVALUED, "least = min(group)",
           "least = max(group)", [f"{PROJECT_ALL}[s3_doublecoset]"]),
    Mutant("carrier-of-g", MVALUED, "sorted(set(self.project_all(gs)), key=self.canonical)",
           "sorted(set(gs), key=self.canonical)",
           [f"{MVALUED_TESTS}::test_coset_carrier_finite_backend"]),
    Mutant("carrier-unsorted", MVALUED, "sorted(set(self.project_all(gs)), key=self.canonical)",
           "list(set(self.project_all(gs)))",
           [f"{MVALUED_TESTS}::test_double_coset_partition_matches_project_oracle[s5_by_s3]"]),
    # free words
    Mutant("free-step-keeps-last-letter", GROUPS, "else g[:-1] if one", "else g if one",
           [f"{PRODUCTS}[free2_swap]"]),
    Mutant("free-step-never-cancels", GROUPS, "else g[:-1] if one", "else g + h if one",
           [f"{PRODUCTS}[free2_swap]"]),
    Mutant("free-inverse-keeps-order", GROUPS, "return g[::-1].translate(self._flip)",
           "return g.translate(self._flip)",
           [f"{GROUPS_TESTS}::test_group_axioms_random_triples[free]"]),
    Mutant("free-key-counts-letters", GROUPS, "return (len(syllables), *[", "return (len(g), *[",
           [BYTE_ORDER]),
    Mutant("free-key-raw-exponents", GROUPS, "(i, int_key(exp)) for i, exp in syllables",
           "(i, exp) for i, exp in syllables", [BYTE_ORDER]),
    # without the sift, (1 2) -> (3 4) passes on <(1 2)>
    Mutant("conjugation-without-sift", GROUPS,
           "if c is None or any(self._sift(w) != self.identity for w in images):", "if c is None:",
           [f"{GROUPS_TESTS}::test_a_conjugation_onto_another_subgroup_is_no_automorphism"]),
    # the axiom check
    Mutant("pair-table-charged-n", MVALUED, "len(classes) ** 2, what=", "len(classes), what=",
           [PAIR_BUDGET]),
    Mutant("codes-from-consecutive-ints", MVALUED, "primes = _primes(len(ids))",
           "primes = list(range(2, len(ids) + 2))", [f"{AXIOMS}[heis_swap]"]),
    Mutant("sieve-misses-squares", MVALUED, "sieve[p * p::p] = bytes(len(range(p * p,",
           "sieve[p * p + p::p] = bytes(len(range(p * p + p,",
           [f"{MVALUED_TESTS}::test_primes_match_trial_division"]),
    Mutant("bars-read-after-added-ids", MVALUED,
           "    bars = [(xb, ids.get(xb)) for xb in map(X.inv, classes)]"
           "  # no id: x*inv(x) is formed alone\n" + ADDED, ADDED +
           "    bars = [(xb, ids.get(xb)) for xb in map(X.inv, classes)]\n",
           [f"{MVALUED_TESTS}::test_check_axioms_matches_reference_on_arbitrary_tables"]),
    Mutant("left-row-of-the-wrong-class", MVALUED, "left = prods(lefts[row[a]], flat)",
           "left = prods(lefts[row[0]], flat)", [f"{AXIOMS}[s3_conj]"]),
    # the budget handle
    Mutant("stats-without-name-filter", CLI, "name == walk and done.append(", "done.append(",
           [f"{STATS}[dynamics-bounds]"]),
    Mutant("subgroup-closure-uncapped", MVALUED, "list(backend._close(subgroup, budget))",
           "list(backend._close(subgroup))", [f"{AT_ITS_CAP}[subgroup_closure]"]),
    Mutant("automorphism-closure-uncapped", GROUPS, "for f in maps), budget,",
           "for f in maps), Budget(math.inf),", [f"{AT_ITS_CAP}[automorphism_closure]"]),
    Mutant("edge-walk-uncapped", GROUPS, "closure([self.identity], expand, budget,",
           "closure([self.identity], expand, Budget(math.inf),", [f"{AT_ITS_CAP}[edge_walk]"]),
    Mutant("power-rows-from-zero", "src/mvgroups/cayley.py", "budget, POWERS, 1)",
           "budget, POWERS, 0)", [f"{STATS}[powers]"]),
    Mutant("axioms-without-the-command-budget", CLI, "args.sample + 1, instance.budget),\n"
           "                          instance.budget)", "args.sample + 1, instance.budget))",
           [PAIR_BUDGET]),
    # the integer-vector kernel compiler
    Mutant("kernel-keeps-zero-terms", GROUPS, "for c, t in row if c]", "for c, t in row]",
           [f"{GROUPS_TESTS}::test_free_abelian_instances_apply_index_maps[z2_swap]"]),
    Mutant("kernel-flips-later-signs", GROUPS, "f\" {'-' if minus else '+'} {t}\"",
           "f\" {'+' if minus else '-'} {t}\"", [f"{PRODUCTS}[z2_swap]"]),
    Mutant("kernel-skips-int-check", GROUPS, "if type(c) is not int]", "if False]",
           [f"{GROUPS_TESTS}::test_a_kernel_refuses_a_coefficient_that_is_no_int[float]"]),
    # the builtin 2-valued group, and the oracle's n^2-multiset
    Mutant("nat-step-values-swapped", MVALUED, "for v in (abs(u - s), u + s)]",
           "for v in (u + s, abs(u - s))]", [NAT_EXAMPLES]),
    Mutant("nat-step-without-abs", MVALUED, "for v in (abs(u - s), u + s)]",
           "for v in (u - s, u + s)]",
           [f"{STEP}::test_unordered_walks_match_the_sorted_oracle[nat]"]),
    Mutant("nat-mul-values-swapped", MVALUED, "return (abs(x - y), x + y)",
           "return (x + y, abs(x - y))", [NAT_EXAMPLES]),
    Mutant("nat-mul-three-values", MVALUED, "return (abs(x - y), x + y)",
           "return (abs(x - y), x + y, x + y)", [NAT_EXAMPLES]),
    Mutant("flatten-unsorted", "tests/oracles.py", FLATTEN,
           "return tuple(itertools.chain.from_iterable(products))", [f"{AXIOMS}[nat]"]),
    Mutant("flatten-drops-repeats", "tests/oracles.py", FLATTEN,
           "return tuple(sorted(set(itertools.chain.from_iterable(products))))",
           [f"{MVALUED_TESTS}::test_triple_product_total_size_is_n_squared"]),
    # compiled automorphism maps
    Mutant("free-inverse-letters-unflipped", GROUPS, "self.inv(x) if s else x for i, x",
           "x for i, x", [f"{MAPS}[free2_swap]"]),
    Mutant("free-map-untranslated", GROUPS, "sep.join(gs).translate(table).split(sep)",
           "sep.join(gs).split(sep)", [f"{GROUPS_TESTS}::test_close_swap_gives_order_two"]),
    Mutant("heisenberg-map-without-a1-c2", GROUPS, "(a1 * c2, f\"p*{s}\"), ", "",
           [f"{MAPS}[heisenberg]"]),
    Mutant("heisenberg-map-s-sign", GROUPS, 's = "(r - p*q)"', 's = "(r + p*q)"',
           [f"{MAPS}[heis_swap]"]),
    Mutant("cyclic-map-without-modulus", GROUPS, "[g * k % m for g in gs]", "[g * k for g in gs]",
           [f"{GROUPS_TESTS}::test_compiled_apply_makes_no_evaluate_or_factor_calls"]),
    Mutant("conjugation-by-the-inverse", GROUPS, "tuple([c[g[y]] for y in c_inv])",
           "tuple([c_inv[g[y]] for y in c])", [f"{CONJUGATIONS}[3]"]),
    Mutant("product-map-passes-every-column", GROUPS, "fixed = tuple(local) == backend.gens",
           "fixed = True",
           [f"{GROUPS_TESTS}::test_direct_product_automorphisms_compile_factor_by_factor"]),
    Mutant("edge-walk-images-on-the-left", GROUPS, "self.mul(image, s_image)",
           "self.mul(s_image, image)",
           [f"{GROUPS_TESTS}::test_edge_walk_accepts_exactly_the_homomorphisms[finite_table]"]),
    # batch products
    Mutant("heisenberg-products-without-p-y", GROUPS, "r + z + p * y) for", "r + z) for",
           [f"{PRODUCTS}[heis_swap]"]),
    Mutant("permutation-products-h-then-g", GROUPS,
           "[p for g in gs for p in map(operator.itemgetter(*g) if len(g) > 1 else tuple, hs)]",
           "[tuple(g[i] for i in h) for g in gs for h in hs]", [f"{PRODUCTS}[s3_conj]"]),
    Mutant("cyclic-products-without-modulus", GROUPS, "[(g + h) % m for g in gs for h in hs]",
           "[g + h for g in gs for h in hs]", [f"{PRODUCTS}[z3xF2_example46]"]),
    # configs; a generator named e is read by every word as the identity
    Mutant("coset-takes-a-subgroup", WORDSPEC, "_UNUSED = {\"coset\": (\"mv.subgroup\",),",
           "_UNUSED = {\"coset\": (),", [f"{CONFIG_PATHS}[7-mv.subgroup]"]),
    Mutant("double-coset-takes-automorphisms", WORDSPEC,
           "\"double_coset\": (\"automorphisms\",),", "\"double_coset\": (),",
           [f"{CONFIG_PATHS}[8-automorphisms]"]),
    Mutant("identity-generator-name", WORDSPEC, "if name == \"e\" or not re.fullmatch",
           "if not re.fullmatch", [f"{CONFIG_PATHS}[17-group.gens[0]]"]),
]
MUTANT = {mutant.id: mutant for mutant in MUTANTS}


def faults(rows):
    """What makes rows unusable: a repeated id, an old text that equals its
    new one, or that does not occur exactly once in its file."""
    ids = collections.Counter(row.id for row in rows)
    found = [f"{i}: the id is repeated" for i, count in ids.items() if count > 1]
    for row in rows:
        count = (ROOT / row.file).read_text(encoding="utf-8").count(row.old)
        if row.old == row.new or count != 1:
            found.append(f"{row.id}: its old text occurs {count} times in {row.file}"
                         + (", and equals its new text" if row.old == row.new else ""))
    return found


def copy_tree(root: pathlib.Path, mutant: Mutant = None) -> pathlib.Path:
    """`root` holding a copy of what the tests read, with `mutant` applied."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(ROOT / name, root / name)
    if mutant is not None:
        path = root / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
    return root


def start(root: pathlib.Path, args) -> subprocess.Popen:
    """pytest, stopping at the first failure, on `args` in the copy at `root`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *args], cwd=root, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def finish(child: subprocess.Popen):
    """(exit code, output) of a child; the code is None if it ran out of time."""
    try:
        output = child.communicate(timeout=TIMEOUT)[0]
    except subprocess.TimeoutExpired:
        child.kill()
        return None, child.communicate()[0]
    return child.returncode, output


def killed(code, output: str) -> bool:
    """Whether pytest failed a test: exit 1 with a failed count."""
    return code == 1 and re.search(r"\b[1-9][0-9]* failed\b", output) is not None


def run(mutant: Mutant = None, killers=None):
    """(exit code, output) of `killers`, by default the row's, on a copy
    with `mutant` applied, or on an unmutated one."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        return finish(start(copy_tree(pathlib.Path(tmp), mutant), killers or mutant.killers))


def main(ids) -> int:
    rows = [MUTANT[i] for i in ids if i in MUTANT] if ids else MUTANTS
    problems = [f"{i}: no such row" for i in ids if i not in MUTANT] + faults(rows)
    if problems:
        print("\n".join(problems))
        return 2
    begin = time.perf_counter()
    code, output = run(killers=list(dict.fromkeys(k for row in rows for k in row.killers)))
    if code != 0:
        print(f"control: the killers do not all pass unmutated (exit {code})\n{output}")
        return 1
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        outcomes = list(pool.map(run, rows))
    survivors = 0
    for row, (code, output) in zip(rows, outcomes):
        if killed(code, output):
            print(f"killed    {row.id}")
        else:
            survivors += 1
            print(f"SURVIVED  {row.id} (exit {code})\n{output}")
    print(f"{len(rows)} rows, {len(rows) - survivors} killed, "
          f"{time.perf_counter() - begin:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
