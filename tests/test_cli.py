import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from mvgroups.cayley import power_table
from mvgroups.cli import run
from mvgroups.errors import BudgetExceeded
from mvgroups.mvalued import OrbitGroup
from mvgroups.verify import SUITES, sample_elements
from mvgroups.wordspec import load_instance


def cfg(config_dir, name):
    return str(config_dir / f"{name}.json")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# growth


def test_growth_csv_example(config_dir, capsys):
    code, out, _ = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"),
                                   "--center", "3", "--radius", "2"])
    assert code == 0
    assert out == "r,ball,sphere\n0,1,1\n1,3,2\n2,5,2\n"


def test_growth_default_center_is_unit(config_dir, capsys):
    code, out, _ = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"),
                                   "--radius", "3"])
    assert code == 0
    assert out.splitlines()[1:] == ["0,1,1", "1,2,1", "2,3,1", "3,4,1"]


def test_growth_json_with_elements(config_dir, capsys):
    code, out, _ = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"),
                                   "--center", "3", "--radius", "1",
                                   "--format", "json", "--emit-elements"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["center"] == "3"
    assert record["rows"] == [{"r": 0, "ball": 1, "sphere": 1},
                              {"r": 1, "ball": 3, "sphere": 2}]
    assert record["spheres"] == [["3"], ["2", "4"]]


def test_emit_elements_forms_each_printed_canonical_pair_once(config_dir, capsys, monkeypatch):
    """`growth z2_swap --radius 80 --emit-elements` forms one canonical pair
    per printed class, 6,521, and one for the centre: the sort's pair is
    the one printed (the sort and the render each formed one, 13,043 in
    all, for the same bytes)."""
    calls = []
    canonical = OrbitGroup.canonical
    monkeypatch.setattr(OrbitGroup, "canonical", lambda X, x: calls.append(x) or canonical(X, x))
    code, out, _ = invoke(capsys, ["growth", "-c", cfg(config_dir, "z2_swap"), "--radius", "80",
                                   "--format", "json", "--emit-elements"])
    assert code == 0
    record = json.loads(out)
    assert sum(map(len, record["spheres"])) == record["rows"][-1]["ball"] == 6521
    assert len(calls) == 6521 + 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b119da961f065ff217d6db4f9c8c572114ab5efeb9ca00d8723328542c1fb558")


def test_growth_stats_reports_every_layer_and_leaves_stdout_alone(config_dir, capsys):
    argv = ["growth", "-c", cfg(config_dir, "z2_swap"), "--radius", "80"]
    code, plain, err = invoke(capsys, argv)
    assert (code, err) == (0, "")  # no stats unless asked
    code, out, err = invoke(capsys, argv + ["--stats"])
    assert code == 0 and out == plain
    assert err.endswith("\n") and err.count("\n") == 1  # one JSON line
    stats = json.loads(err)
    spheres = [int(row.split(",")[2]) for row in out.splitlines()[1:]]
    assert (stats["command"], stats["radius"], len(spheres)) == ("growth", 80, 81)
    assert [layer["r"] for layer in stats["layers"]] == list(range(81))
    assert [layer["size"] for layer in stats["layers"]] == spheres
    assert all(layer["seconds"] >= 0 for layer in stats["layers"])


def test_growth_stats_on_budget_exit_names_the_completed_layers(config_dir, capsys):
    # free2_swap spheres are 1, 1, 2, 4, ...: 64 classes fill radius 0..6,
    # and the 64 of radius 7 overrun a budget of 100
    code, out, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "free2_swap"),
                                     "--radius", "30", "--budget", "100", "--stats"])
    assert (code, out) == (3, "")
    line, message = err.splitlines()
    stats = json.loads(line)
    assert stats["radius"] == 6
    assert [layer["size"] for layer in stats["layers"]] == [1, 1, 2, 4, 8, 16, 32]
    assert message == "budget exceeded: more than 100 distinct elements reached by radius 7"


TABLE_STATS = {
    "dynamics-bounds": ["dynamics", "-c", "free2_swap", "--z", "g1", "--y", "g1*g2",
                        "--steps", "11", "--bounds"],
    "dynamics": ["dynamics", "-c", "z3xF2_example46", "--z", "h*g1", "--steps", "9",
                 "--format", "json", "--emit-elements"],
    "powers": ["powers", "-c", "z2_pm1", "--x", "g1*g2", "--radius", "30"],
}


@pytest.mark.parametrize("case", TABLE_STATS)
def test_dynamics_and_powers_stats_report_each_row_and_leave_stdout_alone(
        config_dir, capsys, case):
    """One JSON line on stderr whose sizes are the xi column the run prints,
    or for powers |Set(x^{*r})| of rows 1..radius; stdout is unchanged."""
    argv = TABLE_STATS[case]
    argv = [*argv[:2], cfg(config_dir, argv[2]), *argv[3:]]
    code, plain, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    code, out, err = invoke(capsys, argv + ["--stats"])
    assert code == 0 and out == plain
    assert err.endswith("\n") and err.count("\n") == 1
    stats = json.loads(err)
    sizes = [layer["size"] for layer in stats["layers"]]
    if argv[0] == "powers":
        instance = load_instance(argv[2])
        table = power_table(instance.X, instance.element(argv[4]), 30)
        expected, first = list(map(len, table.set_powers[1:])), 1
    elif "--format" in argv:
        expected, first = [row["xi"] for row in json.loads(out)["rows"]], 0
    else:
        expected, first = [int(row.split(",")[1]) for row in out.splitlines()[1:]], 0
    assert sizes == expected
    assert [layer["r"] for layer in stats["layers"]] == list(range(first, first + len(sizes)))
    assert (stats["command"], stats["radius"]) == (argv[0], first + len(sizes) - 1)
    assert all(layer["seconds"] >= 0 for layer in stats["layers"])


@pytest.mark.parametrize("command, flag", [("dynamics", "--z"), ("powers", "--x")])
def test_dynamics_and_powers_stats_on_budget_exit_name_the_completed_rows(
        config_dir, capsys, command, flag):
    # free2_swap supports under g1 are 1, 1, 2, 4, ... distinct classes (1, 2,
    # 4, ... as powers of g1): 64 fill the rows before the budget of 100 is passed
    code, out, err = invoke(capsys, [command, "-c", cfg(config_dir, "free2_swap"), flag, "g1",
                                     "--radius" if command == "powers" else "--steps", "30",
                                     "--budget", "100", "--stats"])
    assert (code, out) == (3, "")
    line, message = err.splitlines()
    stats = json.loads(line)
    sizes = [1, 1, 2, 4, 8, 16, 32] if command == "dynamics" else [1, 2, 4, 8, 16, 32]
    assert [layer["size"] for layer in stats["layers"]] == sizes
    assert stats["radius"] == 6
    assert message.startswith("budget exceeded: more than 100 distinct elements")


def test_growth_default_radius_z3xF2(config_dir, capsys):
    code, out, _ = invoke(capsys, ["growth", "-c", cfg(config_dir, "z3xF2_example46")])
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(r) for r in range(11)]


def test_output_is_deterministic(config_dir, capsys):
    argv = ["growth", "-c", cfg(config_dir, "z2_swap"), "--radius", "4",
            "--format", "json", "--emit-elements"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# axioms


def test_axioms_pass(config_dir, capsys):
    code, out, _ = invoke(capsys, ["axioms", "-c", cfg(config_dir, "nat")])
    assert code == 0
    assert out.splitlines() == [
        "PASS associativity triples=1331",
        "PASS unit elements=11",
        "PASS inverse elements=11",
    ]


def test_axioms_mutated_fails_with_witness(config_dir, capsys):
    code, out, _ = invoke(capsys, ["axioms", "-c", cfg(config_dir, "nat_mutated")])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL unit elements=11 witness=0"
    assert lines[2] == "FAIL inverse elements=11 witness=1"


def test_axioms_sample_zero_on_nat(config_dir, capsys):
    code, out, _ = invoke(capsys, ["axioms", "-c", cfg(config_dir, "nat"), "--sample", "0"])
    assert code == 0
    assert out.splitlines() == [
        "PASS associativity triples=1",
        "PASS unit elements=1",
        "PASS inverse elements=1",
    ]


# --sample N checks the unit and up to N more elements of an infinite
# carrier; B(e, 2) has 7 classes on z2_pm1 and 9 on heis_swap, and the finite
# s3_conj carrier (4 classes) is checked whole
SAMPLE_COUNTS = {"nat": (1, 2, 11), "z2_pm1": (1, 2, 7), "heis_swap": (1, 2, 9),
                 "s3_conj": (4, 4, 4)}


@pytest.mark.parametrize("config", SAMPLE_COUNTS)
def test_axioms_sample_is_the_unit_and_up_to_n_more(config_dir, capsys, config):
    for sample, count in zip(("0", "1", "10"), SAMPLE_COUNTS[config]):
        code, out, err = invoke(capsys, ["axioms", "-c", cfg(config_dir, config),
                                         "--sample", sample])
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"PASS associativity triples={count ** 3}",
                                    f"PASS unit elements={count}",
                                    f"PASS inverse elements={count}"]


def test_axioms_nat_sample_is_capped_by_the_budget(config_dir, capsys):
    # the unit and N more: --sample 9 is 10 elements, --sample 10 is 11
    for sample in ("20", "10"):
        code, out, err = invoke(capsys, ["axioms", "-c", cfg(config_dir, "nat"),
                                         "--sample", sample, "--budget", "10"])
        assert (code, out, err) == (3, "", "budget exceeded: more than 10 distinct elements\n")
    code, out, err = invoke(capsys, ["axioms", "-c", cfg(config_dir, "nat"),
                                     "--sample", "9", "--budget", "10"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["PASS associativity triples=1000",
                                "PASS unit elements=10",
                                "PASS inverse elements=10"]


@pytest.mark.parametrize("sample", ["-1", "-3"])
def test_axioms_negative_sample_is_a_usage_error(config_dir, capsys, sample):
    code, out, err = invoke(capsys, ["axioms", "-c", cfg(config_dir, "z2_pm1"),
                                     f"--sample={sample}"])
    assert code == 2
    assert out == ""
    assert "--sample" in err


def test_dynamics_negative_steps_is_a_usage_error(config_dir, capsys):
    code, out, err = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"),
                                     "--z", "1", "--steps", "-1"])
    assert code == 2
    assert out == ""
    assert "argument --steps: must be >= 0, got -1" in err


def test_axioms_json(config_dir, capsys):
    code, out, _ = invoke(capsys, ["axioms", "-c", cfg(config_dir, "s3_conj"),
                                   "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["associativity"]["ok"] is True
    assert record["unit"]["ok"] is True
    assert record["inverse"]["ok"] is True


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_csv(config_dir, capsys):
    code, out, _ = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"),
                                   "--z", "1", "--steps", "4"])
    assert code == 0
    assert out == "r,xi\n0,1\n1,1\n2,2\n3,2\n4,3\n"


def test_dynamics_bounds(config_dir, capsys):
    code, out, _ = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "z_pm1"),
                                   "--z", "g1", "--steps", "6", "--bounds"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,xi,lower_bound,upper_bound,verdict"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_dynamics_bounds_csv_rows(config_dir, capsys):
    code, out, _ = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "z_pm1"),
                                   "--z", "g1", "--steps", "2", "--bounds"])
    assert code == 0
    assert out.splitlines() == ["r,xi,lower_bound,upper_bound,verdict",
                                "0,1,0.5,1,pass", "1,1,1,3,pass", "2,2,1,5,pass"]


def test_dynamics_bounds_needs_coset(config_dir, capsys):
    code, _, err = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"),
                                   "--z", "1", "--steps", "4", "--bounds"])
    assert code == 2
    assert "coset" in err


def test_dynamics_classify(config_dir, capsys):
    code, out, _ = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"),
                                   "--z", "1", "--steps", "20", "--classify"])
    assert code == 0
    assert "classification: empirically-polynomial" in out
    assert "heuristic" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dynamics_classify_too_few_rows_prints_nothing(config_dir, capsys, fmt):
    code, out, err = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"), "--z", "1",
                                     "--steps", "3", "--classify", "--format", fmt])
    assert code == 2
    assert out == ""
    assert "at least 6 rows" in err
    assert "--steps" in err


# ---------------------------------------------------------------------------
# powers


def test_powers_csv(config_dir, capsys):
    code, out, _ = invoke(capsys, ["powers", "-c", cfg(config_dir, "nat"),
                                   "--x", "1", "--radius", "3"])
    assert code == 0
    assert out == "r,bstar,sstar_size\n0,0,0\n1,1,1\n2,3,2\n3,4,1\n"


# ---------------------------------------------------------------------------
# compare


def test_compare_example(config_dir, capsys):
    code, out, _ = invoke(capsys, ["compare", "-c", cfg(config_dir, "nat"),
                                   "--gens2", "1,2", "--center2", "5",
                                   "--radius", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "constant l=6"
    assert lines[-1] == "PASS compare r=10 l=6"


def test_compare_unreachable_generator_fails_fast(config_dir, capsys):
    # a and b generate a monoid of X that never reaches the class of a^-1
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["compare", "-c", cfg(config_dir, "heis_swap"),
                                     "--gens2", "a,b", "--radius", "4"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == "error: element (0,-1,0) not reached within radius cap 4\n"


def test_compare_gens2_without_a_word_exits_2(config_dir, capsys):
    code, out, err = invoke(capsys, ["compare", "-c", cfg(config_dir, "nat"), "--gens2", ","])
    assert (code, out, err) == (2, "", "error: --gens2 must list at least one word\n")


def test_compare_negative_radius_is_a_usage_error(config_dir, capsys):
    code, out, err = invoke(capsys, ["compare", "-c", cfg(config_dir, "nat"),
                                     "--gens2", "1,2", "--radius", "-1"])
    assert (code, out, err) == (2, "", "error: radius must be >= 0\n")


def test_compare_radius_zero_needs_no_cross_lengths(config_dir, capsys):
    # 2 is not reached within radius 1 of the unit, but at r = 0 any l works
    code, out, err = invoke(capsys, ["compare", "-c", cfg(config_dir, "nat"),
                                     "--gens2", "1,2", "--radius", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["constant l=1", "0,1,1,1,pass", "PASS compare r=0 l=1"]


# ---------------------------------------------------------------------------
# verify


def test_verify_suites_pass(config_dir, capsys):
    code, out, _ = invoke(capsys, ["verify", "-c", cfg(config_dir, "nat"),
                                   "--suite", "example32"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_sandwich_suite(config_dir, capsys):
    code, out, _ = invoke(capsys, ["verify", "-c", cfg(config_dir, "z_pm1"),
                                   "--suite", "thm43"])
    assert code == 0
    assert "PASS thm43" in out


@pytest.mark.parametrize("suite,config,radius,message", [
    ("example32", "nat", "-1", "radius must be >= 0"),
    ("thm43", "z_pm1", "-1", "radius must be >= 0"),
    ("thm48", "z_pm1", "-1", "r_max must be >= 1"),
    ("lemma47", "s3_conj", "-1", "r_max must be >= 1"),
    ("lemma47", "s3_conj", "0", "r_max must be >= 1"),
    ("example46", "z3xF2_example46", "-1", "radius must be >= 0"),
    ("proof34", "z_pm1", "-1", "radius must be >= 0")])
def test_verify_radius_below_range_exits_2(config_dir, capsys, suite, config, radius,
                                           message):
    code, out, err = invoke(capsys, ["verify", "-c", cfg(config_dir, config),
                                     "--suite", suite, "--radius", radius])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# example46 passes once a support repeats within rows 0..r, which on
# z3xF2_example46 (xi = 1, 1, 2, 2, ...) first happens at r = 3
@pytest.mark.parametrize("radius", ["0", "1", "2", "3", "4", "5", "20"])
def test_example46_verdict_reads_its_xi_table(config_dir, capsys, radius):
    code, out, err = invoke(capsys, ["verify", "-c", cfg(config_dir, "z3xF2_example46"),
                                     "--suite", "example46", "--radius", radius])
    bounded = int(radius) >= 3
    assert (code, err) == (0 if bounded else 1, "")
    assert out.splitlines() == [
        f"PASS example46 r={radius} max xi={1 if radius in ('0', '1') else 2} (cap 2)",
        f"{'PASS' if bounded else 'FAIL'} example46 r={radius} classified "
        f"{'bounded' if bounded else 'unresolved'}"]


def test_example46_without_a_repeated_support_is_unresolved(tmp_path, capsys):
    # Z under the identity: xi = 1 at every r, but the supports {g1^r} never
    # repeat, so the cap on the rows computed proves nothing
    path = tmp_path / "z_identity.json"
    path.write_text(json.dumps({
        "schema": 1, "group": {"kind": "free_abelian", "rank": 1, "gens": ["g1"]},
        "automorphisms": [{"name": "id", "images": {"g1": "g1"},
                           "inverse_images": {"g1": "g1"}}],
        "mv": {"kind": "coset"}, "X_generators": ["g1"]}))
    code, out, err = invoke(capsys, ["verify", "-c", str(path), "--suite", "example46",
                                     "--radius", "10"])
    assert (code, err) == (1, "")
    assert out.splitlines() == ["PASS example46 r=10 max xi=1 (cap 2)",
                                "FAIL example46 r=10 classified unresolved"]


# on free2_swap xi = 1, 1, 2, 4, ...: row 3 is the first over the cap, and the
# suite stops there with the verdict `--radius 3` gives, before any budget
# runs out (rows 0..20 take 15 s and exceed the default budget)
@pytest.mark.parametrize("flags", [[], ["--budget", "100"], ["--radius", "3"]],
                         ids=["default", "budget100", "radius3"])
def test_example46_stops_at_the_first_row_over_the_cap(config_dir, capsys, flags):
    code, out, err = invoke(capsys, ["verify", "-c", cfg(config_dir, "free2_swap"),
                                     "--suite", "example46", *flags])
    assert (code, err) == (1, "")
    assert out.splitlines() == ["FAIL example46 r=3 max xi=4 (cap 2)",
                                "FAIL example46 r=3 classified unresolved"]


def test_lemma47_checks_sphere_addition_to_its_radius(config_dir, capsys):
    code, out, err = invoke(capsys, ["verify", "-c", cfg(config_dir, "s3_conj"),
                                     "--suite", "lemma47", "--radius", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["PASS lemma47 r=3 vanishing persists for 4 base points",
                                "PASS lemma47 r=3 sphere addition holds on 50 decompositions"]


# every suite and compare on a config without X_generators, with the messages
# of those that need an X-element pinned
NO_X_GENERATORS = {
    **{suite: (["verify", "--suite", suite], None) for suite in SUITES},
    **{suite: (["verify", "--suite", suite], f"{suite} needs X_generators")
       for suite in ("thm43", "thm48", "example46")},
    "compare": (["compare", "--gens2", "g1"], "compare needs X_generators"),
}


@pytest.mark.parametrize("name", NO_X_GENERATORS)
def test_no_x_generators_exits_2_without_a_traceback(config_dir, tmp_path, capsys, name):
    (command, *flags), message = NO_X_GENERATORS[name]
    config = json.loads((config_dir / "z2_swap.json").read_text())
    del config["X_generators"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = invoke(capsys, [command, "-c", str(path), *flags])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err == f"error: {message}\n" if message else err.startswith("error: ")


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_obeys_the_budget(config_dir, tmp_path, capsys, suite, source):
    name = "nat" if suite == "example32" else "free2_swap"
    argv = ["verify", "--suite", suite]
    if source == "flag":
        argv += ["-c", cfg(config_dir, name), "--budget", "5"]
    else:
        config = json.loads((config_dir / f"{name}.json").read_text())
        config["defaults"] = {**config.get("defaults", {}), "budget": 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["-c", str(path)]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: more than 5 distinct elements")


def test_verify_unknown_suite(config_dir, capsys):
    code, _, _ = invoke(capsys, ["verify", "-c", cfg(config_dir, "nat"),
                                 "--suite", "nonsense"])
    assert code == 2


# ---------------------------------------------------------------------------
# error handling


def test_missing_config_file(capsys):
    code, _, err = invoke(capsys, ["axioms", "-c", "/no/such/file.json"])
    assert code == 2


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = invoke(capsys, ["axioms", "-c", str(bad)])
    assert code == 2


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, out, err = invoke(capsys, ["axioms", "-c", str(bad)])
    assert (code, out, err) == (2, "", "error: config document must be a JSON object\n")


def test_schema_error_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "mv": {"kind": "mystery"}}))
    code, _, err = invoke(capsys, ["axioms", "-c", str(bad)])
    assert code == 2
    assert "mv.kind" in err


def test_bad_word_argument(config_dir, capsys):
    code, _, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"),
                                   "--center", "g1**", "--radius", "2"])
    assert code == 2


def test_budget_exceeded_exit_code(config_dir, capsys):
    code, _, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "free2_swap"),
                                   "--radius", "10", "--budget", "20"])
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("argv, budget, radius", [
    (["growth", "-c", "free2_swap", "--radius", "40"], 1000, 10),
    (["growth", "-c", "z2_swap", "--radius", "40"], 1000, 31),
    (["growth", "-c", "heis_swap", "--radius", "40"], 1000, 9),
    (["growth", "-c", "z3xF2_example46", "--radius", "40"], 1000, 9),
    (["dynamics", "-c", "free2_swap", "--z", "g1", "--steps", "30"], 5000, 13),
], ids=["growth-free2_swap", "growth-z2_swap", "growth-heis_swap",
        "growth-z3xF2_example46", "dynamics-free2_swap"])
def test_budget_exit_names_the_radius_a_whole_layer_expansion_reached(
        config_dir, capsys, argv, budget, radius):
    """Expanding a layer in one batch raises at the radius, and with the
    message, that expanding it element by element did."""
    argv = [*argv[:2], cfg(config_dir, argv[2]), *argv[3:], "--budget", str(budget)]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (f"budget exceeded: more than {budget} distinct elements "
                   f"reached by radius {radius}\n")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(config_dir, capsys, budget):
    code, out, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"),
                                     "--budget", budget])
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_budget_that_is_not_an_int_is_a_usage_error(config_dir, capsys):
    code, out, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "nat"), "--budget", "abc"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --budget: invalid int value: 'abc'\n")
    assert "Traceback" not in err


def test_missing_required_argument(config_dir, capsys):
    code, _, _ = invoke(capsys, ["dynamics", "-c", cfg(config_dir, "nat"),
                                 "--steps", "3"])
    assert code == 2  # --z is required


def test_unknown_subcommand(capsys):
    code, _, _ = invoke(capsys, ["frobnicate"])
    assert code == 2


def test_verify_radius_reaches_example32(config_dir, capsys):
    code, out, _ = invoke(capsys, ["verify", "-c", cfg(config_dir, "nat"),
                                   "--suite", "example32", "--radius", "3"])
    assert code == 0
    assert out == "PASS example32 r=3 closed form holds for all x<=50\n"


def test_semidirect_group_kind_rejected(tmp_path, capsys):
    bad = tmp_path / "semidirect.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "group": {"kind": "semidirect",
                  "group": {"kind": "free_abelian", "rank": 1, "gens": ["g1"]}},
        "automorphisms": [{"name": "neg", "images": {"g1": "g1^-1"},
                           "inverse_images": {"g1": "g1^-1"}}],
        "mv": {"kind": "coset"},
    }))
    code, _, err = invoke(capsys, ["axioms", "-c", str(bad)])
    assert code == 2
    assert "group.kind" in err


PERMUTATION = {"kind": "permutation", "degree": 3, "gens": ["t"], "gen_images": [[1, 0, 2]]}
BAD_CONFIGS = [
    ({**PERMUTATION, "degree": "3"}, "group.degree"),
    ({"kind": "direct_product", "factors": [{"kind": "cyclic", "order": 0, "gens": ["t"]}]},
     "group.factors[0].order"),
    ({"kind": "finite_table", "table": [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
      "gens": ["t", "b"], "gen_elements": [1, 2]}, "Latin square"),
    ({"kind": "direct_product",
      "factors": [{"kind": "cyclic", "order": 2, "gens": ["h"]},
                  {**PERMUTATION, "gen_images": [[0, 0, 2]]}]}, "group.factors[1]"),
    # heisenberg and direct_product name their own generators
    ({"kind": "heisenberg", "gens": ["a", "b", "c"]}, "group.gens: heisenberg"),
    ({"kind": "direct_product", "gens": ["h"],
      "factors": [{"kind": "cyclic", "order": 3, "gens": ["h"]}]}, "group.gens: direct_product"),
    # a key the kind does not take, in the descriptor or in a factor
    ({**PERMUTATION, "degre": 3}, "group.degre: unknown field 'degre'"),
    ({"kind": "heisenberg", "order": 3}, "group.order: unknown field 'order'"),
    ({"kind": "direct_product", "factors": [{**PERMUTATION, "rank": 2}]},
     "group.factors[0].rank: unknown field 'rank'"),
]


@pytest.mark.parametrize("group,message", BAD_CONFIGS, ids=[m for _, m in BAD_CONFIGS])
def test_bad_group_config_exits_2_naming_it(tmp_path, capsys, group, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "group": group,
                               "mv": {"kind": "double_coset", "subgroup": ["t"]},
                               "X_generators": ["t"]}))
    code, out, err = invoke(capsys, ["axioms", "-c", str(bad)])
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def one_automorphism(group, images, **fields):
    """A coset config whose one automorphism is `images` both ways."""
    return {"schema": 1, "group": group,
            "automorphisms": [{"name": "s", "images": images, "inverse_images": images}],
            "mv": {"kind": "coset"}, **fields}


FREE2 = {"kind": "free", "rank": 2}
NAT = {"schema": 1, "mv": {"kind": "builtin_nat"}}
CONFIG_PATH_CASES = [
    # an empty gens list keeps the backend's names g1, g2, which the images must cover
    (one_automorphism({**FREE2, "gens": []}, {}), "automorphisms[0].images"),
    # an unknown generator in a config word
    (one_automorphism(FREE2, {"g1": "g3", "g2": "g1"}), "automorphisms[0].images.g1"),
    ({"schema": 1, "group": PERMUTATION, "mv": {"kind": "double_coset", "subgroup": ["g3"]}},
     "mv.subgroup[0]"),
    (one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}, X_generators=["g3"]), "X_generators[0]"),
    # builtin-nat takes no automorphisms, no subgroup and only numeric literals
    ({**NAT, "automorphisms": [{"images": {}, "inverse_images": {}}]}, "automorphisms"),
    ({**NAT, "mv": {"kind": "builtin_nat", "subgroup": ["1"]}}, "mv.subgroup"),
    ({**NAT, "X_generators": ["g1"]}, "X_generators[0]"),
    # a coset takes no subgroup, a double coset no automorphisms
    (one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}, mv={"kind": "coset", "subgroup": ["g1"]}),
     "mv.subgroup"),
    ({"schema": 1, "group": PERMUTATION, "mv": {"kind": "double_coset", "subgroup": ["t"]},
      "automorphisms": [{"images": {"t": "t"}, "inverse_images": {"t": "t"}}]}, "automorphisms"),
    # a misspelled key below the top level
    (one_automorphism({"kind": "cyclic", "order": 5, "ordre": 7}, {"g": "g^-1"}), "group.ordre"),
    ({**one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}),
      "automorphisms": [{"imgaes": {}, "images": {"g1": "g2", "g2": "g1"},
                         "inverse_images": {"g1": "g2", "g2": "g1"}}]}, "automorphisms[0].imgaes"),
    ({**NAT, "mv": {"kind": "builtin_nat", "subgroop": []}}, "mv.subgroop"),
    ({**NAT, "defaults": {"radus": 2}}, "defaults.radus"),
    # a repeated generator name would leave the word for it naming only the last one
    ({"schema": 1, "group": {**PERMUTATION, "gens": ["t", "t"],
                             "gen_images": [[1, 0, 2], [1, 2, 0]]},
      "mv": {"kind": "double_coset", "subgroup": ["t"]}}, "group.gens[1]"),
    (one_automorphism({**FREE2, "gens": ["g1", "g2", "g1"], "rank": 3}, {"g1": "g2", "g2": "g1"}),
     "group.gens[2]"),
    # a required list or map that is absent
    ({"schema": 1, "group": {"kind": "direct_product"}, "mv": {"kind": "double_coset"}},
     "group.factors"),
    ({**one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}),
      "automorphisms": [{"name": "s", "inverse_images": {"g1": "g2", "g2": "g1"}}]},
     "automorphisms[0].images"),
]


@pytest.mark.parametrize("config,path", CONFIG_PATH_CASES,
                         ids=[f"{i}-{path}" for i, (_, path) in enumerate(CONFIG_PATH_CASES)])
def test_config_error_exits_2_naming_its_path(tmp_path, capsys, config, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, out, err = invoke(capsys, ["axioms", "-c", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    one_automorphism({"kind": "cyclic", "order": 5, "gens": []}, {"g": "g^-1"}),
    {**NAT, "automorphisms": [], "mv": {"kind": "builtin_nat", "subgroup": []}},
    one_automorphism({"kind": "cyclic", "order": 5}, {"g": "g^-1"},
                     mv={"kind": "coset", "subgroup": []}),
    {"schema": 1, "group": PERMUTATION, "automorphisms": [],
     "mv": {"kind": "double_coset", "subgroup": ["t"]}},
], ids=["cyclic-empty-gens", "nat-empty-lists", "coset-empty-subgroup",
        "double-coset-empty-automorphisms"])
def test_config_builds_and_axioms_pass(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = invoke(capsys, ["axioms", "-c", str(path)])
    assert code == 0
    assert "FAIL" not in out
    assert err == ""


def test_axioms_on_a_finite_carrier_obeys_the_budget(tmp_path):
    # 1,501 classes, so --sample 3 alone would still check 3.4e9 triples
    path = tmp_path / "c3000.json"
    path.write_text(json.dumps(one_automorphism({"kind": "cyclic", "order": 3000},
                                                {"g": "g^-1"})))
    start = time.perf_counter()
    proc = run_in_subprocess(["axioms", "-c", str(path), "--sample", "3", "--budget", "100"])
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "budget exceeded: more than 100 distinct elements\n"


@pytest.mark.parametrize("name, budget", [("s3_conj", 3), ("s3_doublecoset", 2)])
def test_finite_partition_of_a_shipped_config_obeys_the_budget(config_dir, capsys, name,
                                                               budget):
    # S3 has 6 elements, so the partition stops before its last class
    code, out, err = invoke(capsys, ["axioms", "-c", cfg(config_dir, name),
                                     "--budget", str(budget)])
    assert (code, out, err) == (3, "", f"budget exceeded: more than {budget} distinct elements\n")


@pytest.mark.parametrize("name", ["s3_conj", "s3_doublecoset"])
def test_finite_sample_obeys_its_own_budget(instances, name):
    """The carrier, built under the instance's budget, is checked again
    against the sample's."""
    instance = instances[name]
    carrier = instance.X.carrier()
    assert sample_elements(instance, budget=len(carrier)) == carrier
    with pytest.raises(BudgetExceeded, match=f"^more than {len(carrier) - 1} distinct elements$"):
        sample_elements(instance, budget=len(carrier) - 1)


# cli.run, then the peak RSS of the process's own memory (Linux VmHWM, KiB)
# as the last line of stderr; getrusage's figure would not do, since Linux
# carries the forking process's peak over fork and exec
PEAK_RSS_RUN = """import re, sys
from mvgroups.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1), file=sys.stderr)
sys.exit(code)
"""


def run_in_subprocess(argv, peak_rss=False, **variables):
    """`mvgroups.cli` with argv in a fresh interpreter, so a run that ignores
    the budget fails at the timeout instead of hanging the suite.  With
    peak_rss the child appends its own peak RSS to stderr: RUSAGE_CHILDREN
    here would be the maximum over the whole session.  `variables` are set
    in the child's environment."""
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    entry = ["-c", PEAK_RSS_RUN] if peak_rss else ["-m", "mvgroups.cli"]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, timeout=10)


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("command", ["growth", "axioms"])
def test_finite_partition_obeys_the_budget(tmp_path, command, source):
    # partitioning all 2,000,000 elements took 3-5 s and 280 MiB
    config = one_automorphism({"kind": "cyclic", "order": 2_000_000}, {"g": "g^-1"},
                              X_generators=["g"],
                              defaults={"budget": 1000 if source == "config" else 10**6})
    path = tmp_path / "c2000000.json"
    path.write_text(json.dumps(config))
    argv = [command, "-c", str(path)] + (["--budget", "1000"] if source == "flag" else [])
    start = time.perf_counter()
    proc = run_in_subprocess(argv)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "budget exceeded: more than 1000 distinct elements\n"


def assert_partition_stops_small(tmp_path, group, images):
    """`growth` on the coset config exits 3 at budget 1000, peaking under 50 MiB."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(one_automorphism(
        group, images, X_generators=list(images), defaults={"budget": 1000})))
    proc = run_in_subprocess(["growth", "-c", str(path)], peak_rss=True)
    message, peak_kib = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (3, "")
    assert message == "budget exceeded: more than 1000 distinct elements"
    assert int(peak_kib) < 50 * 1024


NEEDS_PROC = pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                                reason="reads the peak RSS from Linux /proc")


@NEEDS_PROC
def test_cyclic_partition_does_not_list_the_carrier(tmp_path):
    # a list of all 2,000,000 elements, built before the first class was
    # filed, took the peak RSS to 92 MiB; the partition walks a range instead
    assert_partition_stops_small(tmp_path, {"kind": "cyclic", "order": 2_000_000},
                                 {"g": "g^-1"})


@NEEDS_PROC
def test_product_partition_does_not_list_the_carrier(tmp_path):
    # a list of all 2,000 x 1,000 pairs took the peak RSS to 154 MiB; the
    # product's elements are now formed one at a time
    factors = [{"kind": "cyclic", "order": 2000, "gens": ["a"]},
               {"kind": "cyclic", "order": 1000, "gens": ["b"]}]
    assert_partition_stops_small(tmp_path, {"kind": "direct_product", "factors": factors},
                                 {"a": "a^-1", "b": "b^-1"})


@NEEDS_PROC
def test_product_partition_does_not_list_a_factor(tmp_path):
    # itertools.product lists each factor first: 2,000,000 ints took the
    # peak RSS to 94 MiB; the product walks the factors' ranges instead
    factors = [{"kind": "cyclic", "order": 2_000_000, "gens": ["a"]},
               {"kind": "cyclic", "order": 2, "gens": ["b"]}]
    assert_partition_stops_small(tmp_path, {"kind": "direct_product", "factors": factors},
                                 {"a": "a^-1", "b": "b"})


def too_long(limit):
    return f"a power of {limit} letters; the limit is 1000000"


LONG_WORDS = {
    # a free-group word is stored letter by letter, so one of 10^12 letters
    # ran out of memory where the syllable form held two ints
    "center": (["growth", "-c", "free2_swap", "--center", "g1^1000000000000", "--radius", "2"],
               too_long(10**12)),
    "center-direct-product": (["growth", "-c", "z3xF2_example46", "--center",
                               "h*g1^-1000000000000", "--radius", "2"], too_long(10**12)),
    "x": (["powers", "-c", "free2_swap", "--x", "g2*g1^1000001"], too_long(1000001)),
    "y": (["dynamics", "-c", "free2_swap", "--z", "g1", "--y", "g2^-1000001"],
          too_long(1000001)),
    "config": (["axioms", "-c", None], "X_generators[0]: " + too_long(10**12)),
}


@NEEDS_PROC
@pytest.mark.parametrize("case", LONG_WORDS)
def test_a_word_over_the_letter_limit_exits_2_quickly(config_dir, tmp_path, case):
    argv, message = LONG_WORDS[case]
    if argv[2] is None:
        config = tmp_path / "long.json"
        config.write_text(json.dumps(one_automorphism(
            FREE2, {"g1": "g2", "g2": "g1"}, X_generators=["g1^1000000000000"])))
    else:
        config = config_dir / f"{argv[2]}.json"
    start = time.perf_counter()
    proc = run_in_subprocess([*argv[:2], str(config), *argv[3:]], peak_rss=True)
    assert time.perf_counter() - start < 5
    error, peak_kib = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout, error) == (2, "", f"error: {message}")
    assert int(peak_kib) < 50 * 1024


HASH_SEED_RUNS = {
    "growth-free2_swap": ["growth", "-c", "configs/free2_swap.json", "--emit-elements"],
    "dynamics-free2_swap": ["dynamics", "-c", "configs/free2_swap.json", "--z", "g1",
                            "--y", "g1*g2", "--bounds", "--emit-elements"],
    "lemma47-z3xF2": ["verify", "-c", "configs/z3xF2_example46.json", "--suite", "lemma47"],
    "example46-z3xF2": ["verify", "-c", "configs/z3xF2_example46.json", "--suite", "example46"],
    "growth-f3_shift": ["growth", "-c", "tests/instances/f3_shift.json", "--radius", "5",
                        "--emit-elements"],
}


@pytest.mark.parametrize("case", HASH_SEED_RUNS)
def test_output_does_not_depend_on_the_hash_seed(case):
    """Free-group words are strings, whose hashes are salted per process:
    no set or dict order may reach stdout or the exit code."""
    argv = HASH_SEED_RUNS[case]
    argv = [*argv[:2], str(pathlib.Path(__file__).resolve().parent.parent / argv[2]), *argv[3:]]
    runs = [run_in_subprocess(argv, PYTHONHASHSEED=seed) for seed in ("0", "1", "2")]
    assert runs[0].stdout and runs[0].returncode in (0, 1)
    assert [(run.returncode, run.stdout) for run in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout)] * 2


def test_a_long_center_within_the_letter_limit_prints_as_before(config_dir, capsys):
    code, out, err = invoke(capsys, ["growth", "-c", cfg(config_dir, "free2_swap"),
                                     "--center", "g1^100000", "--radius", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "3,15,8"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "379d916de2bfdc7b5efe04738dc86d31162c5abd8b1b871513149c5075633dc7")


S3_TU = {"kind": "permutation", "degree": 3, "gens": ["t", "u"],
         "gen_images": [[1, 0, 2], [1, 2, 0]]}


@pytest.mark.parametrize("factor,images", [
    ({"kind": "heisenberg"}, {"t": "t", "u": "u", "a": "a", "b": "b", "c": "c^-1"}),
    ({"kind": "free_abelian", "rank": 1, "gens": ["x"]}, {"t": "t", "u": "u", "x": "x^-1"}),
], ids=["s3-x-heisenberg", "s3-x-z"])
def test_infinite_product_without_relators_cannot_be_verified(tmp_path, capsys, factor, images):
    path = tmp_path / "product.json"
    path.write_text(json.dumps(one_automorphism(
        {"kind": "direct_product", "factors": [S3_TU, factor]}, images)))
    code, out, err = invoke(capsys, ["axioms", "-c", str(path)])
    assert code == 2
    assert out == ""
    assert err == ("error: 's': backend kind direct_product has no relator list "
                   "and is not finite; cannot verify\n")


def test_automorphism_closure_over_bound_exits_3(tmp_path, capsys):
    shear = tmp_path / "shear.json"
    shear.write_text(json.dumps({
        "schema": 1,
        "group": {"kind": "free_abelian", "rank": 2},
        "automorphisms": [{"name": "shear", "images": {"g1": "g1", "g2": "g1*g2"},
                           "inverse_images": {"g1": "g1", "g2": "g1^-1*g2"}}],
        "mv": {"kind": "coset"},
    }))
    code, _, err = invoke(capsys, ["axioms", "-c", str(shear)])
    assert code == 3
    assert "more than 10000 distinct elements" in err
