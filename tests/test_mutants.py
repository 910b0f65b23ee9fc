"""The mutant table of ``tests/mutants.py`` kept runnable: every row edits
exactly one place, every killer names a test, and one row runs end to end.
The whole table runs as a script, ``python tests/mutants.py``."""

import mutants

SMOKE = mutants.MUTANT["identity-generator-name"]


def test_the_check_flags_a_missing_repeated_or_idle_edit_and_a_repeated_id():
    row = mutants.MUTANT["fold-returns-its-batch"]
    bad = [row._replace(id="missing", old="no such text"), row._replace(id="twice", old="    "),
           row._replace(id="idle", new=row.old), row, row]
    assert [fault.split(":")[0] for fault in mutants.faults(bad)] == [
        row.id, "missing", "twice", "idle"]


def test_every_row_edits_one_place_under_an_id_of_its_own():
    assert mutants.faults(mutants.MUTANTS) == []


def test_a_row_is_killed_and_an_unmutated_copy_passes(tmp_path):
    """The row's killers fail on a mutated copy of the tree.  At the same
    time an unmutated copy collects every killer of the table, so a killer
    that names no test stops it with exit 4, and runs the row's own."""
    killers = list(dict.fromkeys(k for row in mutants.MUTANTS for k in row.killers))
    names = " or ".join(sorted({k.split("::")[1].split("[")[0] for k in SMOKE.killers}))
    children = [mutants.start(mutants.copy_tree(tmp_path / "mutant", SMOKE), SMOKE.killers),
                mutants.start(mutants.copy_tree(tmp_path / "control"), [*killers, "-k", names])]
    (code, output), (control, control_output) = map(mutants.finish, children)
    assert mutants.killed(code, output), output
    assert control == 0, control_output
