import importlib.util
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgroups.errors import (
    SchemaError,
    UnknownGenerator,
    ValidationError,
    WordSyntaxError,
)
from mvgroups.groups import FreeGroup
from mvgroups.mvalued import CosetGroup, DoubleCosetGroup, NatGroup
from mvgroups.wordspec import (
    build_instance,
    evaluate_word,
    load_instance,
    nat_element,
    parse_config,
    parse_word,
    render_word,
)

from oracles import PATHS, ROOT, scanner_parse_word


# ---------------------------------------------------------------------------
# word parsing


def test_parse_basic_word():
    assert parse_word("g1*g2^-1*g1^2") == (("g1", 1), ("g2", -1), ("g1", 2))


def test_parse_identity():
    assert parse_word("e") == ()
    assert parse_word("  e  ") == ()
    assert parse_word("g1*e*g2") == (("g1", 1), ("g2", 1))


def test_parse_zero_exponent_drops_term():
    assert parse_word("g1^0*g2") == (("g2", 1),)


def test_parse_whitespace_insensitive():
    assert parse_word(" g1 * g2 ^ -3 ") == (("g1", 1), ("g2", -3))


def test_parse_numeric_literal():
    assert parse_word("5") == (("5", 1),)
    assert nat_element(parse_word("5")) == 5
    assert nat_element(parse_word("e")) == 0


def test_parse_error_position():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("g1**g2")
    assert exc.value.position == 3

    with pytest.raises(WordSyntaxError):
        parse_word("")
    with pytest.raises(WordSyntaxError):
        parse_word("g1^x")
    with pytest.raises(WordSyntaxError):
        parse_word("e^2")
    with pytest.raises(WordSyntaxError):
        parse_word("g1 g2")
    with pytest.raises(WordSyntaxError):
        parse_word("-3")


def test_render_word():
    assert render_word(()) == "e"
    assert render_word((("g1", 1), ("g2", -2))) == "g1*g2^-2"


@given(st.lists(
    st.tuples(st.sampled_from(["g1", "g2", "a", "b_2"]),
              st.integers(min_value=-9, max_value=9).filter(lambda k: k != 0)),
    max_size=8))
def test_parse_render_round_trip(word):
    assert parse_word(render_word(tuple(word))) == tuple(word)


def parse_outcome(parse, text):
    """The word, or the text of the WordSyntaxError with its offset."""
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc)


# name letters, the identity, the word syntax, ASCII whitespace and two
# Unicode spaces (no-break space, file separator) that str.isspace accepts
WORD_ALPHABET = "abgxe_^-0123*" + " \t\n\r\x0b\x0c\xa0\x1c"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text(WORD_ALPHABET, max_size=16), min_size=25, max_size=25))
def test_parse_word_matches_the_scanner(texts):
    # 400 examples of 25 strings: 10,000 strings per run
    for text in texts:
        assert parse_outcome(parse_word, text) == parse_outcome(scanner_parse_word, text), text


def test_evaluate_word():
    f = FreeGroup(2)
    g = evaluate_word(f, parse_word("g1*g2^-1"))
    assert g == f.mul(f.gens[0], f.inv(f.gens[1]))
    with pytest.raises(UnknownGenerator):
        evaluate_word(f, parse_word("g3"))


def test_nat_element_rejects_words():
    with pytest.raises(ValidationError):
        nat_element(parse_word("g1"))


# ---------------------------------------------------------------------------
# config documents


def minimal_nat_config():
    return {"schema": 1, "mv": {"kind": "builtin_nat"}}


def test_minimal_nat_config():
    config = parse_config(minimal_nat_config())
    inst = build_instance(config)
    assert isinstance(inst.X, NatGroup)
    assert inst.x_generators == [1]  # default generating set {1}
    assert config.default_radius == 8
    assert config.default_budget == 10 ** 6


def test_all_golden_configs_build(config_dir, instances):
    assert len(instances) == 10
    for name, inst in instances.items():
        assert inst.config.schema == 1
        assert inst.X.n >= 2, name


def test_golden_coset_configs_have_expected_shape(instances):
    assert isinstance(instances["z_pm1"].X, CosetGroup)
    assert instances["z_pm1"].X.n == 2
    assert isinstance(instances["s3_doublecoset"].X, DoubleCosetGroup)
    assert instances["heis_swap"].backend.kind == "heisenberg"
    assert instances["z3xF2_example46"].backend.kind == "direct_product"


def test_schema_field_required():
    with pytest.raises(SchemaError):
        parse_config({"mv": {"kind": "builtin_nat"}})
    with pytest.raises(SchemaError):
        parse_config({"schema": 2, "mv": {"kind": "builtin_nat"}})


def test_unknown_top_level_field_rejected():
    doc = minimal_nat_config()
    doc["surprise"] = True
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert "surprise" in str(exc.value)


def test_unknown_mv_kind_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_config({"schema": 1, "mv": {"kind": "mystery"}})
    assert exc.value.path == "mv.kind"


def test_builtin_nat_takes_no_group():
    doc = minimal_nat_config()
    doc["group"] = {"kind": "free", "rank": 1}
    with pytest.raises(SchemaError):
        parse_config(doc)


def coset_doc(images, inverse_images):
    return {
        "schema": 1,
        "group": {"kind": "free_abelian", "rank": 2},
        "automorphisms": [{"name": "a", "images": images,
                           "inverse_images": inverse_images}],
        "mv": {"kind": "coset"},
    }


def test_automorphism_must_cover_all_generators():
    doc = coset_doc({"g1": "g2"}, {"g1": "g2", "g2": "g1"})
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert "g2" in str(exc.value)  # the missing generator is named


def test_automorphism_rejects_undeclared_generator():
    doc = coset_doc({"g1": "g2", "g2": "g1", "g3": "g1"},
                    {"g1": "g2", "g2": "g1"})
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert "g3" in str(exc.value)


def test_coset_requires_a_seed():
    with pytest.raises(SchemaError):
        parse_config({"schema": 1, "group": {"kind": "free_abelian", "rank": 1},
                      "mv": {"kind": "coset"}})


def test_double_coset_requires_subgroup():
    with pytest.raises(SchemaError):
        parse_config({"schema": 1,
                      "group": {"kind": "permutation", "degree": 3,
                                "gens": ["t"], "gen_images": [[1, 0, 2]]},
                      "mv": {"kind": "double_coset"}})


PERMUTATION = {"kind": "permutation", "degree": 3, "gens": ["t"], "gen_images": [[1, 0, 2]]}
TABLE = {"kind": "finite_table", "table": [[0, 1], [1, 0]], "gens": ["t"], "gen_elements": [1]}


MISSING_FIELD_CASES = [
    (PERMUTATION, "group.degree"),
    (PERMUTATION, "group.gens"),
    (PERMUTATION, "group.gen_images"),
    (TABLE, "group.table"),
    (TABLE, "group.gens"),
    (TABLE, "group.gen_elements"),
    ({"kind": "direct_product", "factors": [PERMUTATION]}, "group.factors[0].degree"),
]


@pytest.mark.parametrize("group,path", MISSING_FIELD_CASES,
                         ids=[path for _, path in MISSING_FIELD_CASES])
def test_missing_group_field_names_path(group, path):
    group = json.loads(json.dumps(group))
    target = group["factors"][0] if "factors" in group else group
    del target[path.rsplit(".", 1)[1]]
    with pytest.raises(SchemaError) as exc:
        parse_config({"schema": 1, "group": group,
                      "mv": {"kind": "double_coset", "subgroup": ["t"]}})
    assert exc.value.path == path


BAD_FIELD_CASES = [
    ({**PERMUTATION, "degree": "3"}, "group.degree"),
    ({**PERMUTATION, "degree": True}, "group.degree"),
    ({**PERMUTATION, "degree": 0}, "group.degree"),
    ({**PERMUTATION, "gens": "t"}, "group.gens"),
    ({**PERMUTATION, "gens": [1]}, "group.gens[0]"),
    ({**PERMUTATION, "gen_images": [1, 0, 2]}, "group.gen_images[0]"),
    ({**PERMUTATION, "gen_images": [[1, "0", 2]]}, "group.gen_images[0][1]"),
    ({**TABLE, "table": [[0, 1], [1, 0.0]]}, "group.table[1][1]"),
    ({**TABLE, "table": [[0, 2], [1, 0]]}, "group.table[0][1]"),
    ({**TABLE, "table": {"0": [0, 1]}}, "group.table"),
    ({**TABLE, "identity": True}, "group.identity"),
    ({**TABLE, "identity": 2}, "group.identity"),
    ({**TABLE, "gen_elements": [2]}, "group.gen_elements[0]"),
    ({**TABLE, "gen_elements": 1}, "group.gen_elements"),
    ({"kind": "free", "rank": "2"}, "group.rank"),
    ({"kind": "free_abelian", "gens": []}, "group"),
    ({"kind": "cyclic", "order": 0}, "group.order"),
    ({"kind": "direct_product", "factors": [{"kind": "cyclic", "order": 0}]},
     "group.factors[0].order"),
    ({"kind": "direct_product", "factors": [{**PERMUTATION, "degree": "3"}]},
     "group.factors[0].degree"),
    # well-typed fields that the backend constructor rejects
    ({**TABLE, "table": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}, "group"),
    ({**PERMUTATION, "gen_images": [[0, 0, 2]]}, "group"),
    ({"kind": "free", "rank": 3, "gens": ["a", "b"]}, "group"),
    ({"kind": "direct_product",
      "factors": [{"kind": "cyclic", "order": 2, "gens": ["h"]},
                  {**PERMUTATION, "gen_images": [[0, 0, 2]]}]},
     "group.factors[1]"),
    # a kind that is not a string is an unknown kind, not a TypeError
    ({"kind": ["free"], "rank": 2}, "group.kind"),
    ({"kind": {"free": 2}}, "group.kind"),
    # heisenberg and direct_product name their own generators
    ({"kind": "heisenberg", "gens": ["a", "b", "c"]}, "group.gens"),
    ({"kind": "direct_product", "gens": ["h"],
      "factors": [{"kind": "cyclic", "order": 3, "gens": ["h"]}]}, "group.gens"),
]


@pytest.mark.parametrize("group,path", BAD_FIELD_CASES,
                         ids=[f"{i}-{path}" for i, (_, path) in enumerate(BAD_FIELD_CASES)])
def test_bad_group_field_names_path(group, path):
    with pytest.raises(SchemaError) as exc:
        build_instance(parse_config({"schema": 1, "group": group,
                                     "mv": {"kind": "double_coset", "subgroup": ["t"]}}))
    assert exc.value.path == path


def test_double_coset_on_infinite_backend_fails():
    config = parse_config({
        "schema": 1,
        "group": {"kind": "free", "rank": 2},
        "mv": {"kind": "double_coset", "subgroup": ["g1"]},
    })
    with pytest.raises(ValidationError,
                       match="^double coset groups are implemented for finite backends only$"):
        build_instance(config)


def test_bad_defaults_rejected():
    doc = minimal_nat_config()
    doc["defaults"] = {"radius": -1}
    with pytest.raises(SchemaError):
        parse_config(doc)
    doc["defaults"] = {"radius": 4, "budget": 0}
    with pytest.raises(SchemaError):
        parse_config(doc)


@pytest.mark.parametrize("key,value,path", [
    ("X_generators", "1", "X_generators"),
    ("automorphisms", {}, "automorphisms"),
    ("defaults", {"budget": "10"}, "defaults.budget"),
    ("defaults", {"radius": True}, "defaults.radius"),
    ("mv", {"kind": ["builtin_nat"]}, "mv.kind"),
    # builtin-nat takes no automorphisms, no subgroup and only numeric literals
    ("automorphisms", [{"images": {}, "inverse_images": {}}], "automorphisms"),
    ("mv", {"kind": "builtin_nat", "subgroup": ["1"]}, "mv.subgroup"),
    ("X_generators", ["g1"], "X_generators[0]"),
])
def test_bad_top_level_field_names_path(key, value, path):
    doc = minimal_nat_config()
    doc[key] = value
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert exc.value.path == path


def test_bad_word_in_config_names_path():
    doc = coset_doc({"g1": "g2", "g2": "g1*"}, {"g1": "g2", "g2": "g1"})
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert "images.g2" in (exc.value.path or "")


def one_automorphism(group, images, **fields):
    """A coset document whose one automorphism is `images` both ways."""
    return {"schema": 1, "group": group,
            "automorphisms": [{"name": "s", "images": images, "inverse_images": images}],
            "mv": {"kind": "coset"}, **fields}


FREE2 = {"kind": "free", "rank": 2}
# an image map that misses a generator of the backend, or a word naming an unknown one
CONFIG_PATH_CASES = [
    (one_automorphism({**FREE2, "gens": []}, {}), "automorphisms[0].images"),
    (one_automorphism(FREE2, {"g1": "g3", "g2": "g1"}), "automorphisms[0].images.g1"),
    ({"schema": 1, "group": PERMUTATION, "mv": {"kind": "double_coset", "subgroup": ["g3"]}},
     "mv.subgroup[0]"),
    (one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}, X_generators=["g3"]), "X_generators[0]"),
    # a coset takes no subgroup, a double coset no automorphisms
    (one_automorphism(FREE2, {"g1": "g2", "g2": "g1"}, mv={"kind": "coset", "subgroup": ["g1"]}),
     "mv.subgroup"),
    ({"schema": 1, "group": PERMUTATION, "mv": {"kind": "double_coset", "subgroup": ["t"]},
      "automorphisms": [{"images": {"t": "t"}, "inverse_images": {"t": "t"}}]}, "automorphisms"),
]


@pytest.mark.parametrize("doc,path", CONFIG_PATH_CASES,
                         ids=[f"{i}-{path}" for i, (_, path) in enumerate(CONFIG_PATH_CASES)])
def test_config_error_names_path(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert exc.value.path == path


def test_empty_gens_keep_the_backend_names():
    config = parse_config(one_automorphism({"kind": "cyclic", "order": 5, "gens": []},
                                           {"g": "g^-1"}))
    assert config.backend.gen_names == ("g",)
    assert build_instance(config).X.n == 2


def test_load_instance_from_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(minimal_nat_config()))
    inst = load_instance(path)
    assert isinstance(inst.X, NatGroup)


def test_instance_element_lookup(instances):
    inst = instances["z_pm1"]
    # projection picks the class member least under native order; it prints as 3
    assert inst.element("g1^-3") == inst.element("g1^3") == (-3,)
    assert inst.X.render(inst.element("g1^-3")) == "3"
    assert inst.backend_element("g1^-3") == (-3,)
    assert inst.element("e") == inst.X.unit

    nat = instances["nat"]
    assert nat.element("7") == 7
    assert nat.backend_element("7") == 7


# ---------------------------------------------------------------------------
# unknown and unused fields

def objects(doc):
    """(path, object) for the document and every object a config may nest."""
    yield "", doc
    for key in ("mv", "defaults"):
        if key in doc:
            yield key, doc[key]
    for i, entry in enumerate(doc.get("automorphisms", [])):
        yield f"automorphisms[{i}]", entry
    stack = [("group", doc["group"])] if "group" in doc else []
    while stack:
        path, group = stack.pop()
        yield path, group
        stack.extend((f"{path}.factors[{i}]", sub)
                     for i, sub in enumerate(group.get("factors", [])))


MISSPELLED = [(name, level) for name, path in PATHS.items()
              for level, _ in objects(json.loads(path.read_text()))]


@pytest.mark.parametrize("name,level", MISSPELLED,
                         ids=[f"{name}:{level or 'top'}" for name, level in MISSPELLED])
def test_misspelled_key_at_every_level_names_its_path(name, level):
    doc = json.loads(PATHS[name].read_text())
    target = dict(objects(doc))[level]
    target["radus"] = 3
    with pytest.raises(SchemaError) as exc:
        parse_config(doc)
    assert exc.value.path == (f"{level}.radus" if level else "radus")
    assert "unknown field 'radus'" in str(exc.value)


def test_shipped_and_bench_configs_build(tmp_path):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    generated = []
    for workload, seed in itertools.product(workloads.WORKLOADS, (1, 2)):
        configs = workloads.build(workload, seed, tmp_path)["configs"]
        generated += [tmp_path / c for c in configs if c.startswith("bench")]
    assert len(generated) == 8
    for path in [*PATHS.values(), *generated]:
        assert load_instance(path).X.n >= 2, path
