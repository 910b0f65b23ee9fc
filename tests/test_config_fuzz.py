"""Mutated shipped configs never crash the CLI.

Each example takes one shipped config and changes one or two fields: a
value of another type or an out-of-range int, a deleted key, an
automorphism image that is not an automorphism, or a repeated entry in a
`gens` list.  Two changes can make fields disagree, such as an emptied
`gens` list and an emptied image map.  `axioms`, `growth` and
`verify --suite example46` on the result must exit 0-3 without a
traceback, exit 1 only with a FAIL verdict, and exit 2 whenever a `gens`
list repeats a name.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvgroups.cli import run

from oracles import PATHS, SHIPPED

CONFIGS = {name: json.loads(PATHS[name].read_text()) for name in SHIPPED}
COMMANDS = (["axioms", "--sample", "3", "--budget", "2000"],
            ["growth", "--radius", "2", "--budget", "2000"],
            ["verify", "--suite", "example46", "--radius", "5", "--budget", "2000"])

# values of another type than the field holds, and ints out of every range
# (small enough that an accepted one stays cheap: a cyclic order of 40 is fine)
JUNK = st.sampled_from([None, True, 1.5, "x", "", "g1^-1", [], [[]], {}, {"kind": "free"}])
INTS = st.integers(min_value=-3, max_value=40)


def paths(node, prefix=()):
    """The path of every value inside a JSON document, the root excepted."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(node, path):
    """The value at `path` inside a JSON document."""
    for key in path:
        node = node[key]
    return node


def group_descriptors(config):
    """The objects holding a nonempty gens list: the group and its factors."""
    return [node for node in (at(config, path[:-1]) for path in paths(config)
                              if path[-1] == "gens")
            if isinstance(node["gens"], list) and node["gens"]]


def repeats_a_name(config):
    return any(node["gens"].count(name) > 1
               for node in group_descriptors(config) for name in node["gens"])


def words(gens):
    """Short words over the generator names, most of them no automorphism image."""
    syllable = st.tuples(st.sampled_from(gens), st.sampled_from([-2, -1, 1, 2, 3]))
    return st.lists(syllable, max_size=3).map(
        lambda w: "*".join(f"{g}^{e}" for g, e in w) or "e")


def mutate(data, config):
    kind = data.draw(st.sampled_from(["replace", "delete", "image", "duplicate"]))
    autos = config.get("automorphisms")
    # the image maps still intact after an earlier change
    maps = [auto[field] for auto in (autos if isinstance(autos, list) else [])
            if isinstance(auto, dict) for field in ("images", "inverse_images")
            if isinstance(auto.get(field), dict) and auto[field]]
    if kind == "image" and maps:
        mapping = data.draw(st.sampled_from(maps))
        gens = sorted(mapping)
        mapping[data.draw(st.sampled_from(gens))] = data.draw(words(gens))
        return
    if kind == "duplicate" and group_descriptors(config):
        # repeat one generator with its image row or element, and one more rank
        desc = data.draw(st.sampled_from(group_descriptors(config)))
        i = data.draw(st.integers(0, len(desc["gens"]) - 1))
        for field in ("gens", "gen_images", "gen_elements"):
            if isinstance(desc.get(field), list) and len(desc[field]) > i:
                desc[field].append(copy.deepcopy(desc[field][i]))
        if type(desc.get("rank")) is int:
            desc["rank"] += 1
        return
    *parents, last = data.draw(st.sampled_from(list(paths(config))))
    parent = at(config, parents)
    if kind == "delete":
        del parent[last]
    else:
        parent[last] = copy.deepcopy(data.draw(st.one_of(JUNK, INTS)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_config_never_crashes(data):
    config = copy.deepcopy(CONFIGS[data.draw(st.sampled_from(sorted(CONFIGS)))])
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        mutate(data, config)
    repeated = repeats_a_name(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        for command, *flags in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run([command, "-c", str(path), *flags])
            assert code in (0, 1, 2, 3), (command, config)
            if repeated:
                assert code == 2, (command, config)
            if code == 1:
                assert command in ("axioms", "verify") and "FAIL" in out.getvalue(), config
