"""Parsing of word expressions and JSON instance-definition files.

Word grammar (whitespace insignificant):

    word := term ('*' term)*
    term := NAME ('^' INT)? | INT | 'e'

NAME is an ASCII identifier [A-Za-z][A-Za-z0-9_]*; 'e' is reserved for the
identity and parses to the empty word.  Bare INT terms are element
literals for the builtin-nat carrier, which has no generator alphabet.
``parse_word`` reads one term, with the whitespace around it, per match
of a single regular expression.

Config documents are JSON objects with a versioned "schema": 1 field.
``parse_config`` checks a document and builds its parts in one walk: the
group backend (which names its generators), the unverified automorphisms
and the element of every config word; each failure names its path.
``build_instance`` then builds the one ``Budget`` handle of the run, from
the --budget flag, else ``defaults.budget``, closes the automorphisms or
the subgroup under it and constructs the n-valued group.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Tuple, Union

from .errors import (
    SchemaError,
    UnknownGenerator,
    ValidationError,
    WordSyntaxError,
)
from .groups import (
    DEFAULT_BUDGET,
    Automorphism,
    Budget,
    CyclicGroup,
    DirectProduct,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupBackend,
    HeisenbergGroup,
    PermutationGroup,
    close_automorphisms,
)
from .mvalued import CosetGroup, DoubleCosetGroup, MutatedNatGroup, MvGroup, NatGroup

Word = Tuple[Tuple[str, int], ...]

# one term and the whitespace around it; every part is optional, so the
# match always succeeds and the groups that took part say what was found
_TERM_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)\s*"
                      r"(?P<caret>\^\s*(?P<exp>-?[0-9]+)?)?|(?P<num>[0-9]+))?\s*")


def parse_word(text: str) -> Word:
    """Parse a word expression into ((symbol, exponent), ...).

    Each '*'-separated term is one match of _TERM_RE; a WordSyntaxError
    gives the offset of the first character that does not fit the grammar.
    """
    terms: List[Tuple[str, int]] = []
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        name, caret, exp, num = m.group("name", "caret", "exp", "num")
        if name == "e":
            if caret is not None:
                raise WordSyntaxError("the identity 'e' takes no exponent", m.start("caret"))
        elif name is not None:
            if caret is not None and exp is None:
                raise WordSyntaxError("expected an integer exponent", m.end("caret"))
            k = 1 if exp is None else int(exp)
            if k:
                terms.append((name, k))
        elif num is not None:
            terms.append((num, 1))
        else:
            raise WordSyntaxError("expected a term", m.end())
        pos = m.end()
        if pos == len(text):
            return tuple(terms)
        if text[pos] != "*":
            raise WordSyntaxError("expected '*' between terms", pos)
        pos += 1


def render_word(word: Word) -> str:
    if not word:
        return "e"
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word)


def evaluate_word(backend: GroupBackend, word: Word):
    """Evaluate a word in the backend's declared generators."""
    index = {name: i for i, name in enumerate(backend.gen_names)}
    resolved = []
    for name, exp in word:
        if name not in index:
            raise UnknownGenerator(f"unknown generator {name!r} "
                                   f"(declared: {', '.join(backend.gen_names)})")
        resolved.append((index[name], exp))
    return backend.evaluate(tuple(resolved))


def nat_element(word: Word) -> int:
    """Element literal for the builtin-nat carrier."""
    if not word:
        return 0
    if len(word) == 1 and word[0][1] == 1 and word[0][0].isdigit():
        return int(word[0][0])
    raise ValidationError(
        f"builtin-nat elements are numeric literals, got {render_word(word)!r}")


# ---------------------------------------------------------------------------
# config documents


class InstanceConfig(NamedTuple):
    """A checked config document with its parts built.

    `backend` is None for the builtin-nat kinds, whose elements are ints.
    The automorphisms are not yet verified; `subgroup` and `x_generators`
    hold the elements of the config words.
    """

    schema: int
    mv_kind: str
    backend: Optional[GroupBackend]
    automorphisms: List[Automorphism]
    subgroup: List[Any]
    x_generators: List[Any]
    default_radius: int
    default_budget: int


_TOP_KEYS = {"schema", "group", "automorphisms", "mv", "X_generators", "defaults"}
_NAT_KINDS = ("builtin_nat", "builtin_nat_mutated")
# mv kind -> the fields it does not use, which must be absent or empty
_UNUSED = {"coset": ("mv.subgroup",), "double_coset": ("automorphisms",),
           **dict.fromkeys(_NAT_KINDS, ("group", "automorphisms", "mv.subgroup"))}
# group kind -> the fields its descriptor may hold
_GROUP_KEYS = {
    "free": {"kind", "rank", "gens"},
    "free_abelian": {"kind", "rank", "gens"},
    "cyclic": {"kind", "order", "gens"},
    "heisenberg": {"kind"},
    "permutation": {"kind", "degree", "gens", "gen_images"},
    "finite_table": {"kind", "table", "identity", "gens", "gen_elements"},
    "direct_product": {"kind", "factors"},
}


def _require(doc: dict, key: str, path: str):
    """doc[key]; a missing key fails at path.key."""
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", f"{path}.{key}" if path else key)
    return doc[key]


def _known(doc: dict, keys, path: str) -> None:
    """The first key of doc outside `keys` fails at path.key."""
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown field {key!r}", f"{path}.{key}" if path else key)


def _word(text: Any, path: str) -> Word:
    if not isinstance(text, str):
        raise SchemaError("word must be a string", path)
    try:
        return parse_word(text)
    except WordSyntaxError as exc:
        raise SchemaError(f"bad word {text!r}: {exc}", path)


def _value(backend: Optional[GroupBackend], word: Word, path: str):
    """The element a config word denotes: a backend element, else a nat literal."""
    try:
        return nat_element(word) if backend is None else evaluate_word(backend, word)
    except (UnknownGenerator, ValidationError) as exc:
        raise SchemaError(str(exc), path) from None


def _element(backend: Optional[GroupBackend], text: Any, path: str):
    return _value(backend, _word(text, path), path)


def parse_config(document: Union[dict, str, Path]) -> InstanceConfig:
    """Check a config document and build its parts in one walk.

    Each field is checked for presence, type and range as its part is
    built, and every failure is a SchemaError naming the offending path.
    Every object takes only the keys of its kind, and a field the mv kind
    does not use must be absent or empty.
    """
    if isinstance(document, (str, Path)):
        with open(document, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    if not isinstance(document, dict):
        raise SchemaError("config document must be a JSON object")

    _known(document, _TOP_KEYS, "")
    if document.get("schema") != 1:
        raise SchemaError("schema must be the integer 1", "schema")

    mv = _require(document, "mv", "")
    if not isinstance(mv, dict) or "kind" not in mv:
        raise SchemaError("mv must be an object with a 'kind'", "mv")
    mv_kind = mv["kind"]
    if not isinstance(mv_kind, str) or mv_kind not in _UNUSED:
        raise SchemaError(f"unknown mv kind {mv_kind!r}", "mv.kind")
    _known(mv, {"kind", "subgroup"}, "mv")

    entries = _list(document.get("automorphisms", []), "automorphisms")
    words = _list(mv.get("subgroup", []), "mv.subgroup")
    fields = {"group": document.get("group"), "automorphisms": entries, "mv.subgroup": words}
    for path in _UNUSED[mv_kind]:
        if fields[path] not in (None, []):
            raise SchemaError(f"{mv_kind} instances take no {path.split('.')[-1]}", path)
    backend = None if mv_kind in _NAT_KINDS else build_backend(document.get("group"), "group")

    automorphisms = [_automorphism(backend, entry, f"automorphisms[{i}]", i)
                     for i, entry in enumerate(entries)]
    subgroup = [_element(backend, w, f"mv.subgroup[{i}]") for i, w in enumerate(words)]
    if mv_kind == "double_coset" and not subgroup:
        raise SchemaError("double_coset requires a nonempty subgroup", "mv.subgroup")
    if mv_kind == "coset" and not automorphisms:
        raise SchemaError("coset requires at least one automorphism seed", "automorphisms")

    x_generators = [_value(backend, _word(w, f"X_generators[{i}]"), f"X_generators[{i}]")
                    for i, w in enumerate(_list(document.get("X_generators", []), "X_generators"))]

    defaults = document.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SchemaError("defaults must be an object", "defaults")
    _known(defaults, {"radius", "budget"}, "defaults")
    radius = _int(defaults.get("radius", 8), "defaults.radius")
    budget = _int(defaults.get("budget", DEFAULT_BUDGET), "defaults.budget", 1)

    return InstanceConfig(1, mv_kind, backend, automorphisms, subgroup, x_generators,
                          radius, budget)


def _int(value: Any, path: str, low: int = 0, high: Optional[int] = None) -> int:
    """`value` itself if it is an int (not a bool) in low..high."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or (high is not None and value > high)):
        bounds = f"in {low}..{high}" if high is not None else f">= {low}"
        raise SchemaError(f"must be an integer {bounds}, got {value!r}", path)
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"must be a list, got {value!r}", path)
    return value


def _int_rows(value: Any, path: str, high: Optional[int] = None) -> list:
    """`value` itself if it is a list of lists of ints in 0..high."""
    for i, row in enumerate(_list(value, path)):
        for j, cell in enumerate(_list(row, f"{path}[{i}]")):
            _int(cell, f"{path}[{i}][{j}]", 0, high)
    return value


def _names(value: Any, path: str) -> List[str]:
    for i, name in enumerate(_list(value, path)):
        if not isinstance(name, str):
            raise SchemaError(f"generator name must be a string, got {name!r}", f"{path}[{i}]")
        if name in value[:i]:
            raise SchemaError(f"repeated generator name {name!r}", f"{path}[{i}]")
    return value


# ---------------------------------------------------------------------------
# construction


def build_backend(desc: Any, path: str = "group") -> GroupBackend:
    """The backend of a group descriptor, each field checked as it is used.

    A missing, mistyped or out-of-range field fails at its own path.  A
    backend that rejects well-typed fields (a table that is not a group, an
    image row that is not a permutation, ...) fails at the descriptor's
    `path`.  The backend names its generators: from `gens` where the kind
    takes it, else by the kind's own rule.
    """
    if not isinstance(desc, dict):
        raise SchemaError(f"must be a group descriptor object, got {desc!r}", path)
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _GROUP_KEYS:
        raise SchemaError(f"unknown group kind {kind!r}", f"{path}.kind")
    if kind in ("permutation", "finite_table"):
        gens = _names(_require(desc, "gens", path), f"{path}.gens")
    elif "gens" not in desc:
        gens = None
    elif kind in ("heisenberg", "direct_product"):
        raise SchemaError(f"{kind} takes no gens: it names its generators", f"{path}.gens")
    else:
        gens = _names(desc["gens"], f"{path}.gens")
    _known(desc, _GROUP_KEYS[kind], path)
    try:
        if kind in ("free", "free_abelian"):
            if "rank" not in desc and not gens:
                raise SchemaError(f"{kind} group needs a rank or gens list", path)
            rank = _int(desc.get("rank", len(gens or ())), f"{path}.rank", 1)
            return (FreeGroup if kind == "free" else FreeAbelianGroup)(rank, gens)
        if kind == "cyclic":
            return CyclicGroup(_int(desc.get("order"), f"{path}.order", 1), gens)
        if kind == "heisenberg":
            return HeisenbergGroup()
        if kind == "permutation":
            degree = _int(_require(desc, "degree", path), f"{path}.degree", 1)
            images = _int_rows(_require(desc, "gen_images", path), f"{path}.gen_images")
            return PermutationGroup(degree, gens, images)
        if kind == "finite_table":
            table = _list(_require(desc, "table", path), f"{path}.table")
            top = len(table) - 1
            _int_rows(table, f"{path}.table", top)
            identity = _int(desc.get("identity", 0), f"{path}.identity", 0, top)
            elements = [_int(g, f"{path}.gen_elements[{i}]", 0, top) for i, g in enumerate(
                _list(_require(desc, "gen_elements", path), f"{path}.gen_elements"))]
            return FiniteTableGroup(table, identity, gens, elements)
        factors = desc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise SchemaError("direct_product needs a factors list", f"{path}.factors")
        return DirectProduct([build_backend(sub, f"{path}.factors[{i}]")
                              for i, sub in enumerate(factors)])
    except ValidationError as exc:
        raise SchemaError(str(exc), path) from None


def _automorphism(backend: GroupBackend, entry: Any, path: str, index: int) -> Automorphism:
    """An unverified automorphism from an entry whose two image maps each
    name every generator of the backend and no other."""
    if not isinstance(entry, dict):
        raise SchemaError("automorphism entry must be an object", path)
    _known(entry, {"name", "images", "inverse_images"}, path)
    maps = []
    for label in ("images", "inverse_images"):
        mapping = entry.get(label)
        if not isinstance(mapping, dict):
            raise SchemaError(f"{label} map required", f"{path}.{label}")
        for gen in backend.gen_names:
            if gen not in mapping:
                raise SchemaError(f"no image for generator {gen!r}", f"{path}.{label}")
        for gen in mapping:
            if gen not in backend.gen_names:
                raise SchemaError(f"image for undeclared generator {gen!r}", f"{path}.{label}")
        maps.append([_element(backend, mapping[gen], f"{path}.{label}.{gen}")
                     for gen in backend.gen_names])
    return Automorphism(backend, entry.get("name", f"a{index}"), *maps)


class Instance(NamedTuple):
    """A fully built n-valued group plus the config's generating data, and
    the budget handle it was built under, which the commands run under."""

    config: InstanceConfig
    X: MvGroup
    backend: Optional[GroupBackend]
    auts: Optional[Tuple[Automorphism, ...]]
    x_generators: List[Any]
    budget: Budget

    def element(self, text: str):
        """An X-element from a word expression (projected for coset kinds)."""
        g = self.backend_element(text)
        return g if self.backend is None else self.X.project(g)

    def backend_element(self, text: str):
        """The underlying G-element of a word; nat literals pass through."""
        word = parse_word(text)
        return nat_element(word) if self.backend is None else evaluate_word(self.backend, word)


def build_instance(config: InstanceConfig, limit: Optional[int] = None) -> Instance:
    """Build the budget handle, with `limit`, by default `defaults.budget`;
    under it, close the automorphisms and check each (coset) or close the
    subgroup and partition G (double coset); and construct the n-valued
    group over the config's built parts.  A coset group draws no G-element
    here."""
    budget = Budget(config.default_budget if limit is None else limit)
    backend = config.backend
    if backend is None:
        X = NatGroup() if config.mv_kind == "builtin_nat" else MutatedNatGroup()
        return Instance(config, X, None, None, list(config.x_generators or [1]), budget)
    auts = None
    if config.mv_kind == "coset":
        auts = close_automorphisms(config.automorphisms, budget)
        X = CosetGroup(backend, auts)
    else:
        X = DoubleCosetGroup(backend, config.subgroup, budget)
    return Instance(config, X, backend, auts, [X.project(g) for g in config.x_generators],
                    budget)


def load_instance(path: Union[str, Path], limit: Optional[int] = None) -> Instance:
    return build_instance(parse_config(path), limit)
