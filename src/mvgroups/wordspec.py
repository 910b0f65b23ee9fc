"""Parsing of word expressions and JSON instance-definition files.

Word grammar (whitespace insignificant):

    word := term ('*' term)*
    term := NAME ('^' INT)? | INT | 'e'

NAME is an ASCII identifier [A-Za-z][A-Za-z0-9_]*; 'e' is reserved for the
identity and parses to the empty word.  Bare INT terms are element
literals for the builtin-nat carrier, which has no generator alphabet.

Config documents are JSON objects with a versioned "schema": 1 field; see
``parse_config`` for validation and ``build_instance`` for construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    SchemaError,
    UnknownGenerator,
    ValidationError,
    WordSyntaxError,
)
from .groups import (
    Automorphism,
    AutomorphismGroup,
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

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_word(text: str) -> Word:
    """Parse a word expression into ((symbol, exponent), ...)."""
    pos = 0
    n = len(text)
    terms: List[Tuple[str, int]] = []

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_term():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise WordSyntaxError("expected a term", pos)
        m = _NAME_RE.match(text, pos)
        if m:
            name = m.group()
            pos = m.end()
            skip_ws()
            if name == "e":
                if pos < n and text[pos] == "^":
                    raise WordSyntaxError("the identity 'e' takes no exponent", pos)
                return
            exp = 1
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                mi = _INT_RE.match(text, pos)
                if not mi:
                    raise WordSyntaxError("expected an integer exponent", pos)
                exp = int(mi.group())
                pos = mi.end()
                if exp == 0:
                    return
            terms.append((name, exp))
            return
        mi = _INT_RE.match(text, pos)
        if mi and not mi.group().startswith("-"):
            terms.append((mi.group(), 1))
            pos = mi.end()
            return
        raise WordSyntaxError("expected a term", pos)

    parse_term()
    skip_ws()
    while pos < n:
        if text[pos] != "*":
            raise WordSyntaxError("expected '*' between terms", pos)
        pos += 1
        parse_term()
        skip_ws()
    return tuple(terms)


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


@dataclass
class AutomorphismSeed:
    name: str
    images: Dict[str, Word]
    inverse_images: Dict[str, Word]


@dataclass
class InstanceConfig:
    schema: int
    group: Optional[dict]
    automorphism_seeds: List[AutomorphismSeed]
    mv_kind: str
    subgroup: List[Word]
    x_generators: List[Word]
    default_radius: int
    default_budget: int


_TOP_KEYS = {"schema", "group", "automorphisms", "mv", "X_generators", "defaults"}
_MV_KINDS = {"coset", "double_coset", "builtin_nat", "builtin_nat_mutated"}
_GROUP_KINDS = {"free", "free_abelian", "heisenberg", "cyclic", "finite_table",
                "permutation", "direct_product"}
_REQUIRED_GROUP_FIELDS = {"permutation": ("degree", "gens", "gen_images"),
                          "finite_table": ("table", "gens", "gen_elements")}


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", path)
    return doc[key]


def _parse_word_field(text: Any, path: str) -> Word:
    if not isinstance(text, str):
        raise SchemaError("word must be a string", path)
    try:
        return parse_word(text)
    except WordSyntaxError as exc:
        raise SchemaError(f"bad word {text!r}: {exc}", path)


def parse_config(document: Union[dict, str, Path]) -> InstanceConfig:
    """Validate a config document; every failure names the offending path."""
    if isinstance(document, (str, Path)):
        with open(document, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    if not isinstance(document, dict):
        raise SchemaError("config document must be a JSON object")

    extra = set(document) - _TOP_KEYS
    if extra:
        raise SchemaError(f"unknown fields: {sorted(extra)}")
    if document.get("schema") != 1:
        raise SchemaError("schema must be the integer 1", "schema")

    mv = _require(document, "mv", "")
    if not isinstance(mv, dict) or "kind" not in mv:
        raise SchemaError("mv must be an object with a 'kind'", "mv")
    mv_kind = mv["kind"]
    if not isinstance(mv_kind, str) or mv_kind not in _MV_KINDS:
        raise SchemaError(f"unknown mv kind {mv_kind!r}", "mv.kind")

    group = document.get("group")
    if mv_kind in ("builtin_nat", "builtin_nat_mutated"):
        if group is not None:
            raise SchemaError("builtin-nat instances take no group", "group")
    else:
        if not isinstance(group, dict):
            raise SchemaError("group descriptor required for this mv kind", "group")
        _validate_group(group, "group")

    gen_names = _declared_gen_names(group) if group else []

    seeds = []
    for i, entry in enumerate(_list(document.get("automorphisms", []), "automorphisms")):
        path = f"automorphisms[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("automorphism entry must be an object", path)
        name = entry.get("name", f"a{i}")
        images = entry.get("images")
        inverse_images = entry.get("inverse_images")
        if not isinstance(images, dict):
            raise SchemaError("images map required", f"{path}.images")
        if not isinstance(inverse_images, dict):
            raise SchemaError("inverse_images map required", f"{path}.inverse_images")
        for label, mapping in (("images", images), ("inverse_images", inverse_images)):
            for gen in gen_names:
                if gen not in mapping:
                    raise SchemaError(f"no image for generator {gen!r}",
                                      f"{path}.{label}")
            for gen in mapping:
                if gen not in gen_names:
                    raise SchemaError(f"image for undeclared generator {gen!r}",
                                      f"{path}.{label}")
        seeds.append(AutomorphismSeed(
            name,
            {g: _parse_word_field(w, f"{path}.images.{g}") for g, w in images.items()},
            {g: _parse_word_field(w, f"{path}.inverse_images.{g}")
             for g, w in inverse_images.items()},
        ))

    subgroup = [_parse_word_field(w, f"mv.subgroup[{i}]")
                for i, w in enumerate(_list(mv.get("subgroup", []), "mv.subgroup"))]
    if mv_kind == "double_coset" and not subgroup:
        raise SchemaError("double_coset requires a nonempty subgroup", "mv.subgroup")
    if mv_kind == "coset" and not seeds:
        raise SchemaError("coset requires at least one automorphism seed", "automorphisms")

    x_generators = [_parse_word_field(w, f"X_generators[{i}]")
                    for i, w in enumerate(_list(document.get("X_generators", []),
                                                  "X_generators"))]

    defaults = document.get("defaults", {})
    if not isinstance(defaults, dict):
        raise SchemaError("defaults must be an object", "defaults")
    radius = _int(defaults.get("radius", 8), "defaults.radius")
    budget = _int(defaults.get("budget", 10**6), "defaults.budget", 1)

    return InstanceConfig(1, group, seeds, mv_kind, subgroup, x_generators,
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


def _int_rows(value: Any, path: str, high: Optional[int] = None):
    """A list of lists of ints in 0..high."""
    for i, row in enumerate(_list(value, path)):
        for j, cell in enumerate(_list(row, f"{path}[{i}]")):
            _int(cell, f"{path}[{i}][{j}]", 0, high)


def _validate_group(desc: dict, path: str):
    """Kind, presence, type and range of every field, each failure at its path."""
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _GROUP_KINDS:
        raise SchemaError(f"unknown group kind {kind!r}", f"{path}.kind")
    for key in _REQUIRED_GROUP_FIELDS.get(kind, ()):
        if key not in desc:
            raise SchemaError(f"{kind} group needs {key!r}", f"{path}.{key}")
    if "gens" in desc:
        for i, name in enumerate(_list(desc["gens"], f"{path}.gens")):
            if not isinstance(name, str):
                raise SchemaError(f"generator name must be a string, got {name!r}",
                                  f"{path}.gens[{i}]")
    if kind in ("free", "free_abelian"):
        if "rank" in desc:
            _int(desc["rank"], f"{path}.rank", 1)
        elif not desc.get("gens"):
            raise SchemaError(f"{kind} group needs a rank or gens list", path)
    elif kind == "cyclic":
        _int(desc.get("order"), f"{path}.order", 1)
    elif kind == "permutation":
        _int(desc["degree"], f"{path}.degree", 1)
        _int_rows(desc["gen_images"], f"{path}.gen_images")
    elif kind == "finite_table":
        top = len(_list(desc["table"], f"{path}.table")) - 1
        _int_rows(desc["table"], f"{path}.table", top)
        _int(desc.get("identity", 0), f"{path}.identity", 0, top)
        for i, g in enumerate(_list(desc["gen_elements"], f"{path}.gen_elements")):
            _int(g, f"{path}.gen_elements[{i}]", 0, top)
    elif kind == "direct_product":
        factors = desc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise SchemaError("direct_product needs a factors list", f"{path}.factors")
        for i, sub in enumerate(factors):
            if not isinstance(sub, dict):
                raise SchemaError("factor must be a group descriptor",
                                  f"{path}.factors[{i}]")
            _validate_group(sub, f"{path}.factors[{i}]")


def _declared_gen_names(desc: dict) -> List[str]:
    kind = desc.get("kind")
    if kind == "heisenberg":
        return ["a", "b", "c"]
    if kind == "direct_product":
        names: List[str] = []
        for sub in desc["factors"]:
            names.extend(_declared_gen_names(sub))
        return names
    gens = desc.get("gens")
    if gens is not None:
        return list(gens)
    if kind in ("free", "free_abelian"):
        rank = desc.get("rank", 1)
        return [f"g{i+1}" for i in range(rank)]
    if kind == "cyclic":
        return ["g"]
    return []


# ---------------------------------------------------------------------------
# construction


def build_backend(desc: dict, path: str = "group") -> GroupBackend:
    """The backend of a group descriptor that ``parse_config`` validated.

    A backend that rejects its descriptor (a table that is not a group, an
    image row that is not a permutation, ...) fails with a SchemaError at
    the descriptor's `path`.
    """
    kind, gens = desc["kind"], desc.get("gens")
    try:
        if kind in ("free", "free_abelian"):
            backend = FreeGroup if kind == "free" else FreeAbelianGroup
            return backend(desc.get("rank", len(gens or ())), gens)
        if kind == "heisenberg":
            return HeisenbergGroup()
        if kind == "cyclic":
            return CyclicGroup(desc["order"], gens)
        if kind == "permutation":
            return PermutationGroup(desc["degree"], gens, desc["gen_images"])
        if kind == "finite_table":
            return FiniteTableGroup(desc["table"], desc.get("identity", 0),
                                    gens, desc["gen_elements"])
        return DirectProduct([build_backend(sub, f"{path}.factors[{i}]")
                              for i, sub in enumerate(desc["factors"])])
    except ValidationError as exc:
        raise SchemaError(str(exc), path) from None


def _build_seeds(backend: GroupBackend, seeds: Sequence[AutomorphismSeed]) -> List[Automorphism]:
    out = []
    for seed in seeds:
        images = [evaluate_word(backend, seed.images[name]) for name in backend.gen_names]
        inverse_images = [evaluate_word(backend, seed.inverse_images[name])
                          for name in backend.gen_names]
        out.append(Automorphism(backend, seed.name, images, inverse_images))
    return out


@dataclass
class Instance:
    """A fully built n-valued group plus the config's generating data."""

    config: InstanceConfig
    X: MvGroup
    backend: Optional[GroupBackend]
    auts: Optional[AutomorphismGroup]
    x_generators: List[Any]

    def element(self, text: str):
        """An X-element from a word expression (projected for coset kinds)."""
        word = parse_word(text)
        if self.backend is None:
            return nat_element(word)
        g = evaluate_word(self.backend, word)
        return self.X.project(g)

    def backend_element(self, text: str):
        """The underlying G-element of a word; nat literals pass through."""
        word = parse_word(text)
        if self.backend is None:
            return nat_element(word)
        return evaluate_word(self.backend, word)


def build_instance(config: InstanceConfig) -> Instance:
    if config.mv_kind in ("builtin_nat", "builtin_nat_mutated"):
        X = NatGroup() if config.mv_kind == "builtin_nat" else MutatedNatGroup()
        words = config.x_generators or [(("1", 1),)]
        gens = [nat_element(w) for w in words]
        return Instance(config, X, None, None, gens)

    backend = build_backend(config.group)
    if config.mv_kind == "coset":
        auts = close_automorphisms(_build_seeds(backend, config.automorphism_seeds))
        X = CosetGroup(backend, auts)
        gens = [X.project(evaluate_word(backend, w)) for w in config.x_generators]
        return Instance(config, X, backend, auts, gens)

    # double_coset
    subgroup = [evaluate_word(backend, w) for w in config.subgroup]
    X = DoubleCosetGroup(backend, subgroup)
    gens = [X.project(evaluate_word(backend, w)) for w in config.x_generators]
    return Instance(config, X, backend, None, gens)


def load_instance(path: Union[str, Path]) -> Instance:
    return build_instance(parse_config(path))
