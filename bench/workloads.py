"""Seeded workload generator: configs plus the list of CLI ops per workload.

A seed relabels the points of the generated S4 and S5 instances, which
chooses the conjugate transposition that defines the automorphism and the
3-point subgroup H, and draws center and starting words from pools of
equal-work words.  Every seed thus runs the same computation on different
data and gets the same output.  The program under test sees only the
generated config files and argv.
"""

from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

WORKLOADS = ("axioms", "bfs-poly", "bfs-exp")


# ---------------------------------------------------------------------------
# symmetric groups, in the PermutationGroup convention: (g*h)[i] = h[g[i]]


def _mul(g, h):
    return tuple(h[i] for i in g)


def _transposition(degree, p, q):
    perm = list(range(degree))
    perm[p], perm[q] = q, p
    return tuple(perm)


def _generators(degree):
    """t = (0 1) and c = (0 1 ... degree-1), as image tuples."""
    return {"t": _transposition(degree, 0, 1),
            "c": tuple((i + 1) % degree for i in range(degree))}


def _shortest_words(degree):
    """A shortest word in t, c, c^-1 for every element of Sym(degree), in BFS order."""
    gens = _generators(degree)
    c_inv = tuple(sorted(range(degree), key=lambda i: gens["c"][i]))
    steps = (("t", 1, gens["t"]), ("c", 1, gens["c"]), ("c", -1, c_inv))
    identity = tuple(range(degree))
    words = {identity: ()}
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        for name, exp, s in steps:
            h = _mul(g, s)
            if h not in words:
                words[h] = words[g] + ((name, exp),)
                queue.append(h)
    return words


def _render(word):
    """Render a shortest word ((name, +-1), ...) with runs merged: t*c^-2."""
    terms = []
    for name, exp in word:
        if terms and terms[-1][0] == name:
            terms[-1][1] += exp
        else:
            terms.append([name, exp])
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in terms) or "e"


def _conjugation(degree, tau, words):
    """Automorphism g -> tau g tau, as generator images (an involution)."""
    images = {name: _render(words[_mul(_mul(tau, g), tau)])
              for name, g in _generators(degree).items()}
    return {"name": "conj", "images": images, "inverse_images": dict(images)}


def _permutation_group(degree):
    gens = _generators(degree)
    return {"kind": "permutation", "degree": degree, "gens": ["t", "c"],
            "gen_images": [list(gens["t"]), list(gens["c"])]}


def _table_group(degree):
    elements = sorted(_shortest_words(degree))
    index = {g: i for i, g in enumerate(elements)}
    gens = _generators(degree)
    return {"kind": "finite_table",
            "table": [[index[_mul(g, h)] for h in elements] for g in elements],
            "identity": index[tuple(range(degree))],
            "gens": ["t", "c"],
            "gen_elements": [index[gens["t"]], index[gens["c"]]]}


def _relabel(g, pi):
    """pi g pi^-1 as a permutation: the point pi[i] goes to pi[g[i]]."""
    out = [0] * len(g)
    for i, image in enumerate(g):
        out[pi[i]] = pi[image]
    return tuple(out)


def coset_config(degree, pi, backend="permutation"):
    """Coset group of Sym(degree) under conjugation by the transposition (pi0 pi1)."""
    words = _shortest_words(degree)
    tau = _relabel(_transposition(degree, 0, 1), pi)
    group = _permutation_group(degree) if backend == "permutation" else _table_group(degree)
    return {"schema": 1, "group": group,
            "automorphisms": [_conjugation(degree, tau, words)],
            "mv": {"kind": "coset"}, "X_generators": ["t", "c"],
            "defaults": {"radius": 8, "budget": 1000000}}


def double_coset_config(degree, pi):
    """Double cosets of Sym(degree) by H = Sym({pi0, pi1, pi2}), so |H| = 6."""
    words = _shortest_words(degree)
    subgroup = [_render(words[_relabel(_transposition(degree, 0, 1), pi)]),
                _render(words[_relabel(_transposition(degree, 1, 2), pi)])]
    return {"schema": 1, "group": _permutation_group(degree),
            "mv": {"kind": "double_coset", "subgroup": subgroup},
            "X_generators": ["t", "c"],
            "defaults": {"radius": 8, "budget": 1000000}}


def _relabelled_word(degree, word_perm, pi):
    return _render(_shortest_words(degree)[_relabel(word_perm, pi)])


# ---------------------------------------------------------------------------
# Word pools for the shipped infinite configs.  The words of a pool have one
# length, and every op that draws from the pool prints byte-identical output
# for each of them and makes the same mul, project and apply calls (backend
# calls within 2%), so a seed changes the data and not the work.

HEIS_WORDS = ("a*b", "b*a")
Z2_WORDS = ("g1*g1*g2", "g1*g2*g1", "g1*g2*g2", "g2*g1*g1", "g2*g1*g2", "g2*g2*g1")
Z3XF2_WORDS = ("h*g1", "h*g2", "g1*h", "g2*h")
FREE2_WORDS = ("g1*g1*g2", "g2*g2*g1", "g1*g2*g2", "g2*g1*g1")


def _op(label, *argv):
    return {"label": label, "argv": list(argv)}


def _shipped(name):
    return f"configs/{name}.json"


def build(workload, seed, root):
    """Write the workload's generated configs under root; return its spec.

    The spec names its work directory, every config the workload loads
    (set-up builds each one) and its ops, each a label plus the argv given
    to ``mvgroups.cli.run``.  Paths are relative to root.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    workdir = Path("bench", "_work", f"{workload}-seed{seed}")
    (root / workdir).mkdir(parents=True, exist_ok=True)

    def write(name, config):
        path = workdir / f"{name}.json"
        (root / path).write_text(json.dumps(config, indent=1) + "\n")
        return str(path)

    coverage = []
    if workload == "axioms":
        pi4 = rng.sample(range(4), 4)
        pi5 = rng.sample(range(5), 5)
        pi5_h = rng.sample(range(5), 5)
        s5 = _generators(5)
        z = _relabelled_word(5, _mul(s5["t"], s5["c"]), pi5)
        y = _relabelled_word(5, _mul(s5["c"], s5["c"]), pi5)
        ops = [
            _op("axioms:s4_permutation", "axioms", "-c",
                write("s4_permutation", coset_config(4, pi4))),
            _op("axioms:s4_finite_table", "axioms", "-c",
                write("s4_finite_table", coset_config(4, pi4, "finite_table"))),
            _op("axioms:s5_double_coset", "axioms", "-c",
                write("s5_double_coset", double_coset_config(5, pi5_h))),
            _op("axioms:s3_conj", "axioms", "-c", _shipped("s3_conj")),
            _op("axioms:s3_doublecoset", "axioms", "-c", _shipped("s3_doublecoset")),
            _op("axioms:nat", "axioms", "-c", _shipped("nat")),
            _op("axioms:nat_mutated", "axioms", "-c", _shipped("nat_mutated")),
            _op("axioms:heis_swap", "axioms", "-c", _shipped("heis_swap"), "--sample", "10"),
            _op("axioms:z2_pm1", "axioms", "-c", _shipped("z2_pm1"), "--sample", "10"),
            _op("dynamics:s5_coset", "dynamics", "-c", write("s5_coset", coset_config(5, pi5)),
                "--z", z, "--y", y, "--steps", "8", "--bounds"),
        ]
        coverage = [
            _op("verify:s3_conj:lemma47", "verify", "-c", _shipped("s3_conj"),
                "--suite", "lemma47"),
            _op("compare:nat:r4", "compare", "-c", _shipped("nat"), "--gens2", "1,2",
                "--radius", "4"),
        ]
    elif workload == "bfs-poly":
        ops = [
            _op("growth:z2_swap", "growth", "-c", _shipped("z2_swap"), "--radius", "80"),
            _op("growth:heis_swap", "growth", "-c", _shipped("heis_swap"), "--radius", "9",
                "--center", rng.choice(HEIS_WORDS)),
            _op("dynamics:heis_swap", "dynamics", "-c", _shipped("heis_swap"), "--z", "a",
                "--y", rng.choice(HEIS_WORDS), "--steps", "9", "--bounds"),
            _op("dynamics:z2_swap", "dynamics", "-c", _shipped("z2_swap"), "--z", "g1",
                "--y", rng.choice(Z2_WORDS), "--steps", "30", "--bounds"),
            _op("powers:z2_pm1", "powers", "-c", _shipped("z2_pm1"),
                "--x", rng.choice(Z2_WORDS), "--radius", "30"),
            _op("compare:nat", "compare", "-c", _shipped("nat"), "--gens2", "1,2",
                "--center2", "5", "--radius", "10"),
            _op("verify:nat:example32", "verify", "-c", _shipped("nat"), "--suite", "example32"),
            _op("verify:z2_swap:thm43", "verify", "-c", _shipped("z2_swap"), "--suite", "thm43"),
            _op("verify:heis_swap:lemma47", "verify", "-c", _shipped("heis_swap"),
                "--suite", "lemma47"),
            _op("verify:heis_swap:proof34", "verify", "-c", _shipped("heis_swap"),
                "--suite", "proof34"),
        ]
        coverage = [_op("axioms:s3_doublecoset", "axioms", "-c", _shipped("s3_doublecoset"))]
    else:
        ops = [
            _op("growth:free2_swap", "growth", "-c", _shipped("free2_swap"), "--radius", "12"),
            _op("growth:z3xF2_example46", "growth", "-c", _shipped("z3xF2_example46"),
                "--radius", "9", "--center", rng.choice(Z3XF2_WORDS)),
            _op("dynamics:free2_swap", "dynamics", "-c", _shipped("free2_swap"), "--z", "g1",
                "--y", rng.choice(FREE2_WORDS), "--steps", "11", "--bounds"),
            _op("verify:z3xF2_example46:example46", "verify", "-c",
                _shipped("z3xF2_example46"), "--suite", "example46"),
            _op("verify:free2_swap:thm43", "verify", "-c", _shipped("free2_swap"),
                "--suite", "thm43"),
        ]
        coverage = [
            _op("verify:z3xF2_example46:lemma47", "verify", "-c",
                _shipped("z3xF2_example46"), "--suite", "lemma47"),
            _op("compare:free2_swap", "compare", "-c", _shipped("free2_swap"),
                "--gens2", "g2,g1", "--radius", "3"),
            _op("axioms:s3_doublecoset", "axioms", "-c", _shipped("s3_doublecoset")),
        ]
    # small ops so that every traced boundary is measured on every workload
    coverage.append(_op("verify:nat:thm48", "verify", "-c", _shipped("nat"), "--suite", "thm48"))
    ops += coverage
    configs = list(dict.fromkeys(op["argv"][2] for op in ops))
    return {"workload": workload, "seed": seed, "workdir": str(workdir),
            "configs": configs, "ops": ops}
