import random

import pytest

from tanglekit import KripkeModel
from tanglekit import formulas as fm


@pytest.fixture
def cycle_model():
    """Two irreflexive worlds seeing each other; the running example."""
    return KripkeModel(
        ["0", "1"], [(0, 1), (1, 0)],
        {"e": [0], "o": [1], "p": [1], "i": [0, 1]})


def random_formula(rng: random.Random, props, depth: int,
                   bound=(), allow_binders=True, names=None) -> fm.MuFormula:
    """Seeded random closed NNF formula over the given atoms.  Binders are
    named v<depth>, or drawn from `names`, so that they can shadow."""
    if depth == 0:
        choices = ["top", "bot", "prop", "negprop"] + (["var"] if bound else [])
        kind = rng.choice(choices)
        if kind == "top":
            return fm.top()
        if kind == "bot":
            return fm.bot()
        if kind == "var":
            return fm.var(rng.choice(list(bound)))
        name = rng.choice(props)
        return fm.prop(name) if kind == "prop" else fm.neg_prop(name)
    kinds = ["and", "or", "dia", "box", "leaf"]
    if allow_binders:
        kinds += ["mu", "nu"]
    kind = rng.choice(kinds)
    if kind == "leaf":
        return random_formula(rng, props, 0, bound)
    if kind in ("and", "or"):
        left = random_formula(rng, props, depth - 1, bound, allow_binders, names)
        right = random_formula(rng, props, depth - 1, bound, allow_binders, names)
        return fm.conj(left, right) if kind == "and" else fm.disj(left, right)
    if kind in ("dia", "box"):
        arg = random_formula(rng, props, depth - 1, bound, allow_binders, names)
        return fm.diamond(arg) if kind == "dia" else fm.box(arg)
    v = rng.choice(names) if names else f"v{len(bound)}"
    body = random_formula(rng, props, depth - 1, bound + (v,), allow_binders, names)
    return fm.mu(v, body) if kind == "mu" else fm.nu(v, body)


def random_tangle_dag(rng: random.Random, steps: int) -> list:
    """Tangle formulas over p and q, each built from earlier ones, so later
    nodes share subterms; tangles have 1-4 members, possibly repeated."""
    pool = [fm.t_prop("p"), fm.t_prop("q"), fm.t_top()]
    for _ in range(steps):
        kind = rng.choice(["not", "and", "or", "dia", "box", "tangle", "tangle"])
        if kind == "tangle":
            pool.append(fm.t_tangle(rng.choices(pool, k=rng.randint(1, 4))))
        elif kind in ("and", "or"):
            build = fm.t_and if kind == "and" else fm.t_or
            pool.append(build(rng.choice(pool), rng.choice(pool)))
        else:
            build = {"not": fm.t_not, "dia": fm.t_dia, "box": fm.t_box}[kind]
            pool.append(build(rng.choice(pool)))
    return pool
