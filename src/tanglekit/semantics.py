"""Evaluation of mu-calculus and tangle formulas on finite wK4 models,
bisimulation, and the finality machinery (final parts, depths, the
depth-indexed modality, and the pruning oracle).

World sets are bitmasks.  The finality helpers that take a `cache` dict
keep their own results in it (the floors' truths, the world depths), so it
must be private to one model.

Both languages go through one pipeline; tangle formulas are read as the mu
sublanguage they are, with NOT and TANGLE as two more step kinds.
`compile_roots` makes the program of one or more roots by one iterative
walk, which gives each distinct step its place in a per-run value list `v`
when it first meets it and appends the step, lowered to a tuple
`(op, i, a, b)` over places, when it leaves it.  A closed node, and so
every tangle node, is one step wherever it occurs; an open one is one step
per choice of binders for its free variables.  A fixed-point step carries
its lowered body, and each step sits in the body of the innermost binder
whose variable is free in it, so work that does not depend on a variable
runs outside that variable's loop.

A program runs by one loop, `_run_steps`, over its steps in order, one
branch per step kind.  A fixed point iterates `v[i] = x`, its body, and a
compare of the body's result with `x`; the loop keeps the binders it is
iterating on a list, so nesting is bounded by memory, not by Python's
recursion limit.  Atom names, free variable names and places are operands
of the steps, never source text: no program is compiled.

`run_program` runs a program over a world-set algebra: the model gives
the valuation and `full` (the set of all its worlds) gives top.  A run's
memos are locals of `run_program`, made when it starts, so nothing of a
run is stored on the model or the batch, and runs nested in one another or
in several threads on one model do not meet.  A diamond step reads the
memo `D` by its argument mask and on a miss calls `dia(model, s, key, D)`
with the argument's place as `key`; the algebra may store the image in
`D` (`_dia_mask`, `_wide_dia`) or not (the translator's root blocks, whose
modalities first read what holds above the cluster); box steps read `B`
and call `box` alike.  Tangle steps read the run's tangle state `S`: rows
of the cluster relations, which the model or batch keeps (`tangle_rows()`),
and a diamond over them, so that one formula, `_tangle_compute`, serves
models and batches.  A free variable missing from `env` raises
`UnboundVariableError`.  `eval_mu_exact` is the independent oracle: it
walks the formula with a stack of generators, not by recursion, and
enumerates exact fixed points, with `dia_image`/`box_image` called
directly, so it shares nothing with the fast path.  The tangle step's own
oracle is the unfolded fixed point (`fm.to_mu`), run by the mu steps and
`eval_mu_exact`.

A world's value depends only on the submodel it generates, so enumerated
models are evaluated together, as the disjoint union `models.ModelBatch`
packs them into: one batch per run of consecutive frames of one world
count.  `eval_mu` or `eval_tangle` on such a model, with no `env`, reads
the root in its batch's `results` itself: the model's value is
`value >> model._shift & full_mask`.  On a miss `_batch_value` has the
batch run the root's program once, with `_wide_dia`/`_wide_box`, and keep
the packed value.  The packed algebra works on every copy at once, over
masks of the copies' first bits: with `R[u][v]` the copies whose frame has
u -> v, `dia(S) = OR_u (OR_v (S >> v) & R[u][v]) << u` (`_spread`), and box
is its dual.  A tangle step spreads by the same sum over the batch's
cluster rows.  Every other call (random or file models, the models
`restrict` and `close` make, calls with `env`, `eval_roots`, the
translator's root blocks) runs on the one model.

Roots that share work run as one program.  `compile_roots` lists the union
of their steps once, and `run_program` returns the whole run's value list,
in which the program's `roots` give each root's place, so a step shared by
several roots runs once per run.  A single root keeps its program on the
node (`_program`); a program of several roots is kept by its owner: the
translator's for its members' floors, and a `SigmaClosure`'s for all its
floors, set here on first use.  `eval_roots` runs several roots on one
model; a run keeps no values once it returns.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import formulas as fm
from .formulas import (AND, BOT, BOX, DIA, MU, NEGPROP, NOT, NU, OR, PROP,
                       TANGLE, TOP, MuFormula, TangleFormula)
from .models import (ABSENT, ONE, SAT, CanonicalCluster, KripkeModel,
                     ModelBatch, _cluster_heights, iter_bits)

EMBED_STRICT = "strict"
EMBED_BISIMILAR = "bisimilar"
EMBED_NO = "no"


class UnboundVariableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mu-calculus evaluation


def dia_image(succ: Sequence[int], s: int) -> int:
    """Worlds with a successor in s."""
    out = 0
    bit = 1
    for row in succ:
        if row & s:
            out |= bit
        bit <<= 1
    return out


def box_image(succ: Sequence[int], s: int) -> int:
    """Worlds all of whose successors are in s."""
    out = 0
    bit = 1
    outside = ~s
    for row in succ:
        if not row & outside:
            out |= bit
        bit <<= 1
    return out


def _dia_mask(model: KripkeModel, s: int, key, memo: dict) -> int:
    """The diamond image of s, stored in the run's memo."""
    got = memo[s] = dia_image(model.succ, s)
    return got


def _box_mask(model: KripkeModel, s: int, key, memo: dict) -> int:
    """The box image of s, stored in the run's memo."""
    got = memo[s] = box_image(model.succ, s)
    return got


def _step_key(g: MuFormula, scope: dict):
    """A closed node is its own key; an open one is keyed by itself and the
    places of its free variables' binders (None for a variable left free),
    so it is one step wherever those variables are bound by the same
    binders."""
    fv = fm.free_vars(g)
    if not fv:
        return g
    return (g, *[scope[v][0] if v in scope else None for v in sorted(fv)])


# The step kinds of a lowered program, numbered in the order the step loop
# tests them: the kinds most frequent in a chi first, then the fixed points,
# which run once per round of the binders around them, then the leaves,
# which run once per run.
(_AND, _OR, _TANGLE, _DIA, _NOT, _BOX, _MU, _NU, _PROP, _NEGPROP, _TOP, _BOT,
 _VAR) = range(13)
_OPS = {AND: _AND, OR: _OR, TANGLE: _TANGLE, DIA: _DIA, NOT: _NOT, BOX: _BOX,
        MU: _MU, NU: _NU, PROP: _PROP, NEGPROP: _NEGPROP, TOP: _TOP, BOT: _BOT,
        fm.VAR: _VAR}


def _run_steps(code: tuple, v: list, model, val, full: int, env, dia, box,
               D: dict, B: dict, T, S) -> None:
    """Run lowered steps in order; a fixed point iterates its body from
    bottom (MU) or top (NU) until the body's result equals the value it
    was given.  Nothing recurses: each binder being iterated keeps the
    steps after it and its own step on `loops`."""
    loops: list = []
    steps = iter(code)
    while True:
        for op, i, a, b in steps:
            if op == _AND:
                v[i] = v[a] & v[b]
            elif op == _OR:
                v[i] = v[a] | v[b]
            elif op == _TANGLE:
                k = b(v) if b else (v[a[0]],)
                x = T.get(k)
                if x is None:
                    x = T[k] = _tangle_compute(S, full, k)
                v[i] = x
            elif op == _DIA:
                x = D.get(v[a])
                if x is None:
                    x = dia(model, v[a], a, D)
                v[i] = x
            elif op == _NOT:
                v[i] = full & ~v[a]
            elif op == _BOX:
                x = B.get(v[a])
                if x is None:
                    x = box(model, v[a], a, B)
                v[i] = x
            elif op <= _NU:  # MU or NU: `a` is the body, `b` its result's place
                v[i] = 0 if op == _MU else full
                loops.append((steps, i, a, b))
                steps = iter(a)
                break
            elif op == _PROP:
                v[i] = val.get(a, 0)
            elif op == _NEGPROP:
                v[i] = full & ~val.get(a, 0)
            elif op == _TOP:
                v[i] = full
            elif op == _BOT:
                v[i] = 0
            else:  # VAR, free in the root
                v[i] = env[a] if a in env else _unbound(a)
        else:  # a body, or the top level, ran to its end
            if not loops:
                return
            outer, i, a, b = loops[-1]
            if v[b] == v[i]:
                loops.pop()
                steps = outer
            else:
                v[i] = v[b]
                steps = iter(a)


def _unbound(name: str):
    raise UnboundVariableError(f"unbound variable {name!r}")


class Program(NamedTuple):
    """The program of one or more roots (see `compile_roots`)."""
    code: tuple  # the top-level steps, lowered
    size: int  # the length of the value list
    roots: tuple  # each root's place in the value list
    tangles: bool  # whether any step is a tangle


def compile_roots(roots: Sequence[MuFormula | TangleFormula]) -> Program:
    """The program of the roots, mu or tangle formulas, by one iterative
    walk: each distinct step gets its place in the value list when the walk
    first meets it, and its lowered tuple `(op, i, a, b)`, which writes
    `v[i]`, is appended to its home list when the walk leaves it, so each
    list is in post-order.  `a` and `b` are the operands' places for AND
    and OR; `a` is the argument's place for NOT, DIA and BOX, and the
    algebra is handed that place as the modal step's key.  For TANGLE `a`
    holds the members' places and `b` a getter of all of them from `v`, or
    None for one member; for PROP, NEGPROP and VAR `a` is the name.  A
    fixed point's `a` is its lowered body and `b` the place of the body's
    result.  A step's home is the body of the innermost binder whose
    variable is free in it, so work that does not depend on a variable
    runs once, outside that variable's loop; steps of variables left free
    (read from `env`) sit at the top.  A single root's program is made once
    and kept on it."""
    if len(roots) == 1 and roots[0]._program is not None:
        return roots[0]._program
    index: dict = {}  # step key -> place
    top: list = []
    tangles = False

    def place(g, scope: dict) -> int:
        if g.kind == fm.VAR and g.name in scope:
            return scope[g.name][0]  # a bound variable reads its binder's place
        return index[_step_key(g, scope)]

    # Entries are (node, scope) to visit, or (None, (node, scope, home, i))
    # to lower the node at place i and append it to its home list.  A scope
    # maps each bound variable to (binder place, nesting depth, the binder's
    # body); a binder's entries carry the scope of its body.
    stack: list = [(f, {}) for f in reversed(roots)]
    while stack:
        g, scope = stack.pop()
        if g is None:
            g, scope, home, i = scope
            kind = g.kind
            if kind in (AND, OR):
                step = (_OPS[kind], i, place(g.left, scope), place(g.right, scope))
            elif kind in (DIA, BOX, NOT):
                step = (_OPS[kind], i, place(g.arg, scope), None)
            elif kind == TANGLE:
                tangles = True
                places = tuple(index[m] for m in g.members)  # members are closed
                step = (_TANGLE, i, places,
                        operator.itemgetter(*places) if len(places) > 1 else None)
            elif kind in (MU, NU):
                step = (_OPS[kind], i, tuple(scope[g.var][2]), place(g.body, scope))
            elif kind in (TOP, BOT):
                step = (_OPS[kind], i, None, None)
            else:
                step = (_OPS[kind], i, g.name, None)
            home.append(step)
            continue
        if g.kind == fm.VAR and g.name in scope:
            continue
        key = _step_key(g, scope)
        if key in index:
            continue
        i = index[key] = len(index)
        home, depth = top, 0
        for var in fm.free_vars(g):
            if var in scope and scope[var][1] > depth:
                _, depth, home = scope[var]
        if g.kind in (MU, NU):
            # inside g only the binders of g's free variables are read, so
            # the body's scope keeps just those, and deep nests stay linear
            scope = {var: scope[var] for var in fm.free_vars(g) if var in scope}
            depth = 1 + max((d for _, d, _ in scope.values()), default=0)
            scope[g.var] = (i, depth, [])
        stack.append((None, (g, scope, home, i)))
        stack.extend((c, scope) for c in g.children())
    program = Program(tuple(top), len(index), tuple(place(f, {}) for f in roots), tangles)
    if len(roots) == 1:
        roots[0]._program = program
    return program


def run_program(model: KripkeModel | ModelBatch, program: Program, dia, box,
                env: Optional[Mapping[str, int]] = None) -> list:
    """The values of one run of `program` under the algebra `dia`/`box` on
    `model`, as one list, in which `program.roots` gives each root's place;
    a step shared by several roots runs once.  The run's memos are its own
    locals.  A diamond step reads the memo `D` by its argument mask and on
    a miss calls `dia(model, s, key, D)`, with `key` the argument's place;
    box steps read `B` and call `box` alike.
    Only the algebra fills the memos: with one that stores nothing, every
    modal step calls it.  A program with a tangle step also gets the
    tangle memo `T`, from member masks to the result, and the tangle state
    `S` (see `_tangle_compute`) over the target's `tangle_rows()`."""
    v = [None] * program.size
    val, full = model.val, model.full_mask
    env = env or {}
    D, B = {}, {}
    T = S = None
    if program.tangles:
        T = {}
        S = (_spread if type(model) is ModelBatch else dia_image, model.tangle_rows(), {})
    _run_steps(program.code, v, model, val, full, env, dia, box, D, B, T, S)
    return v


def _spread(rows: Sequence[Sequence[tuple[int, int]]], s: int) -> int:
    """`OR_u (OR_v (s >> v) & mask) << u` over the pairs `(v, mask)` of
    `rows[u]`: u's bit of a copy is set iff some v whose mask marks the
    copy has its bit set in s."""
    shifted = [s >> v for v in range(len(rows))]
    out = 0
    for u, row in enumerate(rows):
        if row:
            got = 0
            for v, mask in row:
                got |= shifted[v] & mask
            out |= got << u
    return out


def _wide_dia(batch: ModelBatch, s: int, key, memo: dict) -> int:
    """The diamond image of s in every copy of the batch at once, stored
    in the run's memo."""
    got = memo[s] = _spread(batch.dia_rows, s)
    return got


def _wide_box(batch: ModelBatch, s: int, key, memo: dict) -> int:
    """The box image of s in every copy of the batch at once (the dual of
    the diamond), stored in the run's memo."""
    full = batch.full_mask
    got = memo[s] = full & ~_spread(batch.dia_rows, full & ~s)
    return got


def _batch_value(batch: ModelBatch, f: MuFormula | TangleFormula) -> int:
    """f's packed value on the batch, stored in `batch.results`: the batch
    runs f once."""
    program = compile_roots((f,))
    v = run_program(batch, program, _wide_dia, _wide_box)
    got = batch.results[f] = v[program.roots[0]]
    return got


def eval_roots(model: KripkeModel,
               roots: Program | Sequence[MuFormula | TangleFormula],
               env: Optional[Mapping[str, int]] = None) -> list[int]:
    """World sets of several roots, mu or tangle formulas, on the one model,
    by one run of their program (given, or made from the roots here): a
    step shared by roots runs once."""
    program = roots if type(roots) is Program else compile_roots(roots)
    v = run_program(model, program, _dia_mask, _box_mask, env)
    return [v[i] for i in program.roots]


def eval_mu(model: KripkeModel, f: MuFormula | TangleFormula,
            env: Optional[Mapping[str, int]] = None) -> int:
    """World set of an NNF formula, or of a tangle formula; fixed points
    by monotone iteration.  On an enumerated model, with no `env`, it is
    the model's copy in the value on its batch."""
    batch = model._batch
    if batch is not None and env is None:
        got = batch.results.get(f)
        if got is None:
            got = _batch_value(batch, f)
        return got >> model._shift & model.full_mask
    return eval_roots(model, (f,), env)[0]


def eval_mu_exact(model: KripkeModel, f: MuFormula,
                  env: Optional[Mapping[str, int]] = None) -> int:
    """Fixed points as the intersection (union) of all exact fixed points,
    enumerated over the full powerset.  Only sensible on tiny models.  It
    computes every modal image afresh and reads no modal memo; within one
    call, the value of a subformula is memoised on the values of its free
    variables, on which alone it depends.  Nothing recurses: a subformula
    being evaluated is a generator that yields each `(subformula, env)` it
    needs and is sent its value, and a loop keeps the generators on a stack."""
    full = model.full_mask
    memo: dict = {}

    def go(g: MuFormula, env: dict):
        kind = g.kind
        if kind in (fm.MU, fm.NU):
            # the meet (join) of the exact fixed points
            out = full if kind == fm.MU else 0
            for x in range(full + 1):
                if (yield g.body, {**env, g.var: x}) == x:
                    out = out & x if kind == fm.MU else out | x
            return out
        if kind == fm.AND:
            return (yield g.left, env) & (yield g.right, env)
        if kind == fm.OR:
            return (yield g.left, env) | (yield g.right, env)
        if kind == fm.DIA:
            return dia_image(model.succ, (yield g.arg, env))
        if kind == fm.BOX:
            return box_image(model.succ, (yield g.arg, env))
        if kind == fm.TOP:
            return full
        if kind == fm.BOT:
            return 0
        if kind == fm.PROP:
            return model.val_mask(g.name)
        if kind == fm.NEGPROP:
            return full & ~model.val_mask(g.name)
        if g.name in env:
            return env[g.name]
        raise UnboundVariableError(f"unbound variable {g.name!r}")

    # (generator, memo key) per subformula being evaluated; a memo hit or a
    # finished generator sends its value to the generator below it
    stack: list = []
    g, e = f, env or {}
    while True:
        key = (g, *map(e.get, fm.free_vars(g)))
        out = memo.get(key)
        if out is None:
            stack.append((go(g, e), key))
        while True:
            gen, key = stack[-1]
            try:
                g, e = gen.send(out)
                break
            except StopIteration as done:
                out = memo[key] = done.value
                stack.pop()
                if not stack:
                    return out


# ---------------------------------------------------------------------------
# tangle evaluation


def _tangle_compute(state: tuple, full: int, key: tuple) -> int:
    """Worlds weakly below a maximal cluster in which the multiset of the
    member masks `key` is recurrently satisfied: each cluster point either
    sees witnesses for every member inside the cluster, or satisfies one
    member itself and sees witnesses for all the others.  It runs on a
    model or in every copy of a batch, whose set of all worlds is `full`,
    under the tangle state `(spread, (same, inside, down), witnessed)`:
    `spread` is the diamond over the rows of the cluster relations
    (`dia_image` on a model, `_spread` on a batch), and `witnessed` maps a
    member mask to the points with a witness for it inside their cluster.
    `none` holds the points that see a witness inside their cluster for
    every member so far, `one` those that lack one for exactly one member
    (each occurrence counts) and satisfy it.  The result is the down-set of
    the clusters all of whose points are in either.  A tangle step calls
    this on a miss in the run's memo `T` and stores the result there."""
    spread, (same, inside, down), witnessed = state
    none, one = full, 0
    for m in key:
        seen = witnessed.get(m)
        if seen is None:
            seen = witnessed[m] = spread(inside, m)
        one = one & seen | none & m & ~seen
        none &= seen
    return spread(down, full & ~spread(same, full & ~(none | one)))


def eval_tangle_direct(model: KripkeModel, members: Sequence[MuFormula],
                       env: Optional[Mapping[str, int]] = None) -> int:
    """Tangle of a mu-formula multiset, evaluated from the cluster reading
    rather than by unfolding the fixed point; each member runs on the one
    model by the program kept on it."""
    if not members:
        raise ValueError("tangle of an empty multiset")
    masks = tuple(eval_roots(model, (m,), env)[0] for m in members)
    return _tangle_compute((dia_image, model.tangle_rows(), {}), model.full_mask, masks)


def eval_tangle(model: KripkeModel, f: TangleFormula) -> int:
    """World set of a tangle-language formula, by the program of f; on an
    enumerated model, the model's copy in the value on its batch."""
    return eval_mu(model, f)


# ---------------------------------------------------------------------------
# bisimulation


def greatest_bisim(m: KripkeModel, n: KripkeModel,
                   props: Iterable[str]) -> set[tuple[int, int]]:
    """Greatest relation with atom agreement plus forth and back."""
    props = list(props)
    rel = set()
    for u in range(m.n):
        for v in range(n.n):
            if all((m.val_mask(p) >> u & 1) == (n.val_mask(p) >> v & 1)
                   for p in props):
                rel.add((u, v))
    changed = True
    while changed:
        changed = False
        for (u, v) in list(rel):
            ok = (all(any((u2, v2) in rel for v2 in iter_bits(n.succ[v]))
                      for u2 in iter_bits(m.succ[u]))
                  and all(any((u2, v2) in rel for u2 in iter_bits(m.succ[u]))
                          for v2 in iter_bits(n.succ[v])))
            if not ok:
                rel.discard((u, v))
                changed = True
    return rel


def bisimilar(m: KripkeModel, n: KripkeModel,
              props: Iterable[str]) -> Optional[frozenset[tuple[int, int]]]:
    """Total and surjective bisimulation between the models, if one exists."""
    rel = greatest_bisim(m, n, props)
    if {u for u, _ in rel} == set(range(m.n)) and {v for _, v in rel} == set(range(n.n)):
        return frozenset(rel)
    return None


def restricted_bisimilar(m: KripkeModel, a_mask: int, n: KripkeModel, b_mask: int,
                         props: Iterable[str]) -> Optional[frozenset[tuple[int, int]]]:
    """Bisimilarity of the submodels induced by the two world sets; the
    returned relation uses the submodels' reindexed worlds."""
    return bisimilar(m.restrict(a_mask), n.restrict(b_mask), props)


_MULT_RANK = {ABSENT: 0, ONE: 1, SAT: 2}


def cluster_embeds(c: CanonicalCluster, d: CanonicalCluster) -> str:
    """EMBED_STRICT if c is bisimilar to a proper subcluster of d,
    EMBED_BISIMILAR if the clusters are bisimilar, EMBED_NO otherwise.
    On canonical clusters this is the pointwise multiplicity order."""
    keys = {val for val, _ in c.entries} | {val for val, _ in d.entries}
    le = all(_MULT_RANK[c.multiplicity(k)] <= _MULT_RANK[d.multiplicity(k)]
             for k in keys)
    if not le:
        return EMBED_NO
    return EMBED_BISIMILAR if c.entries == d.entries else EMBED_STRICT


def stack_collapses(upper: CanonicalCluster, lower: CanonicalCluster) -> bool:
    """Is `lower` stacked underneath `upper` bisimilar to `upper` alone?  A
    lower world matches an upper world of its valuation only if that one
    sees a twin, so every valuation of `lower` must be SAT in `upper`."""
    return all(upper.multiplicity(val) == SAT for val, _ in lower.entries)


# ---------------------------------------------------------------------------
# finality


def sigma_truth_masks(model: KripkeModel, sigma: fm.SigmaClosure,
                      cache: Optional[dict] = None) -> dict[MuFormula, int]:
    """Truth mask of every closure member, read through its closed form:
    one run of the program of all the floors, which sigma keeps.  The
    result is kept in `cache`."""
    cache = {} if cache is None else cache
    key = (sigma_truth_masks, sigma)
    if key not in cache:
        if sigma._program is None:
            sigma._program = compile_roots(list(sigma.floors.values()))
        cache[key] = dict(zip(sigma.floors, eval_roots(model, sigma._program)))
    return cache[key]


def sigma_final_part(model: KripkeModel, sigma: fm.SigmaClosure,
                     cache: Optional[dict] = None) -> int:
    """Worlds satisfying some member whose every satisfying successor loops
    back; the largest final subset of the model.  On wK4 a successor of w
    that sees w is w or a mate in w's cluster, so the test reads the
    cluster mask instead of the transposed relation."""
    truths = sigma_truth_masks(model, sigma, cache)
    out = 0
    for mask in truths.values():
        for w in iter_bits(mask):
            if not model.succ[w] & mask & ~model.cluster_mask(w):
                out |= 1 << w
    return out


def is_semifinal(model: KripkeModel, w: int, sigma: fm.SigmaClosure,
                 cache: Optional[dict] = None) -> bool:
    """Everything outside the world's cluster is final."""
    final = sigma_final_part(model, sigma, cache)
    rest = model.full_mask & ~model.cluster_mask(w)
    return rest & ~final == 0


def sigma_world_depths(model: KripkeModel, sigma: fm.SigmaClosure,
                       cache: Optional[dict] = None) -> tuple[list[int], int]:
    """Per-world depth (longest strict chain of final-bearing clusters
    strictly above) together with the final-part mask."""
    final = sigma_final_part(model, sigma, cache)
    heights = _cluster_heights(model, final)
    return [heights[model.cluster_id(w)] for w in range(model.n)], final


def sigma_depth(model: KripkeModel, sigma: fm.SigmaClosure,
                worlds: Iterable[int], cache: Optional[dict] = None) -> int:
    ws = list(worlds)
    if not ws:
        raise ValueError("depth of an empty world set")
    depths, _ = sigma_world_depths(model, sigma, cache)
    return max(depths[w] for w in ws)


def eval_depth_modality(model: KripkeModel, sigma: fm.SigmaClosure, n: int,
                        phi: MuFormula, cache: Optional[dict] = None) -> int:
    """Worlds with a final world of depth exactly n weakly above them
    satisfying phi.  phi must be a closure member (or T).  The world depths
    and the members' truths are computed once per sigma and kept in
    `cache`."""
    if phi.kind != fm.TOP:
        phi = sigma.member_of(phi)
    cache = {} if cache is None else cache
    key = (sigma_world_depths, sigma)
    if key not in cache:
        cache[key] = sigma_world_depths(model, sigma, cache)
    depths, final = cache[key]
    sat = (model.full_mask if phi.kind == fm.TOP
           else sigma_truth_masks(model, sigma, cache)[phi])
    targets = 0
    for v in iter_bits(final & sat):
        if depths[v] == n:
            targets |= 1 << v
    return targets | dia_image(model.succ, targets)


PruneViolation = tuple[int, str, MuFormula]


def prune_check(model: KripkeModel, sigma: fm.SigmaClosure, *,
                seed: Optional[int] = None,
                samples: int = 3) -> tuple[bool, Optional[PruneViolation]]:
    """Check that restricting the model to anything between itself and its
    final part preserves the truth of every closure member at surviving
    worlds.  Returns (True, None) or (False, (kept_mask, world_label, member)).
    """
    cache: dict = {}
    final = sigma_final_part(model, sigma, cache)
    truths = sigma_truth_masks(model, sigma, cache)
    candidates = [final, model.full_mask]
    rng = random.Random(seed)
    optional = [w for w in range(model.n) if not final >> w & 1]
    for _ in range(samples):
        mask = final
        for w in optional:
            if rng.random() < 0.5:
                mask |= 1 << w
        candidates.append(mask)
    for mask in candidates:
        sub_truths = sigma_truth_masks(model.restrict(mask), sigma)
        keep = list(iter_bits(mask))
        for member, full_mask_truth in truths.items():
            sub_truth = sub_truths[member]
            for i, w in enumerate(keep):
                if (full_mask_truth >> w & 1) != (sub_truth >> i & 1):
                    return False, (mask, model.labels[w], member)
    return True, None
