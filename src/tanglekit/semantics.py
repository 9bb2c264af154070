"""Evaluation of mu-calculus and tangle formulas on finite wK4 models,
bisimulation, and the finality machinery (final parts, depths, the
depth-indexed modality, and the pruning oracle).

World sets are bitmasks.  The finality helpers that take a `cache` dict
keep their own results in it (the floors' truths, the world depths), so it
must be private to one model.

Both languages go through one pipeline; tangle formulas are read as the mu
sublanguage they are, with NOT and TANGLE as two more step kinds.
`mu_program` lists one or more roots as one flat post-order program of
`(key, kind, operand)` steps by one iterative walk, each distinct step
once.  A closed node, and so every tangle node, is keyed by itself; an open
one by an int, numbered inside that walk, that is the same wherever its
free variables are bound by the same binders.  A fixed-point step carries
its body's steps, and each step sits in the body of the innermost binder
whose variable is free in it, so work that does not depend on a variable
runs outside that variable's loop.  `compile_roots` lowers the listed steps
to tuples `(op, i, a, b)` over one per-run value list `v`, with integer
places for operands.

A program runs by one loop, `_run_steps`, over its lowered steps in order,
one branch per step kind.  A fixed point iterates `v[i] = x`, its body,
and a compare of the body's result with `x`, and running recurses once per
nested binder only.  Atom names, free variable names and algebra keys are
operands of the lowered steps, never source text: no program is compiled.

`run_program` runs a program over a world-set algebra: the model gives
the valuation and `full` (the set of all its worlds) gives top.  A run's
memos are locals of `run_program`, made when it starts, so nothing of a
run is stored on the model or the batch, and runs nested in one another or
in several threads on one model do not meet.  A diamond step reads the
memo `D` by its argument mask and on a miss calls `dia(model, s, key, D)`
with the argument's key, which may store the image in `D` (`_dia_mask`,
`_wide_dia`) or not (the translator's root blocks, whose modalities first
read what holds above the cluster); box steps read `B` and call `box`
alike.  Tangle steps read the run's tangle state `S`: rows of the cluster
relations, which the model or batch keeps (`tangle_rows()`), and a diamond
over them, so that one formula, `_tangle_compute`, serves models and
batches.  A free variable missing from `env` raises
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
in which the program's `index` gives each key's place, so a step shared by
several roots runs once per run.  A single root keeps
its program on the node (`_program`); a program of several roots is kept
by its owner: the translator's for its members' floors, and a
`SigmaClosure`'s for all its floors, set here on first use.  `eval_roots`
runs several roots on one model; a run keeps no values once it returns.
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


def _step_key(g: MuFormula, scope: dict, open_keys: dict):
    """A closed node is its own key.  An open one gets an int from
    `open_keys`, the same wherever its free variables are bound by the same
    binders; a bound variable reads its binder's slot, so its key is the
    binder's."""
    fv = fm.free_vars(g)
    if not fv:
        return g
    if g.kind == fm.VAR and g.name in scope:
        return scope[g.name][0]
    binding = (g, tuple(sorted((v, scope[v][0] if v in scope else None) for v in fv)))
    return open_keys.setdefault(binding, len(open_keys))


def mu_program(roots: Sequence[MuFormula | TangleFormula]) -> tuple[list, list]:
    """The steps that evaluate the roots, mu or tangle formulas, and each
    root's key.  One iterative walk lists the union of the roots' steps in
    one post-order, each distinct step once, and numbers the open keys as it
    meets them.  A step is `(key, kind, operand)`; the operand is the name,
    the argument key, the `(left, right)` keys, the member keys of a tangle,
    or for a fixed point its body's steps and the key of the body's result.
    Each step sits in the body of the innermost binder whose variable is
    free in it, so work that does not depend on a variable runs once,
    outside that variable's loop; steps of variables left free (read from
    `env`) sit at the top."""
    top: list = []
    seen = set()
    open_keys: dict = {}
    # Entries are (node, scope) to visit, or (None, (home, step)) to append
    # the finished step to its home list.  A scope maps each bound variable
    # to (binder key, nesting depth, the binder's body steps).
    stack: list = [(f, {}) for f in reversed(roots)]
    while stack:
        g, scope = stack.pop()
        if g is None:
            home, step = scope
            home.append(step)
            continue
        kind = g.kind
        if kind == fm.VAR and g.name in scope:
            continue
        key = _step_key(g, scope, open_keys)
        if key in seen:
            continue
        seen.add(key)
        home, depth = top, 0
        for v in fm.free_vars(g):
            if v in scope and scope[v][1] > depth:
                _, depth, home = scope[v]
        if kind in (fm.MU, fm.NU):
            body: list = []
            inner = dict(scope)
            inner[g.var] = (key, 1 + max((d for _, d, _ in scope.values()), default=0), body)
            stack.append((None, (home, (key, kind, (body, _step_key(g.body, inner, open_keys))))))
            stack.append((g.body, inner))
            continue
        if kind in (fm.AND, fm.OR):
            operand = (_step_key(g.left, scope, open_keys), _step_key(g.right, scope, open_keys))
        elif kind in (fm.DIA, fm.BOX, fm.NOT):
            operand = _step_key(g.arg, scope, open_keys)
        elif kind == fm.TANGLE:
            operand = g.members  # a tangle node is closed: its own key
        else:
            operand = g.name
        stack.append((None, (home, (key, kind, operand))))
        stack.extend((c, scope) for c in g.children())
    return top, [_step_key(f, {}, open_keys) for f in roots]


# The step kinds of a lowered program, numbered in the order the step loop
# tests them: the kinds most frequent in a chi first, then the fixed points,
# which run once per round of the binders around them, then the leaves,
# which run once per run.
(_AND, _OR, _TANGLE, _DIA, _NOT, _BOX, _MU, _NU, _PROP, _NEGPROP, _TOP, _BOT,
 _VAR) = range(13)
_OPS = {AND: _AND, OR: _OR, TANGLE: _TANGLE, DIA: _DIA, NOT: _NOT, BOX: _BOX,
        MU: _MU, NU: _NU, PROP: _PROP, NEGPROP: _NEGPROP, TOP: _TOP, BOT: _BOT,
        fm.VAR: _VAR}


def _lower(step: tuple, index: dict, bodies: dict) -> tuple:
    """The lowered step `(op, i, a, b)` of a listed step, which writes
    `v[i]`: `a` and `b` are the operands' places for AND and OR; `a` is the
    argument's place for NOT, DIA and BOX, and for the last two `b` is the
    argument's key, which the algebra is handed.  For TANGLE `a` holds the
    members' places and `b` a getter of all of them from `v`, or None for
    one member; for PROP, NEGPROP and VAR `a` is the name.  A fixed point's
    `a` is its lowered body, from `bodies`, and `b` the place of the body's
    result."""
    key, kind, operand = step
    op, i = _OPS[kind], index[key]
    if kind in (AND, OR):
        return op, i, index[operand[0]], index[operand[1]]
    if kind in (DIA, BOX):
        return op, i, index[operand], operand
    if kind == NOT:
        return op, i, index[operand], None
    if kind == TANGLE:
        places = tuple(index[m] for m in operand)
        return op, i, places, operator.itemgetter(*places) if len(places) > 1 else None
    if kind in (MU, NU):
        return op, i, bodies[id(operand[0])], index[operand[1]]
    if kind in (TOP, BOT):
        return op, i, None, None
    return op, i, operand, None


def _run_steps(steps: tuple, v: list, model, val, full: int, env, dia, box,
               D: dict, B: dict, T, S) -> None:
    """Run lowered steps in order; a fixed point iterates its body from
    bottom (MU) or top (NU) until the body's result equals the value it
    was given."""
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
                x = dia(model, v[a], b, D)
            v[i] = x
        elif op == _NOT:
            v[i] = full & ~v[a]
        elif op == _BOX:
            x = B.get(v[a])
            if x is None:
                x = box(model, v[a], b, B)
            v[i] = x
        elif op <= _NU:  # MU or NU: `a` is the body, `b` its result's place
            x = 0 if op == _MU else full
            while True:
                v[i] = x
                _run_steps(a, v, model, val, full, env, dia, box, D, B, T, S)
                if v[b] == x:
                    break
                x = v[b]
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


def _unbound(name: str):
    raise UnboundVariableError(f"unbound variable {name!r}")


class Program(NamedTuple):
    """The program of one or more roots (see `compile_roots`)."""
    steps: list  # the top level, as `mu_program` lists it
    code: tuple  # the top level, lowered
    index: dict  # each step key's place in the value list
    roots: tuple  # each root's place in the value list
    tangles: bool  # whether any step is a tangle


def compile_roots(roots: Sequence[MuFormula | TangleFormula]) -> Program:
    """The program of the roots, listed by `mu_program` and lowered to step
    tuples for `_run_steps`.  The value list holds the top-level steps
    first, then each binder's body in order of discovery.  A single root's
    program is made once and kept on it."""
    if len(roots) == 1 and roots[0]._program is not None:
        return roots[0]._program
    steps, root_keys = mu_program(roots)
    bodies = [steps]
    index: dict = {}
    tangles = False
    for body in bodies:  # grows as binders are found
        for key, kind, operand in body:
            index[key] = len(index)
            if kind in (MU, NU):
                bodies.append(operand[0])
            elif kind == TANGLE:
                tangles = True
    # last found first, so each binder's body is lowered before the binder
    lowered: dict = {}
    for body in reversed(bodies):
        lowered[id(body)] = tuple(_lower(step, index, lowered) for step in body)
    program = Program(steps, lowered[id(steps)], index,
                      tuple(index[key] for key in root_keys), tangles)
    if len(roots) == 1:
        roots[0]._program = program
    return program


def run_program(model: KripkeModel | ModelBatch, program: Program, dia, box,
                env: Optional[Mapping[str, int]] = None) -> list:
    """The values of one run of `program` under the algebra `dia`/`box` on
    `model`, as one list: `program.index` gives each key's place in it and
    `program.roots` each root's; a step shared by several roots runs once.
    The run's memos are its own locals.  A diamond step reads the memo `D`
    by its argument mask and on a miss calls `dia(model, s, key, D)`, with
    `key` the argument's key; box steps read `B` and call `box` alike.
    Only the algebra fills the memos: with one that stores nothing, every
    modal step calls it.  A program with a tangle step also gets the
    tangle memo `T`, from member masks to the result, and the tangle state
    `S` (see `_tangle_compute`) over the target's `tangle_rows()`."""
    v = [None] * len(program.index)
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
    by one run of their program (given, or listed from the roots here): a
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
