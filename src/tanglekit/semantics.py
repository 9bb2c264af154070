"""Evaluation of mu-calculus and tangle formulas on finite wK4 models,
bisimulation, and the finality machinery (final parts, depths, the
depth-indexed modality, and the pruning oracle).

World sets are bitmasks.  The helpers that take a `cache` dict expect it to
be private to one model; passing the same dict across calls makes repeated
evaluation on that model incremental.

Mu-calculus formulas have one compiler and one run loop.  `mu_program`
turns a formula, once, into a flat post-order program kept on the root node
(`MuFormula._program`).  A closed node is keyed by itself; an open one by
an int that is the same wherever its free variables are bound by the same
binders.  A fixed-point step carries its body's steps, and each step sits in
the body of the innermost binder whose variable is free in it, so work that
does not depend on a variable runs outside that variable's loop.  `_run`
executes a program over a world-set algebra: the model gives the valuation,
`full` (the set of all its worlds, computed once per `run_mu` call and
passed down through the binders' recursion) gives top, and `dia`/`box`
(called with the argument's key) give the modalities.  `eval_mu` uses the
model's own `_dia_mask`/`_box_mask`; the translator uses a root cluster
whose modalities first read what holds above it.  Compiling is iterative
and the loop recurses once per nested binder only.  `eval_mu_exact` is the
independent oracle: it recurses over the formula and enumerates exact fixed
points.

A `cache` is the value store of the run: closed-node values in it are
reused and never recomputed, while open nodes, whose values depend on `env`
and on the binders' iterates, are always recomputed, so calls with
different `env` values can share it.

`eval_tangle` runs a flat post-order program of the formula's DAG, compiled
once per root by an iterative walk and kept on the root node
(`TangleFormula._program`), so neither compiling nor running it recurses.
The caller's dict is its value store (node -> mask), so it must only ever
hold values for one model.  Tangle nodes read a per-model cache
(`KripkeModel._tangle`): the cluster geometry and a memo from member masks
to result.  It is built on first use and lives and dies with the model.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Optional, Sequence

from . import formulas as fm
from .formulas import (AND, BOT, BOX, DIA, MU, NEGPROP, NU, OR, PROP, TOP,
                       MuFormula, TangleFormula)
from .models import (ABSENT, ONE, SAT, CanonicalCluster, KripkeModel,
                     _cluster_heights, iter_bits)

EMBED_STRICT = "strict"
EMBED_BISIMILAR = "bisimilar"
EMBED_NO = "no"


class UnboundVariableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mu-calculus evaluation


def _dia_mask(model: KripkeModel, s: int, key=None) -> int:
    out = 0
    bit = 1
    for succ in model.succ:
        if succ & s:
            out |= bit
        bit <<= 1
    return out


def _box_mask(model: KripkeModel, s: int, key=None) -> int:
    out = 0
    bit = 1
    outside = ~s
    for succ in model.succ:
        if not succ & outside:
            out |= bit
        bit <<= 1
    return out


# (node, binder key per free variable) -> key of that open occurrence
_open_keys: dict[tuple, int] = {}


def _step_key(g: MuFormula, scope: dict):
    """A closed node is its own key.  An open one gets an int, the same
    wherever its free variables are bound by the same binders; a bound
    variable reads its binder's slot, so its key is the binder's."""
    fv = fm.free_vars(g)
    if not fv:
        return g
    if g.kind == fm.VAR and g.name in scope:
        return scope[g.name][0]
    binding = (g, tuple(sorted((v, scope[v][0] if v in scope else None) for v in fv)))
    key = _open_keys.get(binding)
    if key is None:
        key = _open_keys[binding] = len(_open_keys)
    return key


def mu_program(f: MuFormula) -> list[tuple]:
    """The steps that evaluate f, compiled once by an iterative walk and
    kept on f.  A step is `(key, kind, operand)`; the operand is the name,
    the argument key, the `(left, right)` keys, or for a fixed point its
    body's steps and the key of the body's result.  Each step sits in the
    body of the innermost binder whose variable is free in it, so work that
    does not depend on a variable runs once, outside that variable's loop;
    steps of variables left free (read from `env`) sit at the top."""
    if f._program is not None:
        return f._program
    top: list = []
    seen = set()
    # Entries are (node, scope) to visit, or (None, (home, step)) to append
    # the finished step to its home list.  A scope maps each bound variable
    # to (binder key, nesting depth, the binder's body steps).
    stack: list = [(f, {})]
    while stack:
        g, scope = stack.pop()
        if g is None:
            home, step = scope
            home.append(step)
            continue
        kind = g.kind
        if kind == fm.VAR and g.name in scope:
            continue
        key = _step_key(g, scope)
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
            stack.append((None, (home, (key, kind, (body, _step_key(g.body, inner))))))
            stack.append((g.body, inner))
            continue
        if kind in (fm.AND, fm.OR):
            operand = (_step_key(g.left, scope), _step_key(g.right, scope))
        elif kind in (fm.DIA, fm.BOX):
            operand = _step_key(g.arg, scope)
        else:
            operand = g.name
        stack.append((None, (home, (key, kind, operand))))
        stack.extend((c, scope) for c in g.children())
    f._program = top
    return top


def _run(steps: list, values: dict, model: KripkeModel, full: int, dia, box,
         env: Mapping[str, int]) -> None:
    """Run the steps, writing each value under its key.  `full` is the set
    of all worlds of `model`, computed once by the caller.  `dia(model, s,
    key)` and `box(model, s, key)` are the modal operations of the world-set
    algebra; `key` is the argument's key.  Recurses once per nested binder."""
    val = model.val
    for key, kind, operand in steps:
        if kind == OR:
            out = values[operand[0]] | values[operand[1]]
        elif kind == AND:
            out = values[operand[0]] & values[operand[1]]
        elif kind == DIA:
            out = dia(model, values[operand], operand)
        elif kind == BOX:
            out = box(model, values[operand], operand)
        elif kind == PROP:
            out = val.get(operand, 0)
        elif kind == NEGPROP:
            out = full & ~val.get(operand, 0)
        elif kind == MU or kind == NU:
            body, result = operand
            out = 0 if kind == MU else full
            while True:
                values[key] = out
                _run(body, values, model, full, dia, box, env)
                if values[result] == out:
                    break
                out = values[result]
        elif kind == TOP:
            out = full
        elif kind == BOT:
            out = 0
        else:  # VAR, free in the root
            if operand not in env:
                raise UnboundVariableError(f"unbound variable {operand!r}")
            out = env[operand]
        values[key] = out


def run_mu(model: KripkeModel, f: MuFormula, values: dict, dia, box,
           env: Optional[Mapping[str, int]] = None) -> int:
    """World set of f under the algebra `dia`/`box` on `model`.  `values`
    is the value store; closed nodes already in it are not recomputed, open
    ones always are."""
    got = values.get(f)
    if got is not None:
        return got
    program = mu_program(f)
    if values:
        program = [step for step in program
                   if type(step[0]) is int or step[0] not in values]
    _run(program, values, model, model.full_mask, dia, box, env or {})
    return values[program[-1][0]]


def eval_mu(model: KripkeModel, f: MuFormula,
            env: Optional[Mapping[str, int]] = None,
            cache: Optional[dict] = None) -> int:
    """World set of an NNF formula; fixed points by monotone iteration."""
    return run_mu(model, f, {} if cache is None else cache, _dia_mask, _box_mask, env)


def eval_mu_exact(model: KripkeModel, f: MuFormula,
                  env: Optional[Mapping[str, int]] = None) -> int:
    """Fixed points as the intersection (union) of all exact fixed points,
    enumerated over the full powerset.  Only sensible on tiny models."""
    env = dict(env) if env else {}
    full = model.full_mask

    def go(g: MuFormula, env: dict) -> int:
        kind = g.kind
        if kind in (fm.MU, fm.NU):
            exact = []
            for x in range(full + 1):
                env2 = dict(env)
                env2[g.var] = x
                if go(g.body, env2) == x:
                    exact.append(x)
            if kind == fm.MU:
                out = full
                for x in exact:
                    out &= x
            else:
                out = 0
                for x in exact:
                    out |= x
            return out
        if kind == fm.AND:
            return go(g.left, env) & go(g.right, env)
        if kind == fm.OR:
            return go(g.left, env) | go(g.right, env)
        if kind == fm.DIA:
            return _dia_mask(model, go(g.arg, env))
        if kind == fm.BOX:
            return _box_mask(model, go(g.arg, env))
        if kind == fm.TOP:
            return full
        if kind == fm.BOT:
            return 0
        if kind == fm.PROP:
            return model.val_mask(g.name)
        if kind == fm.NEGPROP:
            return full & ~model.val_mask(g.name)
        if g.name not in env:
            raise UnboundVariableError(f"unbound variable {g.name!r}")
        return env[g.name]

    return go(f, env)


# ---------------------------------------------------------------------------
# tangle evaluation


def _tangle_cache(model: KripkeModel) -> tuple[tuple, dict]:
    """The model's cluster geometry and its tangle memo, built on first use.
    Per cluster the geometry holds `cluster mask | worlds that see into it`
    and `(1 << u, succ[u] & cluster mask)` for each point u."""
    if model._tangle is None:
        geometry = []
        for cluster in model.clusters():
            cmask = 0
            for w in cluster:
                cmask |= 1 << w
            down = cmask
            for w in range(model.n):
                if model.succ[w] & cmask:
                    down |= 1 << w
            geometry.append((down, tuple((1 << u, model.succ[u] & cmask)
                                         for u in cluster)))
        model._tangle = (tuple(geometry), {})
    return model._tangle


def _tangle_mask(model: KripkeModel, member_masks: Sequence[int]) -> int:
    """Worlds weakly below a maximal cluster in which the member multiset is
    recurrently satisfied: each cluster point either sees witnesses for every
    member inside the cluster, or satisfies one member itself and sees
    witnesses for all the others."""
    geometry, memo = _tangle_cache(model)
    key = tuple(member_masks)
    got = memo.get(key)
    if got is not None:
        return got
    result = 0
    for down, points in geometry:
        for bit, inside in points:
            # At most one member may lack a witness inside the cluster, and
            # the point itself must satisfy that one.
            missed = False
            for m in key:
                if not inside & m:
                    if missed or not m & bit:
                        break
                    missed = True
            else:
                continue
            break
        else:
            result |= down
    memo[key] = result
    return result


def eval_tangle_direct(model: KripkeModel, members: Sequence[MuFormula],
                       env: Optional[Mapping[str, int]] = None,
                       cache: Optional[dict] = None) -> int:
    """Tangle of a mu-formula multiset, evaluated from the cluster reading
    rather than by unfolding the fixed point."""
    if not members:
        raise ValueError("tangle of an empty multiset")
    if cache is None:
        cache = {}
    masks = [eval_mu(model, m, env, cache) for m in members]
    return _tangle_mask(model, masks)


def _tangle_program(f: TangleFormula) -> list[tuple]:
    """The DAG of f in post-order, one `(node, kind, operand)` entry per
    distinct node; the operand is the name, the child, the `(left, right)`
    pair or the member tuple.  Built once by an iterative walk and kept on f."""
    if f._program is None:
        program = []
        seen = set()
        stack = [(f, False)]
        while stack:
            g, ready = stack.pop()
            kind = g.kind
            if ready:
                if kind == fm.PROP:
                    operand = g.name
                elif kind in (fm.AND, fm.OR):
                    operand = (g.left, g.right)
                elif kind == fm.TANGLE:
                    operand = g.members
                else:
                    operand = g.arg
                program.append((g, kind, operand))
            elif g not in seen:
                seen.add(g)
                stack.append((g, True))
                stack.extend((c, False) for c in g.children() if c not in seen)
        f._program = program
    return f._program


def eval_tangle(model: KripkeModel, f: TangleFormula,
                cache: Optional[dict] = None) -> int:
    """World set of a tangle-language formula: one loop over the cached
    post-order program of f.  A given `cache` is the value store (node ->
    mask) for this model; entries already in it are not recomputed."""
    program = _tangle_program(f)
    if cache is None:
        values: dict = {}
    else:
        got = cache.get(f)
        if got is not None:
            return got
        values = cache
        if values:
            program = [step for step in program if step[0] not in values]
    full = model.full_mask
    AND, OR, NOT, DIA, BOX, TANGLE = fm.AND, fm.OR, fm.NOT, fm.DIA, fm.BOX, fm.TANGLE
    for node, kind, operand in program:
        if kind == OR:
            out = values[operand[0]] | values[operand[1]]
        elif kind == AND:
            out = values[operand[0]] & values[operand[1]]
        elif kind == TANGLE:
            out = _tangle_mask(model, [values[m] for m in operand])
        elif kind == NOT:
            out = full & ~values[operand]
        elif kind == DIA:
            out = _dia_mask(model, values[operand])
        elif kind == BOX:
            out = _box_mask(model, values[operand])
        elif kind == fm.PROP:
            out = model.val_mask(operand)
        else:  # TOP
            out = full
        values[node] = out
    return values[f]


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
    """Truth mask of every closure member, read through its closed form."""
    if cache is None:
        cache = {}
    return {m: eval_mu(model, fm.floor(m), None, cache) for m in sigma}


def sigma_final_part(model: KripkeModel, sigma: fm.SigmaClosure,
                     cache: Optional[dict] = None) -> int:
    """Worlds satisfying some member whose every satisfying successor loops
    back; the largest final subset of the model."""
    truths = sigma_truth_masks(model, sigma, cache)
    pred = model.pred()
    out = 0
    for mask in truths.values():
        for w in iter_bits(mask):
            if not model.succ[w] & mask & ~pred[w]:
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
    clusters = model.clusters()
    counted = frozenset(i for i, c in enumerate(clusters)
                        if any(final >> w & 1 for w in c))
    heights = _cluster_heights(model, counted)
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
    satisfying phi.  phi must be a closure member (or T)."""
    if phi.kind != fm.TOP:
        phi = sigma.member_of(phi)
    if cache is None:
        cache = {}
    depths, final = sigma_world_depths(model, sigma, cache)
    sat = eval_mu(model, fm.floor(phi), None, cache)
    targets = 0
    for v in iter_bits(final & sat):
        if depths[v] == n:
            targets |= 1 << v
    out = targets
    for w in range(model.n):
        if model.succ[w] & targets:
            out |= 1 << w
    return out


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
        sub = model.restrict(mask)
        sub_cache: dict = {}
        keep = list(iter_bits(mask))
        for member, full_mask_truth in truths.items():
            sub_truth = eval_mu(sub, fm.floor(member), None, sub_cache)
            for i, w in enumerate(keep):
                if (full_mask_truth >> w & 1) != (sub_truth >> i & 1):
                    return False, (mask, model.labels[w], member)
    return True, None
