"""Evaluation of mu-calculus and tangle formulas on finite wK4 models,
bisimulation, and the finality machinery (final parts, depths, the
depth-indexed modality, and the pruning oracle).

World sets are bitmasks.  The helpers that take a `cache` dict expect it to
be private to one model; passing the same dict across calls makes repeated
evaluation on that model incremental.

Both languages run compiled code, built by one segment compiler
(`_compile_segments`): a list of step sources is split into runs of at
most `SEGMENT_STEPS` steps, and each run becomes one Python function,
generated with `compile`/`exec` over a fixed scope.  The compiler's memory
grows with the size of the function compiled, so one function for a
program of tens of thousands of steps would cost tens of megabytes at
compile time.  Each step is a line or a short block over one per-call value
list `v`, with integer indices and fixed local names only: atom names, free
variable names and algebra keys are passed in tuples and never written into
the source.

Mu-calculus formulas are compiled in two stages, each done once and kept on
the root node.  `mu_program` turns a formula into a flat post-order program
(`MuFormula._program`).  A closed node is keyed by itself; an open one by an
int that is the same wherever its free variables are bound by the same
binders.  A fixed-point step carries its body's steps, and each step sits
in the body of the innermost binder whose variable is free in it, so work
that does not depend on a variable runs outside that variable's loop.
`_mu_segments` then compiles the top level and each binder's body into
segments of their own (`MuFormula._segments`); a fixed-point step iterates
`v[i] = x`, its body's segments, and a compare of the body's result with
`x`.  So no function nests blocks more than three deep, however deep the
binders nest, and running recurses once per nested binder only; compiling
does not recurse.  `run_mu` runs the segments over a world-set algebra: the
model gives the valuation and `full` (the set of all its worlds) gives top,
and `dia(model, s, key)`/`box(model, s, key)`, called with the argument's
key, give the modalities.  `eval_mu` uses `_dia_mask`/`_box_mask`; the
translator uses a root cluster whose modalities first read what holds
above it.  A free variable missing from `env` raises
`UnboundVariableError`.  `eval_mu_exact` is the independent oracle: it
recurses over the formula and enumerates exact fixed points.

Modal images are memoised per frame.  `_dia_mask(model, s)` and
`_box_mask(model, s)` look s up in the model's `_dia`/`_box` dict, keyed by
the argument mask, and on a miss compute the image with the memo-free
`dia_image`/`box_image` over `model.succ` and store it.  An image depends
on `succ` alone, which never changes, so an entry is valid for the model's
life.  Every fast path goes through these two: `eval_mu`, the translator's
root blocks (each realized cluster has a memo of its own) and the diamond
and box steps of `eval_tangle`.  Models enumerated on one frame share one
pair of memos (see `models.enumerate_models`); any other model has its own.
No memo outlives its models.  `eval_mu_exact` calls `dia_image`/`box_image`
directly, so the oracle shares nothing with the fast path.

A mu `cache` is the value store of the run.  If the root is in it, its
value is returned.  Closed top-level nodes already in it are guarded in the
compiled code and never recomputed, while open nodes, whose values depend on
`env` and on the binders' iterates, are always recomputed, so calls with
different `env` values can share it.  Every value computed, open keys
included, is stored back; with no cache, nothing is kept.

For `eval_tangle`, the formula's DAG is first listed as a flat post-order
program by an iterative walk (`_tangle_program`, kept in
`TangleFormula._program`).  Once per root, that program is compiled into
segments, kept in `TangleFormula._segments`.  Neither compiling nor running
recurses.  A given dict is a value store (node -> mask), so it must only
ever hold values for one model.  If the root is in it, its value is
returned; otherwise every node of the root's program is computed, shared
nodes already in the store too, and stored in it.  Diamond and box steps
read the model's modal memos.  Tangle nodes read a per-model cache
(`KripkeModel._tangle`): the cluster geometry and a memo from member masks
to result.  It is built on first use and lives and dies with the model.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Optional, Sequence

from . import formulas as fm
from .formulas import (AND, BOT, BOX, DIA, MU, NEGPROP, NOT, NU, OR, PROP,
                       TANGLE, TOP, MuFormula, TangleFormula)
from .models import (ABSENT, ONE, SAT, CanonicalCluster, KripkeModel,
                     _cluster_heights, iter_bits)

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


def _dia_mask(model: KripkeModel, s: int, key=None) -> int:
    """The diamond image of s, read from the model's memo `_dia`."""
    try:
        return model._dia[s]
    except KeyError:
        got = model._dia[s] = dia_image(model.succ, s)
        return got


def _box_mask(model: KripkeModel, s: int, key=None) -> int:
    """The box image of s, read from the model's memo `_box`."""
    try:
        return model._box[s]
    except KeyError:
        got = model._box[s] = box_image(model.succ, s)
        return got


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


# Steps per compiled segment.  Compiling costs memory that grows with the
# size of the function compiled, so a program of any size is split into
# functions of at most this many steps.
SEGMENT_STEPS = 128


def _compile_segments(head: str, steps: list[str], scope: dict,
                      filename: str) -> list:
    """Split the step sources into runs of at most `SEGMENT_STEPS` and
    compile each run, under `head`, into one function whose globals are a
    copy of `scope`."""
    segments = []
    for start in range(0, len(steps), SEGMENT_STEPS):
        body = "\n".join(steps[start:start + SEGMENT_STEPS])
        source = head + "    " + body.replace("\n", "\n    ") + "\n"
        namespace = dict(scope)
        exec(compile(source, filename, "exec"), namespace)
        segments.append(namespace["segment"])
    return segments


def _unbound(name: str):
    raise UnboundVariableError(f"unbound variable {name!r}")


# The signature of every mu segment.  Besides these names its source uses
# only the local `x` and the global `unbound`.  `names` holds atom and free
# variable names, `K` the keys passed to `dia`/`box`, `F` every segment of
# the root's program.
_MU_HEAD = "def segment(v, model, val, names, full, env, dia, box, K, F):\n"
_MU_CALL = "F[{}](v, model, val, names, full, env, dia, box, K, F)"


def _mu_step_source(i: int, kind: str, operand, index: dict, names: list,
                    algebra: list, calls: Iterable[int]) -> str:
    """The source of step i over the value list `v`; names and algebra keys
    go into `names` and `algebra` and the source reads them by index.  A
    fixed point iterates its body, whose segments are `F[j]` for j in
    `calls`."""
    if kind == AND:
        return f"v[{i}] = v[{index[operand[0]]}] & v[{index[operand[1]]}]"
    if kind == OR:
        return f"v[{i}] = v[{index[operand[0]]}] | v[{index[operand[1]]}]"
    if kind in (DIA, BOX):
        algebra.append(operand)
        op = "dia" if kind == DIA else "box"
        return f"v[{i}] = {op}(model, v[{index[operand]}], K[{len(algebra) - 1}])"
    if kind == TOP:
        return f"v[{i}] = full"
    if kind == BOT:
        return f"v[{i}] = 0"
    if kind in (MU, NU):
        result = index[operand[1]]
        return "\n".join([f"x = {'0' if kind == MU else 'full'}",
                          "while True:",
                          f"    v[{i}] = x",
                          *("    " + _MU_CALL.format(j) for j in calls),
                          f"    if v[{result}] == x:",
                          "        break",
                          f"    x = v[{result}]"])
    names.append(operand)
    j = len(names) - 1
    if kind == PROP:
        return f"v[{i}] = val.get(names[{j}], 0)"
    if kind == NEGPROP:
        return f"v[{i}] = full & ~val.get(names[{j}], 0)"
    # VAR, free in the root
    return f"v[{i}] = env[names[{j}]] if names[{j}] in env else unbound(names[{j}])"


def _mu_segments(f: MuFormula) -> tuple:
    """`(top, F, keys, root, names, K)` for f, compiled once from its
    program and kept on f.  `keys` lists every step's key in the order of
    the value list; the top-level steps come first, the root's (at index
    `root`) last among them.  Each body (the top level, then the binders'
    bodies in order of discovery) becomes segments of its own, all in `F`;
    `top` is the top level's.  Closed top-level steps are guarded, so that
    a value taken from the store is kept."""
    if f._segments is None:
        bodies = [mu_program(f)]
        keys = []
        for steps in bodies:  # grows as binders are found
            for key, kind, operand in steps:
                keys.append(key)
                if kind in (MU, NU):
                    bodies.append(operand[0])
        index = {key: i for i, key in enumerate(keys)}
        starts = [0]
        for steps in bodies:
            starts.append(starts[-1] + (len(steps) + SEGMENT_STEPS - 1) // SEGMENT_STEPS)
        names: list = []
        algebra: list = []
        scope = {"unbound": _unbound}
        segments = []
        found = 1
        for b, steps in enumerate(bodies):
            sources = []
            for key, kind, operand in steps:
                i = index[key]
                calls = ()
                if kind in (MU, NU):
                    calls = range(starts[found], starts[found + 1])
                    found += 1
                source = _mu_step_source(i, kind, operand, index, names,
                                         algebra, calls)
                if b == 0 and type(key) is not int:
                    source = (f"if v[{i}] is None:\n    "
                              + source.replace("\n", "\n    "))
                sources.append(source)
            segments += _compile_segments(_MU_HEAD, sources, scope, "<mu segment>")
        f._segments = (tuple(segments[:starts[1]]), tuple(segments), tuple(keys),
                       len(bodies[0]) - 1, tuple(names), tuple(algebra))
    return f._segments


def run_mu(model: KripkeModel, f: MuFormula, values: Optional[dict], dia, box,
           env: Optional[Mapping[str, int]] = None) -> int:
    """World set of f under the algebra `dia`/`box` on `model`: the
    compiled segments of f run over one value list.  `dia(model, s, key)`
    and `box(model, s, key)` are the modal operations; `key` is the
    argument's key.  `values` is the value store: if f is in it, its value
    is returned; closed nodes already in it are not recomputed, open ones
    always are, and every value computed is stored in it.  With None,
    nothing is stored."""
    top, segments, keys, root, names, algebra = f._segments or _mu_segments(f)
    if values:
        got = values.get(f)
        if got is not None:
            return got
        v = list(map(values.get, keys))
    else:
        v = [None] * len(keys)
    val, full = model.val, model.full_mask
    env = env or {}
    for segment in top:
        segment(v, model, val, names, full, env, dia, box, algebra, segments)
    if values is not None:
        if None in v:  # the body of a fixed point whose value was given
            values.update((key, x) for key, x in zip(keys, v) if x is not None)
        else:
            values.update(zip(keys, v))
    return v[root]


def eval_mu(model: KripkeModel, f: MuFormula,
            env: Optional[Mapping[str, int]] = None,
            cache: Optional[dict] = None) -> int:
    """World set of an NNF formula; fixed points by monotone iteration."""
    return run_mu(model, f, cache, _dia_mask, _box_mask, env)


def eval_mu_exact(model: KripkeModel, f: MuFormula,
                  env: Optional[Mapping[str, int]] = None) -> int:
    """Fixed points as the intersection (union) of all exact fixed points,
    enumerated over the full powerset.  Only sensible on tiny models.  It
    computes every modal image afresh and reads no memo."""
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
            return dia_image(model.succ, go(g.arg, env))
        if kind == fm.BOX:
            return box_image(model.succ, go(g.arg, env))
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


# The signature of every tangle segment.  Besides these names its source
# uses only the locals `x` and `k` and the globals `dia`, `box` and `tangle`.
_SEGMENT_HEAD = "def segment(v, model, val, names, full, D, B, T):\n"


def _step_source(i: int, kind: str, operand, index: dict, names: list) -> str:
    """The source of step i: it reads earlier steps' values from `v` by
    index and writes its own to `v[i]`.  An atom name goes into `names` and
    the source reads it from there by index."""
    if kind == AND:
        return f"v[{i}] = v[{index[operand[0]]}] & v[{index[operand[1]]}]"
    if kind == OR:
        return f"v[{i}] = v[{index[operand[0]]}] | v[{index[operand[1]]}]"
    if kind == NOT:
        return f"v[{i}] = full & ~v[{index[operand]}]"
    if kind == PROP:
        names.append(operand)
        return f"v[{i}] = val.get(names[{len(names) - 1}], 0)"
    if kind in (DIA, BOX):
        memo, op = ("D", "dia") if kind == DIA else ("B", "box")
        a = index[operand]
        return (f"x = {memo}.get(v[{a}])\n"
                f"if x is None:\n"
                f"    x = {op}(model, v[{a}])\n"
                f"v[{i}] = x")
    if kind == TANGLE:
        members = ", ".join(f"v[{index[m]}]" for m in operand)
        return (f"k = ({members},)\n"
                f"x = T.get(k)\n"
                f"if x is None:\n"
                f"    x = tangle(model, k)\n"
                f"v[{i}] = x")
    return f"v[{i}] = full"  # TOP


def _tangle_segments(f: TangleFormula) -> tuple:
    """`(segments, names, nodes)` for f, compiled once from its program and
    kept on f.  Each segment is a generated function that runs at most
    `SEGMENT_STEPS` consecutive steps over the value list `v`; `names` holds
    the atom names the segments read, `nodes` the program's nodes in the
    order of `v`."""
    if f._segments is None:
        program = _tangle_program(f)
        index = {node: i for i, (node, _, _) in enumerate(program)}
        names: list = []
        steps = [_step_source(i, kind, operand, index, names)
                 for i, (_, kind, operand) in enumerate(program)]
        scope = {"dia": _dia_mask, "box": _box_mask, "tangle": _tangle_mask}
        segments = _compile_segments(_SEGMENT_HEAD, steps, scope, "<tangle segment>")
        f._segments = (tuple(segments), tuple(names),
                       tuple(node for node, _, _ in program))
    return f._segments


def eval_tangle(model: KripkeModel, f: TangleFormula,
                cache: Optional[dict] = None) -> int:
    """World set of a tangle-language formula: the compiled segments of f
    run in order over one value list.  Diamond and box steps read the
    model's modal memos, keyed by the argument mask, and fill them through
    `_dia_mask`/`_box_mask` on a miss; tangle steps read the model's tangle
    memo.  A given `cache` is a value store (node -> mask) for this model:
    if f is in it, its value is returned; otherwise every node of f's
    program is computed, shared nodes already in it too, and stored in it."""
    if cache is not None:
        got = cache.get(f)
        if got is not None:
            return got
    segments, names, nodes = _tangle_segments(f)
    v = [0] * len(nodes)
    val, full = model.val, model.full_mask
    _, tangle_memo = _tangle_cache(model)
    for segment in segments:
        segment(v, model, val, names, full, model._dia, model._box, tangle_memo)
    if cache is not None:
        cache.update(zip(nodes, v))
    return v[-1]


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
    return {m: eval_mu(model, sigma.floors[m], None, cache) for m in sigma}


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
    sat = eval_mu(model, sigma.floors.get(phi, phi), None, cache)
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
            sub_truth = eval_mu(sub, sigma.floors[member], None, sub_cache)
            for i, w in enumerate(keep):
                if (full_mask_truth >> w & 1) != (sub_truth >> i & 1):
                    return False, (mask, model.labels[w], member)
    return True, None
