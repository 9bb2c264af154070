"""Evaluation of mu-calculus and tangle formulas on finite wK4 models,
bisimulation, and the finality machinery (final parts, depths, the
depth-indexed modality, and the pruning oracle).

World sets are bitmasks.  The helpers that take a `cache` dict expect it to
be private to one model; passing the same dict across calls makes repeated
evaluation on that model incremental.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Optional, Sequence

from . import formulas as fm
from .formulas import MuFormula, TangleFormula
from .models import (ABSENT, ONE, SAT, CanonicalCluster, KripkeModel,
                     _cluster_heights)

EMBED_STRICT = "strict"
EMBED_BISIMILAR = "bisimilar"
EMBED_NO = "no"


class UnboundVariableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mu-calculus evaluation


def _dia_mask(model: KripkeModel, s: int) -> int:
    out = 0
    for w in range(model.n):
        if model.succ[w] & s:
            out |= 1 << w
    return out


def _box_mask(model: KripkeModel, s: int) -> int:
    out = 0
    for w in range(model.n):
        if not model.succ[w] & ~s:
            out |= 1 << w
    return out


def eval_mu(model: KripkeModel, f: MuFormula,
            env: Optional[Mapping[str, int]] = None,
            cache: Optional[dict] = None) -> int:
    """World set of an NNF formula; fixed points by monotone iteration."""
    if cache is None:
        cache = {}
    return _eval_mu(model, f, dict(env) if env else {}, cache)


def _env_key(f: MuFormula, env: dict) -> tuple:
    fv = fm.free_vars(f)
    return (f, tuple(sorted((v, env[v]) for v in fv if v in env)))


def _eval_mu(model: KripkeModel, f: MuFormula, env: dict, cache: dict) -> int:
    key = _env_key(f, env)
    got = cache.get(key)
    if got is not None:
        return got
    kind = f.kind
    if kind == fm.TOP:
        out = model.full_mask
    elif kind == fm.BOT:
        out = 0
    elif kind == fm.PROP:
        out = model.val_mask(f.name)
    elif kind == fm.NEGPROP:
        out = model.full_mask & ~model.val_mask(f.name)
    elif kind == fm.VAR:
        if f.name not in env:
            raise UnboundVariableError(f"unbound variable {f.name!r}")
        out = env[f.name]
    elif kind == fm.AND:
        out = _eval_mu(model, f.left, env, cache) & _eval_mu(model, f.right, env, cache)
    elif kind == fm.OR:
        out = _eval_mu(model, f.left, env, cache) | _eval_mu(model, f.right, env, cache)
    elif kind == fm.DIA:
        out = _dia_mask(model, _eval_mu(model, f.arg, env, cache))
    elif kind == fm.BOX:
        out = _box_mask(model, _eval_mu(model, f.arg, env, cache))
    else:
        current = 0 if kind == fm.MU else model.full_mask
        while True:
            env2 = dict(env)
            env2[f.var] = current
            nxt = _eval_mu(model, f.body, env2, cache)
            if nxt == current:
                break
            current = nxt
        out = current
    cache[key] = out
    return out


def eval_mu_exact(model: KripkeModel, f: MuFormula,
                  env: Optional[Mapping[str, int]] = None) -> int:
    """Fixed points as the intersection (union) of all exact fixed points,
    enumerated over the full powerset.  Only sensible on tiny models."""
    env = dict(env) if env else {}

    def go(g: MuFormula, env: dict) -> int:
        kind = g.kind
        if kind in (fm.MU, fm.NU):
            exact = []
            for x in range(model.full_mask + 1):
                env2 = dict(env)
                env2[g.var] = x
                if go(g.body, env2) == x:
                    exact.append(x)
            if kind == fm.MU:
                out = model.full_mask
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
        return _eval_mu(model, g, env, {})

    return go(f, env)


# ---------------------------------------------------------------------------
# tangle evaluation


def _tangle_mask(model: KripkeModel, member_masks: Sequence[int]) -> int:
    """Worlds weakly below a maximal cluster in which the member multiset is
    recurrently satisfied: each cluster point either sees witnesses for every
    member inside the cluster, or satisfies one member itself and sees
    witnesses for all the others."""
    result = 0
    for cluster in model.clusters():
        cmask = 0
        for w in cluster:
            cmask |= 1 << w
        tangled = True
        for u in cluster:
            inside = model.succ[u] & cmask
            if all(inside & m for m in member_masks):
                continue
            ok = False
            for i, m in enumerate(member_masks):
                if m >> u & 1 and all(inside & m2 for j, m2 in enumerate(member_masks)
                                      if j != i):
                    ok = True
                    break
            if not ok:
                tangled = False
                break
        if tangled:
            result |= cmask
            for w in range(model.n):
                if model.succ[w] & cmask:
                    result |= 1 << w
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


def eval_tangle(model: KripkeModel, f: TangleFormula,
                cache: Optional[dict] = None) -> int:
    """World set of a tangle-language formula (one pass over the DAG)."""
    if cache is None:
        cache = {}
    got = cache.get(f)
    if got is not None:
        return got
    kind = f.kind
    if kind == fm.TOP:
        out = model.full_mask
    elif kind == fm.PROP:
        out = model.val_mask(f.name)
    elif kind == fm.NOT:
        out = model.full_mask & ~eval_tangle(model, f.arg, cache)
    elif kind == fm.AND:
        out = eval_tangle(model, f.left, cache) & eval_tangle(model, f.right, cache)
    elif kind == fm.OR:
        out = eval_tangle(model, f.left, cache) | eval_tangle(model, f.right, cache)
    elif kind == fm.DIA:
        out = _dia_mask(model, eval_tangle(model, f.arg, cache))
    elif kind == fm.BOX:
        out = _box_mask(model, eval_tangle(model, f.arg, cache))
    else:
        out = _tangle_mask(model, [eval_tangle(model, m, cache) for m in f.members])
    cache[f] = out
    return out


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
            ok = True
            rest = m.succ[u]
            while rest and ok:
                u2 = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not any((u2, v2) in rel for v2 in _bits(n.succ[v])):
                    ok = False
            rest = n.succ[v]
            while rest and ok:
                v2 = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not any((u2, v2) in rel for u2 in _bits(m.succ[u])):
                    ok = False
            if not ok:
                rel.discard((u, v))
                changed = True
    return rel


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


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
        for w in _bits(mask):
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
    for v in _bits(final & sat):
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
        keep = _bits(mask)
        for member, full_mask_truth in truths.items():
            sub_truth = eval_mu(sub, fm.floor(member), None, sub_cache)
            for i, w in enumerate(keep):
                if (full_mask_truth >> w & 1) != (sub_truth >> i & 1):
                    return False, (mask, model.labels[w], member)
    return True, None
