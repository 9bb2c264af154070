"""Finite weakly transitive Kripke models.

Worlds are dense indices carrying string labels; the accessibility relation
is stored as one successor bitmask per world, and valuations map proposition
names to bitmasks.  Models are immutable after construction; the cluster
structure is computed lazily and cached.  Every relation here is wK4, so
two worlds share a cluster exactly when their successor rows are equal
once each has its own bit set (`_row_clusters`, which both
`KripkeModel.clusters` and `ModelBatch.tangle_rows` read).  The worlds
strictly above a cluster are then its representative's row outside it,
and `_cluster_heights` settles the clusters by how many there are.

A model, like a `ModelBatch`, holds nothing of an evaluation: a run's
memos are its own locals (`semantics.run_program`).  What a model keeps is
derived from `succ` alone: its clusters, and the relation rows tangle
steps read (`tangle_rows()`), each built on first use.

The models enumerated on a run of consecutive frames of one world count
are also the copies of one `ModelBatch`, their disjoint union packed into
wide ints of at most `BATCH_BITS` bits (a wider frame is a run of its own),
built from the frames' successor rows.  Such a model keeps its batch in
`_batch` and the bit offset of its copy in `_shift`, which runs 0, n, 2n,
... across the run's frames in order; every other model has
`_batch = None`.  A batch is built before its first model is yielded (its
cluster relations by the first tangle step run on it) and holds the packed
value of each root evaluated on it (`semantics.eval_mu`/`eval_tangle`), so
these are freed with the models.

`enumerate_models` yields every model up to isomorphism.  Its frames come
from `_wk4_canonical(n)`, which lists the wK4 extensions of each canonical
(n-1)-world frame by a world w (`_wk4_extensions`): w's in-set is closed
under predecessors, the old part of its out-set under successors, and each
world of the in-set sees each old world of the out-set but itself; w's self
bit is free.  This is complete: deleting a world from a wK4 frame leaves an
induced subframe, which is again wK4, so every n-world frame is an
extension of some canonical (n-1)-world frame.  The first candidate met in
an orbit strikes its n! images under world permutations from the rest; the
least is the canonical frame, cached with the mask-image table of each
non-identity automorphism (none if the orbit has all n! images).  A
valuation tuple is emitted only if no table maps it to a smaller tuple, as
found by an orderly walk over the tuples, one atom at a time
(`_orbit_leaders`).  Five worlds (13,522 candidates, 2,902 frames) take
about 0.3 s on a 2 vCPU Xeon.  Six would mean 168,276 candidates in 29,309
orbits of up to 720 images each, so the enumeration is capped at five
(`MAX_WORLDS`).
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

STRICT = "strict"
WEAK = "weak"
NONE = "none"


class ModelFormatError(ValueError):
    pass


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def weak_closure_masks(succ: Sequence[int]) -> tuple[int, ...]:
    """Least weakly transitive relation containing the input: whenever
    a -> b -> c with a != c, add a -> c.  Existing reflexive edges are kept."""
    succ = list(succ)
    n = len(succ)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            add = 0
            for b in iter_bits(succ[a]):
                add |= succ[b]
            add &= ~(1 << a)
            if add & ~succ[a]:
                succ[a] |= add
                changed = True
    return tuple(succ)


class KripkeModel:
    # Filled on first use; an enumerated model also gets its batch and the
    # bit offset of its copy there.
    _clusters = _cluster_id = _cluster_masks = _tangle_rows = _batch = None
    _shift = 0

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]],
                 valuation: Optional[Mapping[str, Iterable[int]]] = None,
                 _masks: Optional[tuple] = None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ModelFormatError("duplicate world labels")
        if _masks is not None:
            succ, val = _masks
            val = dict(val)
        else:
            succ = [0] * len(labels)
            for a, b in edges:
                succ[a] |= 1 << b
            val = {}
            for name, worlds in (valuation or {}).items():
                mask = 0
                for w in worlds:
                    mask |= 1 << w
                val[name] = mask
        # as in `enumerate_models`: one order, so one shared key table
        self.labels = labels
        self.n = len(labels)
        self.succ = tuple(succ)
        self.val = val
        self.full_mask = (1 << self.n) - 1

    # -- basic views ---------------------------------------------------

    def val_mask(self, name: str) -> int:
        return self.val.get(name, 0)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ModelFormatError(f"unknown world label {label!r}") from None

    def mask_labels(self, mask: int) -> list[str]:
        return [self.labels[w] for w in range(self.n) if mask >> w & 1]

    def __repr__(self):
        return f"KripkeModel(n={self.n})"

    # -- derived structure ---------------------------------------------

    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Partition into maximal clusters (worlds that see each other), by
        least world, each ascending, grouped by the row rule of
        `_row_clusters`."""
        if self._clusters is None:
            self._cluster_id, masks = _row_clusters(self.succ)
            self._cluster_masks = tuple(masks)
            self._clusters = tuple(tuple(iter_bits(m)) for m in masks)
        return self._clusters

    def cluster_id(self, w: int) -> int:
        self.clusters()
        return self._cluster_id[w]

    def cluster_mask(self, w: int) -> int:
        self.clusters()
        return self._cluster_masks[self._cluster_id[w]]

    def tangle_rows(self) -> tuple:
        """`(same, inside, down)`, built on the first call: per world u, u's
        cluster mask, its successors inside it, and `succ[u] | same[u]`."""
        if self._tangle_rows is None:
            same = [self.cluster_mask(u) for u in range(self.n)]
            self._tangle_rows = (same, [r & c for r, c in zip(self.succ, same)],
                                 [r | c for r, c in zip(self.succ, same)])
        return self._tangle_rows

    # -- construction helpers --------------------------------------------

    def close(self) -> "KripkeModel":
        return KripkeModel(self.labels, (), _masks=(weak_closure_masks(self.succ), self.val))

    def restrict(self, mask: int) -> "KripkeModel":
        """Submodel induced by the worlds in `mask` (labels preserved)."""
        keep = [w for w in range(self.n) if mask >> w & 1]
        remap = {w: i for i, w in enumerate(keep)}
        succ = []
        for w in keep:
            m = 0
            for b in iter_bits(self.succ[w] & mask):
                m |= 1 << remap[b]
            succ.append(m)
        val = {}
        for name, vm in self.val.items():
            m = 0
            for w in keep:
                if vm >> w & 1:
                    m |= 1 << remap[w]
            val[name] = m
        return KripkeModel([self.labels[w] for w in keep], (), _masks=(succ, val))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        edges = sorted([self.labels[a], self.labels[b]] for a, b in _edges_of(self.succ))
        val = {name: sorted(self.mask_labels(mask))
               for name, mask in sorted(self.val.items()) if mask}
        return {"worlds": list(self.labels), "edges": edges, "val": val}

    @classmethod
    def from_dict(cls, data: Mapping) -> "KripkeModel":
        try:
            labels = data["worlds"]
        except (KeyError, TypeError):
            raise ModelFormatError("model object needs a 'worlds' list") from None
        if not isinstance(labels, list):
            raise ModelFormatError(
                f"'worlds' must be a list of strings, got {type(labels).__name__}")
        for lab in labels:
            if not isinstance(lab, str):
                raise ModelFormatError(f"world label {lab!r} is not a string")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ModelFormatError("duplicate world labels")
        raw_edges = data.get("edges", [])
        if not isinstance(raw_edges, list):
            raise ModelFormatError(
                f"'edges' must be a list of label pairs, got {type(raw_edges).__name__}")
        edges = []
        for pair in raw_edges:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(lab, str) and lab in index for lab in pair)):
                raise ModelFormatError(f"bad edge {pair!r}")
            edges.append((index[pair[0]], index[pair[1]]))
        raw_val = data.get("val") or {}
        if not isinstance(raw_val, dict):
            raise ModelFormatError(
                f"'val' must map propositions to label lists, got {type(raw_val).__name__}")
        val = {}
        for name, worlds in raw_val.items():
            if not isinstance(worlds, list):
                raise ModelFormatError(
                    f"valuation of {name!r} must be a list of labels, got {type(worlds).__name__}")
            ws = []
            for lab in worlds:
                if not isinstance(lab, str) or lab not in index:
                    raise ModelFormatError(f"valuation of {name!r} mentions unknown world {lab!r}")
                ws.append(index[lab])
            val[name] = ws
        model = cls(labels, edges, val)
        if data.get("close"):
            model = model.close()
        return model


def _row_clusters(succ: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """Each world's cluster id, numbered by least world, and each cluster's
    mask.  On a wK4 relation (as `close`, `restrict`, `stack`,
    `disjoint_union`, `realize`, `random_model` and `enumerate_models`
    build; the CLI checks model files) u != v see each other iff their rows
    with own bits set are equal: if they do, u -> w for w outside {u, v}
    gives v -> u -> w, so v -> w, and both rows hold u and v; conversely
    equal such rows give u -> v, v -> u."""
    ids: dict[int, int] = {}
    cid = tuple(ids.setdefault(row | 1 << u, len(ids)) for u, row in enumerate(succ))
    masks = [0] * len(ids)
    for u, i in enumerate(cid):
        masks[i] |= 1 << u
    return cid, masks


def validate_wk4(model: KripkeModel) -> Optional[tuple[int, int, int]]:
    """None if weakly transitive, otherwise the first violating triple:
    a -> b -> c with a != c and no a -> c, least in a, then b, then c."""
    succ = model.succ
    for a, row in enumerate(succ):
        outside = ~(row | 1 << a)
        # b over the row's binary digits, lowest first (cheaper per bit
        # than `iter_bits`)
        for b, digit in enumerate(bin(row)[:1:-1]):
            if digit == "1" and succ[b] & outside:
                missing = succ[b] & outside
                return a, b, (missing & -missing).bit_length() - 1
    return None


def cluster_le(model: KripkeModel, lower: Iterable[int], upper: Iterable[int]) -> str:
    """Order between world sets: STRICT if every upper world is strictly above
    some lower world, else WEAK for the reflexive version, else NONE."""
    lower = list(lower)
    upper = list(upper)
    strict = all(any(model.succ[u] >> v & 1 and not model.succ[v] >> u & 1
                     for u in lower) for v in upper)
    if strict:
        return STRICT
    weak = all(any(u == v or model.succ[u] >> v & 1 for u in lower)
               for v in upper)
    return WEAK if weak else NONE


def _cluster_heights(model: KripkeModel, counted: int) -> list[int]:
    """Per cluster, the longest chain of clusters that meet the world set
    `counted` strictly above it.  The worlds strictly above a cluster are
    its representative's row outside it, and a cluster strictly above
    another has strictly fewer, so in ascending order of that count every
    cluster above one is settled before it.  `levels[h]` holds the worlds
    of the settled clusters that start a chain of h counted clusters, so a
    cluster's height is the highest level its row meets."""
    above = [model.succ[c[0]] & ~model.cluster_mask(c[0]) for c in model.clusters()]
    heights = [0] * len(above)
    levels = [0]
    for i in sorted(range(len(above)), key=lambda i: above[i].bit_count()):
        h = len(levels) - 1
        while h and not levels[h] & above[i]:
            h -= 1
        heights[i] = h
        mask = model._cluster_masks[i]
        h += bool(mask & counted)
        if h == len(levels):
            levels.append(0)
        levels[h] |= mask
    return heights


def depth(model: KripkeModel, worlds: Iterable[int]) -> int:
    """Length of the longest strict cluster chain above the given set."""
    heights = _cluster_heights(model, model.full_mask)
    return max((heights[model.cluster_id(w)] for w in worlds), default=0)


# ---------------------------------------------------------------------------
# stacking and unions


def _merge_labels(parts: Sequence[Sequence[str]]) -> list[str]:
    seen: set[str] = set()
    out = []
    for labels in parts:
        for lab in labels:
            new = lab
            k = 1
            while new in seen:
                new = f"{lab}.{k}"
                k += 1
            seen.add(new)
            out.append(new)
    return out


def disjoint_union(parts: Sequence[KripkeModel]) -> KripkeModel:
    labels = _merge_labels([p.labels for p in parts])
    succ = []
    val: dict[str, int] = {}
    offset = 0
    for p in parts:
        succ.extend(m << offset for m in p.succ)
        for name, mask in p.val.items():
            val[name] = val.get(name, 0) | (mask << offset)
        offset += p.n
    return KripkeModel(labels, (), _masks=(succ, val))


def stack(upper: KripkeModel, lower: KripkeModel) -> KripkeModel:
    """Place `lower` underneath `upper`: every lower world sees every upper
    world, both internal relations and valuations are preserved."""
    labels = _merge_labels([lower.labels, upper.labels])
    up_all = upper.full_mask << lower.n
    succ = [m | up_all for m in lower.succ]
    succ.extend(m << lower.n for m in upper.succ)
    val: dict[str, int] = dict(lower.val)
    for name, mask in upper.val.items():
        val[name] = val.get(name, 0) | (mask << lower.n)
    return KripkeModel(labels, (), _masks=(succ, val))


# ---------------------------------------------------------------------------
# canonical clusters

ABSENT = "absent"
ONE = "one"
SAT = "sat"


@dataclass(frozen=True, order=True)
class CanonicalCluster:
    """A cluster up to bisimulation: per propositional valuation, either one
    irreflexive world or a saturated class (realized as two irreflexive
    worlds, so every smaller multiplicity embeds as a subcluster)."""

    props: tuple[str, ...]
    entries: tuple[tuple[tuple[str, ...], str], ...]

    # The translator's tables look clusters up hundreds of thousands of
    # times, so the hash is computed once (the value a dataclass would give).
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.props, self.entries)))

    def __hash__(self):
        return self._hash

    def multiplicity(self, valuation: Iterable[str]) -> str:
        key = tuple(sorted(valuation))
        for val, mult in self.entries:
            if val == key:
                return mult
        return ABSENT

    def valuations(self) -> list[frozenset[str]]:
        return [frozenset(val) for val, _ in self.entries]

    def realize(self) -> KripkeModel:
        labels = []
        vals: list[tuple[str, ...]] = []
        for i, (val, mult) in enumerate(self.entries):
            copies = 1 if mult == ONE else 2
            for j in range(copies):
                labels.append(f"c{i}" if copies == 1 else f"c{i}{'ab'[j]}")
                vals.append(val)
        n = len(labels)
        edges = [(a, b) for a in range(n) for b in range(n) if a != b]
        valuation = {p: [w for w in range(n) if p in vals[w]] for p in self.props}
        return KripkeModel(labels, edges, valuation)


def enumerate_canonical_clusters(props: Iterable[str], cap: int = 20000) -> list[CanonicalCluster]:
    props = tuple(sorted(props))
    count = 3 ** (2 ** len(props)) - 1
    if count > cap:
        raise ClusterEnumerationError(
            f"{count} canonical clusters over {len(props)} atoms exceeds cap {cap}")
    valuations = [tuple(sorted(c)) for r in range(len(props) + 1)
                  for c in itertools.combinations(props, r)]
    valuations.sort()
    out = []
    for mults in itertools.product((ABSENT, ONE, SAT), repeat=len(valuations)):
        entries = tuple((val, m) for val, m in zip(valuations, mults) if m != ABSENT)
        if entries:
            out.append(CanonicalCluster(props, entries))
    out.sort()
    return out


class ClusterEnumerationError(RuntimeError):
    pass


def canonical_of_cluster(model: KripkeModel, worlds: Iterable[int],
                         props: Iterable[str]) -> CanonicalCluster:
    props = tuple(sorted(props))
    groups: dict[tuple[str, ...], list[int]] = {}
    for w in worlds:
        val = tuple(sorted(p for p in props if model.val_mask(p) >> w & 1))
        groups.setdefault(val, []).append(w)
    entries = []
    for val in sorted(groups):
        ws = groups[val]
        if len(ws) == 1 and not model.succ[ws[0]] >> ws[0] & 1:
            entries.append((val, ONE))
        else:
            entries.append((val, SAT))
    return CanonicalCluster(props, tuple(entries))


# ---------------------------------------------------------------------------
# model generation


def _mask_image(perm: Sequence[int]) -> tuple[int, ...]:
    """Image of every world mask under the world permutation `perm`."""
    n = len(perm)
    return tuple(sum(1 << perm[w] for w in iter_bits(m)) for m in range(1 << n))


# n -> canonical frames on n worlds, each with the mask-image table of every
# non-identity automorphism
_wk4_cache: dict[int, list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]] = {
    0: [((), ())]}


def _wk4_extensions(succ: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every wK4 relation that adds a world w = len(succ) to the wK4 frame
    `succ`: its in-set is closed under predecessors, the old part of its
    out-set under successors, and every world of the in-set sees every old
    world of the out-set but itself.  The self bit of w is free."""
    k = len(succ)
    new = 1 << k
    pred = [sum(1 << b for b in range(k) if succ[b] >> a & 1) for a in range(k)]
    ins = [m for m in range(new) if all(not pred[a] & ~m for a in iter_bits(m))]
    outs = [m for m in range(new) if all(not succ[a] & ~m for a in iter_bits(m))]
    for inn in ins:
        sees = new - 1
        for a in iter_bits(inn):
            sees &= succ[a] | 1 << a
        rows = tuple(s | new if inn >> a & 1 else s for a, s in enumerate(succ))
        for out in outs:
            if not out & ~sees:
                yield rows + (out,)
                yield rows + (out | new,)


def _wk4_canonical(n: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Canonical wK4 relations on n worlds, sorted, each with one mask-image
    table per non-identity automorphism (none for a rigid frame).  Built
    from the wK4 extensions of the (n-1)-world frames: a candidate strikes
    its whole orbit from the rest, and its least image is canonical."""
    if n not in _wk4_cache:
        # row i of a relation's image under perm is table[succ[perm.index(i)]],
        # built for every permutation at once; perms[0] is the identity, and
        # after[q][p] is the index of "q, then p"
        perms = list(itertools.permutations(range(n)))
        index = {perm: i for i, perm in enumerate(perms)}
        after = [[index[tuple(map(p.__getitem__, q))] for p in perms] for q in perms]
        tables = [_mask_image(perm) for perm in perms]
        rows = [[perm.index(i) for perm in perms] for i in range(n)]
        todo = {rel for base, _ in _wk4_canonical(n - 1) for rel in _wk4_extensions(base)}
        found = []
        while todo:
            rel = todo.pop()
            images = list(zip(*[map(operator.getitem, tables, map(rel.__getitem__, row))
                                for row in rows]))
            orbit = set(images)
            todo -= orbit
            succ = min(orbit)
            # p fixes succ = q(rel) exactly when "q, then p" maps rel to succ
            found.append((succ, () if len(orbit) == len(perms) else tuple(
                tables[p] for p, qp in enumerate(after[images.index(succ)])
                if p and images[qp] == succ)))
        _wk4_cache[n] = sorted(found)
    return _wk4_cache[n]


# Bits per packed batch.  A batch spans consecutive frames of one world
# count; a frame whose copies alone are wider makes a batch of its own.
BATCH_BITS = 2048


class ModelBatch:
    """The models `enumerate_models` yields on a run of consecutive frames
    of one world count n, as one disjoint union, built from each frame's
    successor rows and valuation tuples: copy j, counted across the
    frames, holds its model's worlds at bits j*n .. j*n+n-1 of every
    world-set int.  No edge joins two copies, so a world's truth value is
    the one it has in its own model.  Relations are masks of the copies'
    first bits, as rows of pairs `(v, mask)` per world u, zero masks left
    out: `dia_rows` marks the copies whose frame has u -> v; the cluster
    relations only tangle steps read come from `tangle_rows()`, by
    `_row_clusters`.  `results` holds each root's packed value."""

    __slots__ = ("val", "full_mask", "dia_rows", "_firsts", "_tangle_rows", "results")

    def __init__(self, frames: Sequence[tuple[int, ...]], props: Sequence[str],
                 valuations: Sequence[Sequence[tuple[int, ...]]]):
        n = len(frames[0])
        val = [0] * len(props)
        succ = [[0] * n for _ in range(n)]
        firsts = []
        offset = 0
        for rows, vals in zip(frames, valuations):
            # pack the frame's copies on small ints, then shift them into place
            width = len(vals) * n
            for i, column in enumerate(zip(*vals)):
                val[i] |= sum(map(operator.lshift, column, range(0, width, n))) << offset
            # (2**(c*n) - 1) / (2**n - 1) is the sum of 2**(j*n) for j < c
            first = ((1 << width) - 1) // ((1 << n) - 1) << offset
            firsts.append((rows, first))
            for u, row in enumerate(rows):
                for v in iter_bits(row):
                    succ[u][v] |= first
            offset += width
        self.val = dict(zip(props, val))
        self.full_mask = (1 << offset) - 1
        self.dia_rows = _rows(succ)
        self._firsts = firsts
        self._tangle_rows = None
        self.results: dict = {}

    def tangle_rows(self) -> tuple:
        """`(cluster_rows, inside_rows, down_rows)`, built on the first
        call: the rows that mark the copies where u and v share a cluster,
        where they share one and u -> v, and where either holds."""
        if self._tangle_rows is None:
            n = len(self.dia_rows)
            same = [[0] * n for _ in range(n)]
            for rows, first in self._firsts:
                cid, masks = _row_clusters(rows)
                for u, i in enumerate(cid):
                    for v in iter_bits(masks[i]):
                        same[u][v] |= first
            succ = [[row.get(v, 0) for v in range(n)] for row in map(dict, self.dia_rows)]
            self._tangle_rows = tuple(map(_rows, (
                same, [[r & c for r, c in zip(*rows)] for rows in zip(succ, same)],
                [[r | c for r, c in zip(*rows)] for rows in zip(succ, same)])))
        return self._tangle_rows


def _rows(table: Sequence[Sequence[int]]) -> tuple:
    """An n x n table of masks as rows of its nonzero `(v, mask)` pairs."""
    return tuple(tuple((v, m) for v, m in enumerate(row) if m) for row in table)


# The most worlds `enumerate_models` enumerates (see the module docstring).
MAX_WORLDS = 5


def enumerate_models(props: Iterable[str], max_worlds: int) -> Iterator[KripkeModel]:
    """All weakly transitive models with 1..max_worlds worlds over the given
    atoms, up to isomorphism.  Deterministic order: frames by canonical
    relation, then valuations as the least tuple of their orbit.  Each
    model keeps the `ModelBatch` of its run of consecutive frames in
    `_batch`, built before the run's first model is yielded, and the offset
    of its copy there in `_shift`.  They are filled in without
    `KripkeModel.__init__`'s checks and copies, and a frame's valuation
    tuples are freed once its models are yielded."""
    props = tuple(sorted(props))
    if max_worlds > MAX_WORLDS:
        raise ClusterEnumerationError(
            f"exhaustive enumeration capped at {MAX_WORLDS} worlds")
    new = object.__new__
    for n in range(1, max_worlds + 1):
        labels = tuple(str(i) for i in range(n))
        full = (1 << n) - 1
        for group in _frame_runs(n, len(props)):
            batch = ModelBatch([succ for succ, _ in group], props, [vals for _, vals in group])
            shift = 0
            for i, (succ, valuations) in enumerate(group):
                group[i] = None
                for masks in valuations:
                    model = new(KripkeModel)
                    model.labels = labels
                    model.n = n
                    model.succ = succ
                    model.val = dict(zip(props, masks))
                    model.full_mask = full
                    model._batch = batch
                    model._shift = shift
                    shift += n
                    yield model


def _frame_runs(n: int, atoms: int) -> Iterator[list]:
    """The canonical n-world frames with their valuation tuples, in order,
    cut into runs of at most `BATCH_BITS` bits of copies (or one frame)."""
    run, width = [], 0
    for succ, tables in _wk4_canonical(n):
        valuations = _orbit_leaders(n, atoms, tables)
        if run and width + len(valuations) * n > BATCH_BITS:
            yield run
            run, width = [], 0
        run.append((succ, valuations))
        width += len(valuations) * n
    if run:
        yield run


def _orbit_leaders(n: int, atoms: int,
                   tables: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The valuation tuples (one world mask per atom) that are the least of
    their orbit under the automorphisms whose mask-image `tables` are
    given, in tuple order: a walk over the tuples in that order, one atom
    at a time, carrying the tables that fix the prefix.  A value x that a
    carried table maps below x is skipped, since the table maps every
    tuple through it lower; a table that maps x above x maps them all
    higher and is dropped; one that fixes x is carried on.  Once none is
    carried, every completion of the prefix is a leader."""
    values = range(1 << n)

    def walk(prefix: tuple, live: Sequence, left: int) -> list:
        if not live or not left:
            return [prefix + rest for rest in itertools.product(values, repeat=left)]
        lows = zip(values, map(min, zip(*live)))  # x and its least image
        if left == 1:
            return [prefix + (x,) for x, low in lows if low >= x]
        return [masks for x, low in lows if low >= x for masks in
                walk(prefix + (x,), [t for t in live if t[x] == x], left - 1)]

    return walk((), tables, atoms)


def _edges_of(succ: Sequence[int]) -> list[tuple[int, int]]:
    return [(a, b) for a in range(len(succ)) for b in iter_bits(succ[a])]


def random_model(props: Iterable[str], size: int, seed: int) -> KripkeModel:
    """Seed-deterministic random weakly transitive model (closure applied)."""
    rng = random.Random(seed)
    props = tuple(sorted(props))
    density = rng.uniform(0.08, 0.45)
    succ = [0] * size
    for a in range(size):
        for b in range(size):
            if rng.random() < density:
                succ[a] |= 1 << b
    succ = weak_closure_masks(succ)
    val = {p: [w for w in range(size) if rng.random() < 0.5] for p in props}
    return KripkeModel([str(i) for i in range(size)], _edges_of(succ), val)
