"""Translation of mu-calculus formulas into the tangle language.

The construction works over a closure set Sigma.  A *pair* summarizes a
rooted semifinal model by its root cluster (up to bisimulation) and the set
of depth facts visible strictly above the root; pairs are enumerated bottom
up by stacking a canonical cluster under disjoint unions of already-realized
witnesses, so every pair carries a recipe for a concrete witness model.
*Chains* are strictly descending sequences of pairs subject to a
non-collapse condition, and the structural formulas built over them pin
down, inside the tangle language, which pairs and chains sit above a world.
The characteristic formula of a member is a disjunction over all root
situations in which it holds.

Scaling notes, all semantically transparent:

- Closure members are used up to identity of their closed forms, with a
  fixed point further identified with its unfolding; facts of identified
  members coincide in every model, so tables and formulas only shrink.
- Root truths of a pair are computed on the realized root cluster alone,
  with the member floors run as one program through the shared mu-calculus
  evaluator, instead of model-checking the assembled witness; the witness
  itself stays available as a recipe (`materialize_witness`) and
  `verify_pair` replays the summary computation against it.  What lies
  above the root enters through the *sky*: two bits per program place of
  a member floor or of a dia/box argument in that program, bit 2i "true
  somewhere" and bit 2i+1 "false somewhere".  A diamond whose argument is true somewhere
  above holds on the whole cluster, a box whose argument is false somewhere
  above holds nowhere; otherwise they act inside the cluster.  An open
  argument has one place per binding, and its values after the run are the
  values at the fixed points, so no closed instance is ever built.
- Every translator memo goes through one rule, `_memoised`: a method's
  results are kept per translator, keyed by its argument, or by its
  argument tuple when it takes several, so its body runs once per key.
  The block evaluation reads only the cluster and the sky above, so it is
  memoised per `(cluster, sky_above)` and shared by every cell with the
  same input (on `nu x.(p & <> x)`, 24,480 cells have 224 distinct inputs).
- Only final pairs are built and stored; a cell's finality is read from
  the block memo first.  The cells of a depth are its candidate fact
  profiles (`cells[d]`, with a shrunk recipe each) times the clusters;
  chain extension counts the semi-final ones, and the pairs guard counts
  cells up front.  `eval_triples` reads the semi-final cells from the
  block memo once per sky, since cells with one sky have the same truths,
  and lists each root situation once, so `characteristic` builds one
  conjunction per distinct situation (5,050 on the six corpus formulas,
  where a listing per cell and cluster has 27,736).
- A fact set is an int: the fact "member i holds at depth d" is bit
  `d * M + i`, with M the number of distinct members and i the member's
  index in `members`.  Root truths are int masks over member indices.
  Unions, subset tests, level slices and the top level are int operations,
  and the pair tables are keyed by `(cluster, int)`.  Where output order
  depends on fact sets, they are sorted by the ascending tuple of their
  bit positions, which is the sorted `(depth, index)` order; that key is
  memoised per fact set.
- Stacking a canonical cluster under another collapses, up to
  bisimulation, exactly when the upper one saturates every valuation of
  the lower one (`sem.stack_collapses`), so no model is built to decide it.
- `format_tangle_dag` (from `formulas`) prints every node once, in one
  pass over the DAG's post-order, and names a node with two or more
  parents if it has at least three distinct nodes, which its children
  tell without a walk; so printing stays linear in the DAG.
- Semi-rooted chains are not materialized one by one: their contribution to
  the split formula is grouped per (prefix chain, root cluster), with the
  disjunction over root-fact sets collapsed through the fact formulas, which
  are constant on clusters.  Same-prefix sibling chains and the
  disjunction of each sibling group are memoised per parent chain.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterable, Optional

from . import formulas as fm
from . import semantics as sem
# `format_tangle_dag` is re-exported: the CLI and perfbench import it from here
from .formulas import MuFormula, TangleFormula, format_tangle_dag
from .models import (ONE, SAT, CanonicalCluster, KripkeModel, disjoint_union,
                     enumerate_canonical_clusters, iter_bits, stack)

CHAIN_STRICT = "strict"
CHAIN_REFL = "refl"
CHAIN_NONE = "none"


class TranslationGuardError(RuntimeError):
    """`growth`: the `report()` pairs and lattice sizes before the failure."""

    def __init__(self, table: str, detail: str, growth: dict):
        super().__init__(f"{table} guard exceeded: {detail}")
        self.table = table
        self.growth = growth


class TranslationGuards:
    """Table limits; each must be at least 0, and a negative one raises
    ValueError here, before anything is built."""

    def __init__(self, max_depth: int = 16, max_pairs: int = 30000,
                 max_thetas: int = 30000, max_chains: int = 30000,
                 max_witness_worlds: int = 200000):
        self.max_depth = max_depth
        self.max_pairs = max_pairs
        self.max_thetas = max_thetas
        self.max_chains = max_chains
        self.max_witness_worlds = max_witness_worlds
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")


class SatPair:
    """Canonical root cluster plus the depth facts strictly above it.

    `theta` and `theta_c` are fact sets as ints (see the module notes);
    `truths` holds, per root valuation class, the mask of the member
    indices true there; `sky` tells, per sky key, whether it is true
    somewhere and whether it is false somewhere in the whole witness;
    `components` is the witness recipe."""

    __slots__ = ("cluster", "theta", "depth", "components", "final", "truths",
                 "theta_c", "sky", "_witness")

    def __init__(self, cluster, theta, depth, components, final, truths,
                 theta_c, sky):
        self.cluster = cluster
        self.theta = theta
        self.depth = depth
        self.components = components
        self.final = final
        self.truths = truths
        self.theta_c = theta_c
        self.sky = sky
        self._witness = None

    def satisfied_somewhere(self, index: int) -> bool:
        """Does the member with this index hold in some root class?"""
        return any(tr >> index & 1 for tr in self.truths.values())

    def __repr__(self):
        kind = "sat" if self.final else "semi"
        return f"SatPair(depth={self.depth}, {kind}, |theta|={self.theta.bit_count()})"


class Chain:
    """Witnessing chain: a satisfaction pair extending a shorter chain
    (parent is None for depth 0).  Index i sits at depth i; the root is the
    deepest pair."""

    __slots__ = ("parent", "root", "depth")

    def __init__(self, parent: Optional["Chain"], root: SatPair):
        self.parent = parent
        self.root = root
        self.depth = 0 if parent is None else parent.depth + 1

    def pairs(self) -> tuple[SatPair, ...]:
        out = []
        c: Optional[Chain] = self
        while c is not None:
            out.append(c.root)
            c = c.parent
        return tuple(reversed(out))

    def __repr__(self):
        return f"Chain(depth={self.depth})"


def _memoised(method):
    """Keep a translator method's results in the translator's `_memos`,
    keyed by the argument itself, or by the argument tuple when the method
    takes several, so the body runs once per distinct key and translator."""
    name = method.__name__

    @functools.wraps(method)
    def memoised(self, *args):
        memo = self._memos[name]
        key = args[0] if len(args) == 1 else args
        if key not in memo:
            memo[key] = method(self, *args)
        return memo[key]
    return memoised


class Translator:
    """Pair and chain tables for one closure, plus the structural formulas."""

    @fm.pauses_collector
    def __init__(self, sigma: fm.SigmaClosure,
                 guards: Optional[TranslationGuards] = None):
        self.sigma = sigma
        self.guards = guards or TranslationGuards()
        self.atoms = tuple(sorted(sigma.atoms))
        self.clusters = enumerate_canonical_clusters(self.atoms)
        self.rep_of, self.members = self._dedupe_members()
        self._member_index = {m: i for i, m in enumerate(self.members)}
        self._width = len(self.members)
        self._program = sem.compile_roots([sigma.floors[m] for m in self.members])
        self._sky_bit = self._sky_index()
        self.cells: list[dict[int, tuple[SatPair, ...]]] = []
        self.pairs: list[dict[tuple, SatPair]] = []
        self.chains: list[list[Chain]] = []
        self._semi_split: list[list[TangleFormula]] = []
        self._semi_counts: list[int] = []
        self._lattice: list[dict[int, tuple[SatPair, ...]]] = []
        self._memos: defaultdict[str, dict] = defaultdict(dict)  # see `_memoised`
        self._built = False

    # -- member identification ------------------------------------------------

    def _dedupe_members(self) -> tuple[dict[MuFormula, MuFormula], tuple[MuFormula, ...]]:
        """Identify members whose closed forms coincide, also identifying a
        fixed point with its one-step unfolding (valid on every model).
        Identification respects the reflexive-modal prefix and negation."""
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra is not rb:
                parent[ra] = rb

        cores = set()
        for m in self.sigma:
            word, core = fm.split_prefix(self.sigma.floors[m])
            cores.add(core)
            cores.add(fm.negate(core))
        for core in list(cores):
            if core.kind in (fm.MU, fm.NU):
                unfolded = fm.unfold_fixpoint(core)
                if unfolded in cores:
                    union(unfolded, core)
                    union(fm.negate(unfolded), fm.negate(core))
        # rebuild each member's identity from (prefix word, core class)
        keyed: dict[tuple, list[MuFormula]] = {}
        for m in self.sigma:
            word, core = fm.split_prefix(self.sigma.floors[m])
            keyed.setdefault((word, find(core)), []).append(m)
        # sigma iterates by (size, text), texts being unique, so each
        # group's first member is its least, and the groups come in order
        rep_of = {g: group[0] for group in keyed.values() for g in group}
        return rep_of, tuple(group[0] for group in keyed.values())

    # -- the sky --------------------------------------------------------------

    def _sky_index(self) -> dict:
        """Bit position 2i of each place the root block reads from above:
        each member floor's and each dia/box argument's place in the floors'
        program.  Bit 2i means "true somewhere", bit 2i+1 "false somewhere"."""
        places = dict.fromkeys(self._program.roots)
        bodies = [self._program.code]
        while bodies:
            for op, _, a, _ in bodies.pop():
                if op in (sem._DIA, sem._BOX):
                    places.setdefault(a)
                elif op in (sem._MU, sem._NU):
                    bodies.append(a)
        return {place: 2 * i for i, place in enumerate(places)}

    # -- table construction ----------------------------------------------------

    @fm.pauses_collector
    def build(self) -> "Translator":
        if self._built:
            return self
        self._build_depth(0)
        d = 0
        while self.pairs[d] and self.chains[d]:
            if d + 1 > min(self.guards.max_depth, len(self.members) + 1):
                raise self._guard_error("depth", f"tables still growing at depth {d + 1}")
            self._build_depth(d + 1)
            d += 1
        self._built = True
        return self

    def _guard_error(self, table: str, detail: str) -> TranslationGuardError:
        return TranslationGuardError(table, detail, self._growth())

    def _growth(self) -> dict:
        """Per-depth [final, semi] cell counts and lattice sizes so far."""
        n = len(self.clusters)
        return {"pairs": [[len(t), len(c) * n - len(t)]
                          for t, c in zip(self.pairs, self.cells)],
                "lattice": [len(lattice) for lattice in self._lattice]}

    @_memoised
    def _theta_key(self, theta: int) -> tuple:
        return tuple(iter_bits(theta))

    def _build_depth(self, d: int) -> None:
        """Candidate fact profiles of depth d, in `_theta_key` order, each
        with a shrunk recipe; then the final pairs among their cells."""
        lattice = self._extend_lattice() if d else {0: ()}
        floor = (d - 1) * self._width
        thetas = sorted((theta for theta in lattice if theta.bit_length() > floor),
                        key=self._theta_key)
        n = len(thetas) * len(self.clusters)
        if n > self.guards.max_pairs:
            raise self._guard_error(
                "pairs", f"{n} pairs at depth {d}, more than {self.guards.max_pairs}")
        self.cells.append({theta: self._shrink_recipe(theta, lattice[theta])
                           for theta in thetas})
        finals: dict[int, list[CanonicalCluster]] = {}  # per sky above
        table = {}
        for theta, recipe, sky in self._profiles(d):
            if sky not in finals:
                finals[sky] = [c for c in self.clusters if self._root_block(c, sky)[1]]
            for cluster in finals[sky]:
                table[cluster, theta] = self._make_pair(cluster, theta, d, recipe, sky)
        self.pairs.append(table)
        self._build_chains(d)

    def _profiles(self, d: int) -> Iterable[tuple[int, tuple[SatPair, ...], int]]:
        """`(theta, recipe, sky above)` of each candidate profile of depth d."""
        for theta, recipe in self.cells[d].items():
            sky = 0
            for p in recipe:
                sky |= p.sky
            yield theta, recipe, sky

    def cell_pairs(self, d: int) -> Iterable[SatPair]:
        """The pair of every cell of depth d, final or not, in table order;
        only the final ones are stored."""
        for theta, recipe, sky in self._profiles(d):
            for cluster in self.clusters:
                yield self._make_pair(cluster, theta, d, recipe, sky)

    def _build_chains(self, d: int) -> None:
        """Chains of depth d.  The options extending a parent are the cells
        whose facts contain the parent's augmented facts `base`, so per
        cluster the final ones are the final pairs containing `base`, and
        the rest are semi-final."""
        chains: list[Chain] = []
        semi_split: list[TangleFormula] = []
        semi_count = 0
        table = self.pairs[d]
        if d == 0:
            chains = [Chain(None, pair) for pair in table.values()]
        else:
            by_cluster: dict[CanonicalCluster, list[SatPair]] = {}
            for pair in table.values():
                by_cluster.setdefault(pair.cluster, []).append(pair)
            for parent in self.chains[d - 1]:
                base = parent.root.theta_c
                count = self._option_count(base)
                for cluster in self.clusters:
                    collapse = self._collapses(parent.root.cluster, cluster)
                    finals: list[int] = []
                    for pair in by_cluster.get(cluster, ()):
                        theta = pair.theta
                        if base & ~theta or (collapse and theta == base):
                            continue
                        finals.append(theta)
                        if len(chains) >= self.guards.max_chains:
                            raise self._guard_error("chains", (
                                f"more than {self.guards.max_chains} chains at depth {d}"))
                        chains.append(Chain(parent, pair))
                    semis = count - len(finals) - collapse
                    base_semi = not collapse and (cluster, base) not in table
                    semi_count += semis
                    semi_split.extend(self._semi_alphas(
                        parent, cluster, base, semis, base_semi, finals, collapse))
        self.chains.append(chains)
        self._semi_split.append(semi_split)
        self._semi_counts.append(semi_count)

    @_memoised
    def _option_count(self, base: int) -> int:
        """The cells extending a parent with augmented facts `base`, in the
        depth being built; `base` has bits at the parent's depth, so it
        fixes that depth."""
        options = {base}
        options.update(base | extra for extra in self._lattice[-1])
        assert options.issubset(self.cells[-1]), "chain extension escaped the pair table"
        return len(options)

    def _extend_lattice(self) -> dict[int, tuple[SatPair, ...]]:
        """The next lattice level: the closure under union of the fact
        profiles of all final pairs so far, each with a generating recipe."""
        lattice = dict(self._lattice[-1]) if self._lattice else {}
        singles: dict[int, SatPair] = {}
        for table in self.pairs:
            for pair in table.values():
                singles.setdefault(pair.theta_c, pair)
        for theta_c, pair in singles.items():
            lattice.setdefault(theta_c, (pair,))
        queue = sorted(lattice, key=self._theta_key)
        while queue:
            theta = queue.pop()
            for pair in singles.values():
                if pair.theta_c & ~theta == 0:
                    continue
                union = theta | pair.theta_c
                if union not in lattice:
                    if len(lattice) >= self.guards.max_thetas:
                        raise self._guard_error(
                            "thetas", f"fact-profile lattice beyond {self.guards.max_thetas}")
                    lattice[union] = lattice[theta] + (pair,)
                    queue.append(union)
        self._lattice.append(lattice)
        return lattice

    def _shrink_recipe(self, theta: int,
                       recipe: tuple[SatPair, ...]) -> tuple[SatPair, ...]:
        ordered = sorted(recipe, key=lambda p: (-p.theta_c.bit_count(),
                                                self._theta_key(p.theta_c)))
        kept: list[SatPair] = []
        acc = 0
        for p in ordered:
            if p.theta_c & ~acc:
                kept.append(p)
                acc |= p.theta_c
        assert acc == theta
        return tuple(kept)

    def _make_pair(self, cluster: CanonicalCluster, theta: int, depth: int,
                   recipe: tuple[SatPair, ...], sky_above: int) -> SatPair:
        truths, is_final, sky = self._root_block(cluster, sky_above)
        theta_c = theta
        if is_final:
            for tr in truths.values():
                theta_c |= tr << depth * self._width
        return SatPair(cluster, theta, depth, recipe, is_final, truths,
                       theta_c, sky)

    @_memoised
    def _root_block(self, cluster: CanonicalCluster,
                    sky_above: int) -> tuple[dict, bool, int]:
        """Root truths per valuation class, cluster-wide finality and the
        sky of `cluster` stacked under facts `sky_above`.  They depend on
        nothing else, so each distinct input is evaluated once."""
        bit = self._sky_bit

        def dia(model: KripkeModel, s: int, key, memo: dict) -> int:
            if sky_above >> bit[key] & 1:
                return model.full_mask
            return sem.dia_image(model.succ, s)

        def box(model: KripkeModel, s: int, key, memo: dict) -> int:
            if sky_above >> bit[key] & 2:
                return 0
            return sem.box_image(model.succ, s)

        # dia and box store nothing in the run's memos, so that every modal
        # step reaches the sky
        block = cluster.realize()
        program = self._program
        values = sem.run_program(block, program, dia, box)
        sky = sky_above
        for place, i in bit.items():
            x = values[place]
            if x:
                sky |= 1 << i
            if x != block.full_mask:
                sky |= 2 << i
        # per member index: its truth mask on the block, and whether it is
        # true somewhere above
        masks = [values[i] for i in program.roots]
        above = sum(1 << i for i, place in enumerate(program.roots)
                    if sky_above >> bit[place] & 1)
        truths = {}
        w = 0
        final_classes = set()
        for val, mult in cluster.entries:
            rep_bits = sum(1 << i for i, mask in enumerate(masks) if mask >> w & 1)
            if mult == SAT:
                twin = sum(1 << i for i, mask in enumerate(masks) if mask >> (w + 1) & 1)
                assert twin == rep_bits, "bisimilar copies disagree"
            truths[frozenset(val)] = rep_bits
            if rep_bits & ~above:
                final_classes.add(frozenset(val))
            w += 1 if mult == ONE else 2
        assert len(final_classes) in (0, len(cluster.entries)), \
            "finality must be cluster-wide"
        return truths, len(final_classes) == len(cluster.entries), sky

    @_memoised
    def _collapses(self, upper: CanonicalCluster, lower: CanonicalCluster) -> bool:
        """Does stacking `lower` underneath `upper` collapse, up to
        bisimulation, to `upper` alone?"""
        return sem.stack_collapses(upper, lower)

    # -- witness materialization (verification hook) ---------------------------

    def materialize_witness(self, pair: SatPair) -> KripkeModel:
        """Concrete model realizing the pair: its cluster stacked underneath
        the disjoint union of the component witnesses."""
        if pair._witness is None:
            parts = [self.materialize_witness(p) for p in pair.components]
            n = pair.cluster.worlds() + sum(part.n for part in parts)
            if n > self.guards.max_witness_worlds:
                raise self._guard_error("witness", f"witness model with {n} worlds")
            rooted = pair.cluster.realize()
            pair._witness = stack(disjoint_union(parts), rooted) if parts else rooted
        return pair._witness

    def verify_pair(self, pair: SatPair) -> None:
        """Model-check the materialized witness and compare every piece of
        summary data the pair carries; raises AssertionError on mismatch."""
        witness = self.materialize_witness(pair)
        cache: dict = {}  # the members' truths, for the depths and below
        depths, final = sem.sigma_world_depths(witness, self.sigma, cache)
        root_mask = (1 << pair.cluster.worlds()) - 1
        assert depths[0] == pair.depth, "witness depth mismatch"
        root_final = final & root_mask
        assert root_final in (0, root_mask), "finality must be cluster-wide"
        assert (root_final == root_mask) == pair.final, "finality mismatch"
        truths = sem.sigma_truth_masks(witness, self.sigma, cache)
        masks = [truths[m] for m in self.members]
        facts = 0
        for i, mask in enumerate(masks):
            for v in iter_bits(final & mask):
                if depths[v] < pair.depth:
                    facts |= 1 << depths[v] * self._width + i
        assert facts == pair.theta, "fact profile mismatch"
        w = 0
        for val, mult in pair.cluster.entries:
            got = sum(1 << i for i, mask in enumerate(masks) if mask >> w & 1)
            assert got == pair.truths[frozenset(val)], "root truth mismatch"
            w += 1 if mult == ONE else 2

    # -- chain orders -----------------------------------------------------------

    @_memoised
    def _embeds(self, c: CanonicalCluster, d: CanonicalCluster) -> str:
        return sem.cluster_embeds(c, d)

    def chain_order(self, c1: Chain, c2: Chain) -> str:
        """CHAIN_STRICT when c1's root cluster strictly embeds into c2's with
        equal prefixes and facts; CHAIN_REFL when the chains coincide."""
        if c1.depth != c2.depth or c1.parent is not c2.parent:
            return CHAIN_NONE
        if c1.root.theta != c2.root.theta:
            return CHAIN_NONE
        emb = self._embeds(c1.root.cluster, c2.root.cluster)
        if emb == sem.EMBED_STRICT:
            return CHAIN_STRICT
        if emb == sem.EMBED_BISIMILAR:
            return CHAIN_REFL
        return CHAIN_NONE

    # -- structural formulas -----------------------------------------------------

    @_memoised
    def tau_formula(self, valuation: frozenset) -> TangleFormula:
        return fm.t_big_and([fm.t_prop(p) if p in valuation else fm.t_not(fm.t_prop(p))
                             for p in self.atoms])

    @_memoised
    def _level_slice(self, m: int, present: int) -> TangleFormula:
        parts = []
        for i, member in enumerate(self.members):
            f = self.depth_formula(m, member)
            parts.append(f if present >> i & 1 else fm.t_not(f))
        return fm.t_big_and(parts)

    @_memoised
    def a_formula(self, theta: int) -> TangleFormula:
        """Exact fact profile up to theta's own root depth: positives from
        theta, negations for everything else at those levels (empty set: T)."""
        width = self._width
        level = (1 << width) - 1
        top = (theta.bit_length() - 1) // width
        return fm.t_big_and([self._level_slice(m, theta >> m * width & level)
                             for m in range(top + 1)])

    def ir_flag(self, chain: Chain) -> bool:
        """The root pair collapses into its predecessor's augmented pair and
        the root cluster has a uniquely-valued irreflexive point."""
        if chain.depth == 0:
            return False
        return self._ir_parts(chain.parent, chain.root.cluster, chain.root.theta)

    def _ir_parts(self, parent: Chain, cluster: CanonicalCluster,
                  theta: int) -> bool:
        if theta != parent.root.theta_c:
            return False
        if self._embeds(cluster, parent.root.cluster) == sem.EMBED_NO:
            return False
        return any(mult == ONE for _, mult in cluster.entries)

    @_memoised
    def _tau_chain_shape(self, valuation: frozenset, facts: TangleFormula,
                         parent: Optional[Chain], ir: bool) -> TangleFormula:
        parts = [self.tau_formula(valuation), facts]
        if parent is not None:
            inner = self.delta_formula(parent)
            if ir:
                inner = fm.t_big_and([self.tau_formula(valuation), inner])
            parts.append(fm.t_dia(inner))
        return fm.t_big_and(parts)

    def _alpha_shape(self, cluster: CanonicalCluster, facts: TangleFormula,
                     parent: Optional[Chain], ir: bool) -> TangleFormula:
        ms = []
        for val, mult in cluster.entries:
            t = self._tau_chain_shape(frozenset(val), facts, parent, ir)
            ms.extend((t, t) if mult == SAT else (t,))
        return fm.t_tangle(ms)

    @_memoised
    def alpha_formula(self, chain: Chain) -> TangleFormula:
        return self._alpha_shape(chain.root.cluster, self.a_formula(chain.root.theta),
                                 chain.parent, self.ir_flag(chain))

    def _semi_alphas(self, parent: Chain, cluster: CanonicalCluster,
                     base: int, semis: int, base_semi: bool,
                     finals: list[int], collapse: bool) -> list[TangleFormula]:
        """Contribution of the `semis` semi-rooted chains extending `parent`
        with `cluster` (`base_semi`: one of them has the base fact set;
        `finals`: the fact sets of the final ones): one merged alpha
        covering all their fact sets at once, plus a separate alpha for the
        collapse-flagged base fact set.

        The merged fact description replaces the disjunction over the
        admissible sets T by: the base facts are visible, and the exact
        profile is none of the final-classified or excluded ones.  On any
        world where the surrounding depth guards hold, the actual profile of
        a cluster is one of the enumerated candidates, so the two readings
        agree everywhere the formula is used."""
        if not semis:
            return []
        out = []
        ir_base = (not collapse) and self._ir_parts(parent, cluster, base)
        if semis > (ir_base and base_semi):
            excluded = finals + [base] if collapse or ir_base else finals
            facts = self._semi_facts(base, tuple(excluded))
            out.append(self._alpha_shape(cluster, facts, parent, False))
        if ir_base and base_semi:
            out.append(self._alpha_shape(cluster, self.a_formula(base),
                                         parent, True))
        return out

    @_memoised
    def _semi_facts(self, base: int, excluded: tuple[int, ...]) -> TangleFormula:
        """The merged fact description: the base facts are visible, and the
        exact profile is none of `excluded`.  Many (parent, cluster) cells
        share one."""
        width = self._width
        parts = [self.depth_formula(b // width, self.members[b % width])
                 for b in iter_bits(base)]
        parts.extend(fm.t_not(self.a_formula(t))
                     for t in sorted(set(excluded), key=self._theta_key))
        return fm.t_big_and(parts)

    @_memoised
    def _siblings(self, parent: Optional[Chain], depth: int) -> dict[int, list[Chain]]:
        """Chains of `depth` extending `parent`, grouped by root facts.  The
        chain orders relate prefix-equal chains only, so the alternatives the
        guard formulas quantify over all live here."""
        out: dict[int, list[Chain]] = {}
        for c in self.chains[depth]:
            if c.parent is parent:
                out.setdefault(c.root.theta, []).append(c)
        return out

    @_memoised
    def _group_or(self, parent: Optional[Chain], depth: int, theta: int) -> TangleFormula:
        return fm.t_big_or([self.alpha_formula(c)
                            for c in self._siblings(parent, depth)[theta]])

    def beta_formula(self, chain: Chain) -> TangleFormula:
        lowers = [self.alpha_formula(c)
                  for c in self._siblings(chain.parent, chain.depth).get(chain.root.theta, ())
                  if self.chain_order(c, chain) == CHAIN_STRICT]
        return fm.t_box(fm.t_implies(fm.t_big_or(lowers),
                                     self.alpha_formula(chain)))

    def gamma_formula(self, chain: Chain) -> TangleFormula:
        # grouped disjunction (associative regrouping only): whole same-prefix
        # groups with other facts, plus the incomparable part of the own group
        parts = []
        for theta, group in self._siblings(chain.parent, chain.depth).items():
            if theta == chain.root.theta:
                parts.extend(self.alpha_formula(c) for c in group
                             if self.chain_order(c, chain) == CHAIN_NONE)
            else:
                parts.append(self._group_or(chain.parent, chain.depth, theta))
        return fm.t_not(fm.t_big_or(parts))

    @_memoised
    def delta_formula(self, chain: Chain) -> TangleFormula:
        return fm.t_big_and([self.alpha_formula(chain), self.beta_formula(chain),
                             self.gamma_formula(chain)])

    def depth_formula(self, n: int, member: Optional[MuFormula] = None) -> TangleFormula:
        """The depth-n observation: some witnessing chain of depth n sits
        above, rooted where `member` holds (None means T: any root)."""
        return self._depth_formula(n, None if member is None else self.rep_of[member])

    @_memoised
    def _depth_formula(self, n: int, member: Optional[MuFormula]) -> TangleFormula:
        supp = self.chains[n] if 0 <= n < len(self.chains) else []
        if member is not None:
            i = self._member_index[member]
            supp = [c for c in supp if c.root.satisfied_somewhere(i)]
        return fm.t_big_or([fm.t_dot_dia(self.delta_formula(c)) for c in supp])

    @_memoised
    def split_formula(self, n: int) -> TangleFormula:
        """Two distinct depth-n root situations visible at once, or a
        semi-rooted depth-(n+1) situation; detects non-finality at level n."""
        parts = []
        chains = self.chains[n] if 0 <= n < len(self.chains) else []
        by_pair: dict[SatPair, list[Chain]] = {}  # pairs hash by identity
        for c in chains:
            by_pair.setdefault(c.root, []).append(c)
        # distributed over the root pairs (boolean regrouping only)
        groups = [fm.t_big_or([fm.t_dot_dia(self.delta_formula(c)) for c in cs])
                  for cs in by_pair.values()]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                parts.append(fm.t_big_and([groups[i], groups[j]]))
        if 0 <= n + 1 < len(self._semi_split):
            parts.extend(self._semi_split[n + 1])
        return fm.t_big_or(parts)

    # -- the characteristic formula ----------------------------------------------

    def eval_triples(self, phi: MuFormula) -> list[tuple[frozenset, Optional[Chain], int]]:
        """All root situations satisfying phi, each once, in first-occurrence
        order: (root valuation, witnessing chain or None, visible facts).  A
        chain means the root is final in some witness; None means it is not,
        and the facts then carry the whole profile."""
        self.build()
        i = self._member_index[self.rep_of[self.sigma.member_of(phi)]]
        triples: dict[tuple, None] = {}
        for level in self.chains:
            for c in level:
                for val, tr in c.root.truths.items():
                    if tr >> i & 1:
                        triples[val, c, c.root.theta] = None
        # the semi-final cells, read from the block memo; cells with one sky
        # share their truths, so the valuations where phi holds in a
        # non-final cluster are listed once per sky
        holds: dict[int, list[frozenset]] = {}
        for d in range(1, len(self.cells)):
            for theta, _, sky in self._profiles(d):
                vals = holds.get(sky)
                if vals is None:
                    found: dict[frozenset, None] = {}
                    for cluster in self.clusters:
                        truths, is_final, _ = self._root_block(cluster, sky)
                        if not is_final:
                            found.update((val, None) for val, tr in truths.items()
                                         if tr >> i & 1)
                    vals = holds[sky] = list(found)
                for val in vals:
                    triples[val, None, theta] = None
        return list(triples)

    @fm.pauses_collector
    def characteristic(self, phi: MuFormula) -> TangleFormula:
        """Tangle formula equivalent to phi over all finite weakly transitive
        models; phi must belong to the closure (the seed always does)."""
        parts = []
        for val, chain, theta in self.eval_triples(phi):
            n = chain.depth if chain else (theta.bit_length() - 1) // self._width
            split = self.split_formula(n)
            parts.append(fm.t_big_and([
                self.depth_formula(n),
                fm.t_not(self.depth_formula(n + 1)),
                fm.t_not(split) if chain else split,
                self.tau_formula(val),
                fm.t_dot_dia(self.delta_formula(chain)) if chain else self.a_formula(theta),
            ]))
        return fm.t_big_or(parts)

    # -- reporting ------------------------------------------------------------------

    @fm.pauses_collector
    def report(self, chi: Optional[TangleFormula] = None) -> dict:
        out = {
            "sigma_size": len(self.sigma),
            "distinct_members": len(self.members),
            "atoms": list(self.atoms),
            "canonical_clusters": len(self.clusters),
            **self._growth(),
            "chains": [[len(self.chains[d]), self._semi_counts[d]]
                       for d in range(len(self.chains))],
            "block_inputs": len(self._memos["_root_block"]),
        }
        if chi is not None:
            tree = fm.size(chi)
            out["dag_nodes"] = fm.tangle_dag_nodes(chi)
            out["log2_tree_size"] = tree.bit_length() - 1
            out["tree_size_digits"] = decimal_digits(tree)[0]
        return out


@fm.pauses_collector
def translate(phi: MuFormula,
              guards: Optional[TranslationGuards] = None) -> tuple[TangleFormula, Translator]:
    """Characteristic tangle formula of a closed mu-calculus formula."""
    sigma = fm.sigma_closure(phi)
    translator = Translator(sigma, guards)
    translator.build()
    return translator.characteristic(phi), translator


# ---------------------------------------------------------------------------
# size bound


def size_bound_exponent(phi: MuFormula) -> int:
    """Upper bound on log2 of the translation's tree size: (14n+1)*2^(14n+6)."""
    n = fm.size(phi)
    return (14 * n + 1) << (14 * n + 6)


def decimal_digits(n: int) -> tuple[int, str]:
    """The number of decimal digits of an int n >= 0 and its first 40
    digits, both exact.  Only an int of at most 40 digits is turned into
    text, since `str()` refuses ints of more than 4,300 digits."""
    # 0.30102999566 is just below log10(2), so the start is never too high
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566))
    while 10 ** digits <= n:
        digits += 1
    return digits, str(n // 10 ** max(0, digits - 40))


def size_bound_ok(phi: MuFormula, chi: TangleFormula) -> bool:
    """Exact check that tree-size(chi) <= 2^bound, without materializing the
    right-hand side."""
    tree = fm.size(chi)
    bound = size_bound_exponent(phi)
    log_floor = tree.bit_length() - 1
    if log_floor < bound:
        return True
    return log_floor == bound and tree & (tree - 1) == 0
