"""Hash-consed formula ASTs for the mu-calculus and its tangle fragment.

Both languages are interned: building the same node twice returns the same
object, so structural equality is identity and big formulas are shared DAGs.
Nodes are immutable; construction is effectively single-threaded, after which
everything is safe to share.

The mu-calculus AST is kept in negation normal form: negation exists only on
propositional constants, and `negate` computes the classical dual.  The sugar
operators (reflexive diamond `<.>` and reflexive box `[.]`) are not node
kinds; they are recognized structurally, which interning makes an O(1) check.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

# -- node kinds (shared between the two ASTs where the shape coincides)
TOP = "top"
BOT = "bot"
PROP = "prop"
NEGPROP = "negprop"
VAR = "var"
AND = "and"
OR = "or"
DIA = "dia"
BOX = "box"
MU = "mu"
NU = "nu"
NOT = "not"
TANGLE = "tangle"


class FormulaSyntaxError(ValueError):
    """Parse failure; `position` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegationError(ValueError):
    """Raised when negating a bound-variable occurrence (not expressible in NNF)."""


class ClosureOverflowError(RuntimeError):
    """Raised when a saturation exceeds its configured member cap."""


class MuFormula:
    """One interned node of an NNF mu-calculus formula."""

    __slots__ = ("kind", "name", "left", "right", "arg", "var", "body",
                 "_key", "_size", "_freevars", "_props", "_program")

    def __init__(self, kind, name=None, left=None, right=None, arg=None,
                 var=None, body=None):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.arg = arg
        self.var = var
        self.body = body
        self._key = None
        self._size = None
        self._freevars = None
        self._props = None
        self._program = None

    # Interning makes identity the structural equality; object.__eq__ and
    # object.__hash__ are exactly what we want.

    def __repr__(self):
        return f"MuFormula({print_mu(self)!r})"

    @property
    def key(self) -> str:
        """Structural hash, stable across runs; used for deterministic order."""
        if self._key is None:
            h = hashlib.sha256()
            h.update(self.kind.encode())
            if self.name is not None:
                h.update(b"n" + self.name.encode())
            if self.var is not None:
                h.update(b"v" + self.var.encode())
            for child in (self.left, self.right, self.arg, self.body):
                if child is not None:
                    h.update(child.key.encode())
            self._key = h.hexdigest()
        return self._key

    def children(self) -> tuple:
        return tuple(c for c in (self.left, self.right, self.arg, self.body)
                     if c is not None)


_mu_table: dict[tuple, MuFormula] = {}


def _mk(kind, name=None, left=None, right=None, arg=None, var=None, body=None) -> MuFormula:
    key = (kind, name, left, right, arg, var, body)
    node = _mu_table.get(key)
    if node is None:
        node = MuFormula(kind, name=name, left=left, right=right, arg=arg,
                         var=var, body=body)
        _mu_table[key] = node
    return node


def top() -> MuFormula:
    return _mk(TOP)


def bot() -> MuFormula:
    return _mk(BOT)


def prop(name: str) -> MuFormula:
    return _mk(PROP, name=name)


def neg_prop(name: str) -> MuFormula:
    return _mk(NEGPROP, name=name)


def var(name: str) -> MuFormula:
    return _mk(VAR, name=name)


def conj(left: MuFormula, right: MuFormula) -> MuFormula:
    return _mk(AND, left=left, right=right)


def disj(left: MuFormula, right: MuFormula) -> MuFormula:
    return _mk(OR, left=left, right=right)


def diamond(arg: MuFormula) -> MuFormula:
    return _mk(DIA, arg=arg)


def box(arg: MuFormula) -> MuFormula:
    return _mk(BOX, arg=arg)


def mu(v: str, body: MuFormula) -> MuFormula:
    return _mk(MU, var=v, body=body)


def nu(v: str, body: MuFormula) -> MuFormula:
    return _mk(NU, var=v, body=body)


def dot_diamond(f: MuFormula) -> MuFormula:
    """Reflexive diamond: phi | <> phi."""
    return disj(f, diamond(f))


def dot_box(f: MuFormula) -> MuFormula:
    """Reflexive box: phi & [] phi."""
    return conj(f, box(f))


def sugar_shape(f: MuFormula) -> Optional[tuple[str, MuFormula]]:
    """Recognize `x | <> x` as ("d", x) and `x & [] x` as ("b", x)."""
    if f.kind == OR and f.right.kind == DIA and f.right.arg is f.left:
        return ("d", f.left)
    if f.kind == AND and f.right.kind == BOX and f.right.arg is f.left:
        return ("b", f.left)
    return None


def _unfilled(f, slot: str) -> list:
    """The nodes under f whose cached `slot` is unset, children before
    parents, found by an iterative walk so deep formulas do not recurse."""
    out = []
    seen = set()
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if ready:
            out.append(g)
        elif g not in seen:
            seen.add(g)
            stack.append((g, True))
            stack.extend((c, False) for c in g.children() if getattr(c, slot) is None)
    return out


def free_vars(f: MuFormula) -> frozenset[str]:
    """Free fixed-point variable names (Var nodes not captured by a binder)."""
    if f._freevars is None:
        for g in _unfilled(f, "_freevars"):
            kind = g.kind
            if kind in (AND, OR):
                g._freevars = g.left._freevars | g.right._freevars
            elif kind in (DIA, BOX):
                g._freevars = g.arg._freevars
            elif kind in (MU, NU):
                g._freevars = g.body._freevars - {g.var}
            elif kind == VAR:
                g._freevars = frozenset((g.name,))
            else:
                g._freevars = frozenset()
    return f._freevars


def prop_names(f: MuFormula) -> frozenset[str]:
    """Names of propositional constants occurring anywhere in the formula."""
    if f._props is None:
        for g in _unfilled(f, "_props"):
            if g.kind in (PROP, NEGPROP):
                g._props = frozenset((g.name,))
            else:
                g._props = frozenset().union(*(c._props for c in g.children()))
    return f._props


def size(f) -> int:
    """Tree size: one per connective, modality, constant, variable occurrence
    and binder (binder counts as one, bound variable included).  Computed over
    the DAG, so shared subterms are counted as many times as the tree has them.
    """
    if f._size is None:
        for g in _unfilled(f, "_size"):
            g._size = 1 + sum(c._size for c in g.children())
    return f._size


# ---------------------------------------------------------------------------
# negation and substitution


_negate_memo: dict = {}


def negate(f: MuFormula) -> MuFormula:
    """Classical dual of an NNF formula, in NNF.

    Fixed-point duality re-negates the bound variable, which cancels out; a
    free Var occurrence cannot be negated in NNF and raises NegationError.
    """
    return _negate(f, frozenset(), _negate_memo)


def _negate(f: MuFormula, keep: frozenset, memo: dict) -> MuFormula:
    mkey = (f, keep & free_vars(f))
    got = memo.get(mkey)
    if got is not None:
        return got
    kind = f.kind
    if kind == TOP:
        out = bot()
    elif kind == BOT:
        out = top()
    elif kind == PROP:
        out = neg_prop(f.name)
    elif kind == NEGPROP:
        out = prop(f.name)
    elif kind == VAR:
        if f.name in keep:
            out = f
        else:
            raise NegationError(f"cannot negate free occurrence of variable {f.name!r}")
    elif kind == AND:
        out = disj(_negate(f.left, keep, memo), _negate(f.right, keep, memo))
    elif kind == OR:
        out = conj(_negate(f.left, keep, memo), _negate(f.right, keep, memo))
    elif kind == DIA:
        out = box(_negate(f.arg, keep, memo))
    elif kind == BOX:
        out = diamond(_negate(f.arg, keep, memo))
    elif kind == NU:
        out = mu(f.var, _negate(f.body, keep | {f.var}, memo))
    else:  # MU
        out = nu(f.var, _negate(f.body, keep | {f.var}, memo))
    memo[mkey] = out
    return out


def substitute(f: MuFormula, name: str, repl: MuFormula) -> MuFormula:
    """Replace free Var occurrences of `name` by the (closed) formula `repl`."""
    memo: dict[MuFormula, MuFormula] = {}

    def go(g: MuFormula) -> MuFormula:
        if name not in free_vars(g):
            return g
        got = memo.get(g)
        if got is not None:
            return got
        if g.kind == VAR:
            out = repl
        elif g.kind in (MU, NU):
            # name is free in g, so g.var != name
            out = _mk(g.kind, var=g.var, body=go(g.body))
        elif g.kind in (AND, OR):
            out = _mk(g.kind, left=go(g.left), right=go(g.right))
        else:  # DIA, BOX
            out = _mk(g.kind, arg=go(g.arg))
        memo[g] = out
        return out

    return go(f)


# ---------------------------------------------------------------------------
# n-ary builders (balanced folds with the empty-conjunction/disjunction
# conventions: empty `and` is T, empty `or` is F)


def _fold(items: list, combine: Callable) -> MuFormula:
    while len(items) > 1:
        items = [combine(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


def big_and(items: Iterable[MuFormula]) -> MuFormula:
    out, seen = [], set()
    for it in items:
        if it.kind == BOT:
            return bot()
        if it.kind == TOP or it in seen:
            continue
        seen.add(it)
        out.append(it)
    if not out:
        return top()
    return _fold(out, conj)


def big_or(items: Iterable[MuFormula]) -> MuFormula:
    out, seen = [], set()
    for it in items:
        if it.kind == TOP:
            return top()
        if it.kind == BOT or it in seen:
            continue
        seen.add(it)
        out.append(it)
    if not out:
        return bot()
    return _fold(out, disj)


# ---------------------------------------------------------------------------
# tangle expansion


def _fresh_bound_name(members: Sequence[MuFormula]) -> str:
    # only capture of free variables matters; bound repetitions are shadowed
    used: set[str] = set()
    for m in members:
        used |= free_vars(m)
    if "t" not in used:
        return "t"
    i = 0
    while f"t{i}" in used:
        i += 1
    return f"t{i}"


def expand_tangle(members: Sequence[MuFormula]) -> MuFormula:
    """Unfold the tangle of a finite nonempty multiset into its nu formula.

    Each disjunct commits to one member being satisfied here-or-below while
    every other member is satisfied at a strict successor inside the fixed
    point; duplicate disjuncts arising from repeated members are merged.
    """
    members = list(members)
    if not members:
        raise ValueError("tangle of an empty multiset")
    x = var(_fresh_bound_name(members))
    disjuncts = []
    for i, m in enumerate(members):
        parts = [dot_diamond(conj(m, x))]
        parts.extend(diamond(conj(other, x))
                     for j, other in enumerate(members) if j != i)
        disjuncts.append(big_and(parts))
    return nu(x.name, big_or(disjuncts))


# ---------------------------------------------------------------------------
# fresh constants for fixed-point unfolding, the modified subformula
# operator, floors, and the saturation closure

_fresh_by_formula: dict[MuFormula, str] = {}
_fresh_by_name: dict[str, MuFormula] = {}


def fresh_constant_name(binder: MuFormula) -> str:
    """Deterministic propositional-constant name standing for a fixed point."""
    if binder.kind not in (MU, NU):
        raise ValueError("fresh constants name fixed-point formulas only")
    got = _fresh_by_formula.get(binder)
    if got is not None:
        return got
    for ln in range(8, 65, 8):
        name = "x_" + binder.key[:ln]
        owner = _fresh_by_name.get(name)
        if owner is None or owner is binder:
            _fresh_by_formula[binder] = name
            _fresh_by_name[name] = binder
            return name
    raise RuntimeError("unresolvable fresh-name collision")


def unfold_with_fresh(binder: MuFormula) -> MuFormula:
    """Body of a fixed point with the bound variable replaced by its fresh constant."""
    return substitute(binder.body, binder.var, prop(fresh_constant_name(binder)))


def unfold_fixpoint(binder: MuFormula) -> MuFormula:
    """One unfolding: the body with the bound variable replaced by the fixed
    point itself (equivalent to the fixed point on every model)."""
    if binder.kind not in (MU, NU):
        raise ValueError("can only unfold fixed points")
    return substitute(binder.body, binder.var, binder)


def sub_star(f: MuFormula) -> frozenset[MuFormula]:
    """The modified subformula set.

    Atoms, negated atoms and plain conjunctions/disjunctions contribute
    themselves; modal operators (including the reflexive sugar shapes) drop
    down to their argument; fixed points contribute their body unfolded with
    a fresh constant named after the binder.
    """
    out: set[MuFormula] = set()
    done: set[MuFormula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in done:
            continue
        done.add(g)
        kind = g.kind
        if kind in (TOP, BOT, PROP, VAR):
            out.add(g)
        elif kind == NEGPROP:
            out.add(g)
            out.add(prop(g.name))
        elif kind in (AND, OR):
            shape = sugar_shape(g)
            if shape is not None:
                out.add(shape[1])
                stack.append(shape[1])
            else:
                out.add(g)
                stack.append(g.left)
                stack.append(g.right)
        elif kind in (DIA, BOX):
            out.add(g.arg)
            stack.append(g.arg)
        else:  # MU, NU
            unfolded = unfold_with_fresh(g)
            out.add(unfolded)
            stack.append(unfolded)
    return frozenset(out)


def floor(f: MuFormula) -> MuFormula:
    """Close a formula by recursively substituting fresh constants with the
    fixed points they name (negated occurrences get the negated fixed point).
    """
    memo: dict[MuFormula, MuFormula] = {}
    active: set[MuFormula] = set()

    def go(g: MuFormula) -> MuFormula:
        got = memo.get(g)
        if got is not None:
            return got
        kind = g.kind
        if kind in (PROP, NEGPROP):
            owner = _fresh_by_name.get(g.name)
            if owner is None:
                out = g
            else:
                if owner in active:
                    raise RuntimeError("cyclic fresh-constant dependency")
                active.add(owner)
                closed = go(owner)
                active.discard(owner)
                out = closed if kind == PROP else negate(closed)
        elif kind in (TOP, BOT, VAR):
            out = g
        elif kind in (AND, OR):
            out = _mk(kind, left=go(g.left), right=go(g.right))
        elif kind in (DIA, BOX):
            out = _mk(kind, arg=go(g.arg))
        else:
            out = _mk(kind, var=g.var, body=go(g.body))
        memo[g] = out
        return out

    return go(f)


# -- canonical members: formulas are decomposed into a prefix word over the
# reflexive diamond/box and a core that is not itself a sugar shape.  The
# prefix monoid is finite once idempotence (dd -> d, bb -> b) and the
# closure/interior collapse (dbdb -> db, bdbd -> bd) are applied, which is
# what keeps the saturation finite: seven words times two polarities.

_WORD_RULES = (("dd", "d"), ("bb", "b"), ("dbdb", "db"), ("bdbd", "bd"))


def _normalize_word(word: str) -> str:
    changed = True
    while changed:
        changed = False
        for pat, rep in _WORD_RULES:
            if pat in word:
                word = word.replace(pat, rep)
                changed = True
    return word


def split_prefix(f: MuFormula) -> tuple[str, MuFormula]:
    word = []
    g = f
    while True:
        shape = sugar_shape(g)
        if shape is None:
            break
        word.append(shape[0])
        g = shape[1]
    return "".join(word), g


def _apply_word(word: str, core: MuFormula) -> MuFormula:
    g = core
    for ch in reversed(word):
        g = dot_diamond(g) if ch == "d" else dot_box(g)
    return g


def canonical_member(f: MuFormula) -> MuFormula:
    word, core = split_prefix(f)
    return _apply_word(_normalize_word(word), core)


class SigmaClosure:
    """Seed formula closed under sub*, negation and reflexive-diamond prefixing,
    with members kept in canonical prefix form."""

    def __init__(self, seed: MuFormula, members: frozenset[MuFormula]):
        self.seed = seed
        self.members = members
        fresh = {}
        atoms: set[str] = set()
        for m in members:
            for name in prop_names(m):
                owner = _fresh_by_name.get(name)
                if owner is None:
                    atoms.add(name)
                else:
                    fresh[name] = owner
        self.atoms = frozenset(atoms)
        self.fresh = fresh
        self._sorted = tuple(sorted(members, key=lambda g: (size(g), print_mu(g))))

    def __len__(self):
        return len(self.members)

    def __iter__(self) -> Iterator[MuFormula]:
        return iter(self._sorted)

    def __contains__(self, f: MuFormula) -> bool:
        return f in self.members

    def member_of(self, f: MuFormula) -> MuFormula:
        """Canonical member equal to `f` up to prefix normalization."""
        m = canonical_member(f)
        if m not in self.members:
            raise KeyError(f"not a closure member: {print_mu(f)}")
        return m


def sigma_closure(seed: MuFormula, cap: int = 20000) -> SigmaClosure:
    """Saturate {seed} under sub*, negate and reflexive-diamond prefixing.

    Members are normalized so the saturation terminates; `cap` bounds the
    member count and overflow raises ClosureOverflowError.
    """
    start = canonical_member(seed)
    members: set[MuFormula] = {start}
    work = [start]
    while work:
        m = work.pop()
        produced = [canonical_member(negate(m)), canonical_member(dot_diamond(m))]
        produced.extend(canonical_member(s) for s in sub_star(m))
        for g in produced:
            if g not in members:
                members.add(g)
                if len(members) > cap:
                    raise ClosureOverflowError(
                        f"closure exceeded cap of {cap} members")
                work.append(g)
    return SigmaClosure(seed, frozenset(members))


# ---------------------------------------------------------------------------
# alternation and the tangle fragment


def alternation_free(f: MuFormula) -> bool:
    """No least fixed point depends on a greatest one or vice versa: a binder
    never contains an opposite-kind binder with the outer variable free in it.
    """
    memo: dict[tuple, bool] = {}

    def walk(g: MuFormula, active: tuple) -> bool:
        fv = free_vars(g)
        key = (g, tuple(item for item in active if item[0] in fv))
        got = memo.get(key)
        if got is not None:
            return got
        if g.kind in (MU, NU):
            out = all(kind == g.kind or v not in fv for v, kind in active)
            if out:
                out = walk(g.body, active + ((g.var, g.kind),))
        else:
            out = all(walk(c, active) for c in g.children())
        memo[key] = out
        return out

    return walk(f, ())


def _tangle_members_of_nu(f: MuFormula) -> Optional[list[MuFormula]]:
    """If `f` has the shape of an expanded tangle, recover its members.

    Duplicate-member expansions lose conjunct multiplicity to merging, so the
    check is by consistency of the per-disjunct member sets rather than by
    rebuilding: each disjunct commits to one member and names every *other*
    member (all of them, when the committed one repeats)."""
    if f.kind != NU:
        return None
    x = var(f.var)

    def flatten(g, kind):
        # stop at sugar shapes so a reflexive diamond is not torn apart
        if g.kind == kind and sugar_shape(g) is None:
            return flatten(g.left, kind) + flatten(g.right, kind)
        return [g]

    def member_of(g):
        # <> (m & x) with x the bound variable and m not mentioning it
        if g.kind != AND or g.right is not x or f.var in free_vars(g.left):
            return None
        return g.left

    rows = []
    for disjunct in flatten(f.body, OR):
        conjuncts = flatten(disjunct, AND)
        shape = sugar_shape(conjuncts[0])
        if shape is None or shape[0] != "d":
            return None
        head = member_of(shape[1])
        if head is None:
            return None
        others = []
        for c in conjuncts[1:]:
            if c.kind != DIA:
                return None
            m = member_of(c.arg)
            if m is None:
                return None
            others.append(m)
        if len(set(others)) != len(others):
            return None
        rows.append((head, frozenset(others)))
    heads = [h for h, _ in rows]
    if len(set(heads)) != len(heads):
        return None
    universe = frozenset(heads)
    members = []
    for head, others in rows:
        repeated = head in others
        if others != (universe if repeated else universe - {head}):
            return None
        members.append(head)
        if repeated:
            members.append(head)
    return members


def in_tangle_fragment(f: MuFormula) -> bool:
    """True iff the formula is an image of the tangle language: binder-free
    except for fixed points that are exactly (possibly negated) tangle
    expansions over fragment members.
    """
    memo: dict[MuFormula, bool] = {}

    def go(g: MuFormula) -> bool:
        got = memo.get(g)
        if got is not None:
            return got
        if g.kind == MU:
            try:
                out = go(negate(g))
            except NegationError:
                out = False
        elif g.kind == NU:
            members = _tangle_members_of_nu(g)
            out = members is not None and all(go(m) for m in members)
        elif g.kind == VAR:
            out = False  # the tangle language has no variables
        else:
            out = all(go(c) for c in g.children())
        memo[g] = out
        return out

    return go(f)


# ---------------------------------------------------------------------------
# tangle-language AST


class TangleFormula:
    """One interned node of a tangle-logic formula (no fixed-point binders;
    the tangle operator holds a finite nonempty multiset of children)."""

    __slots__ = ("kind", "name", "left", "right", "arg", "members",
                 "_key", "_size", "_program")

    def __init__(self, kind, name=None, left=None, right=None, arg=None,
                 members=None):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.arg = arg
        self.members = members
        self._key = None
        self._size = None
        self._program = None

    def __repr__(self):
        return f"TangleFormula({print_tangle(self)!r})"

    @property
    def key(self) -> str:
        if self._key is None:
            h = hashlib.sha256()
            h.update(b"t" + self.kind.encode())
            if self.name is not None:
                h.update(self.name.encode())
            for child in self.children():
                h.update(child.key.encode())
            self._key = h.hexdigest()
        return self._key

    def children(self) -> tuple:
        if self.members is not None:
            return self.members
        return tuple(c for c in (self.left, self.right, self.arg) if c is not None)


_tangle_table: dict[tuple, TangleFormula] = {}


def _tmk(kind, name=None, left=None, right=None, arg=None, members=None) -> TangleFormula:
    key = (kind, name, left, right, arg, members)
    node = _tangle_table.get(key)
    if node is None:
        node = TangleFormula(kind, name=name, left=left, right=right, arg=arg,
                             members=members)
        _tangle_table[key] = node
    return node


def t_top() -> TangleFormula:
    return _tmk(TOP)


def t_bot() -> TangleFormula:
    return _tmk(NOT, arg=t_top())


def t_prop(name: str) -> TangleFormula:
    return _tmk(PROP, name=name)


def t_not(f: TangleFormula) -> TangleFormula:
    if f.kind == NOT:
        return f.arg
    return _tmk(NOT, arg=f)


def t_and(left: TangleFormula, right: TangleFormula) -> TangleFormula:
    return _tmk(AND, left=left, right=right)


def t_or(left: TangleFormula, right: TangleFormula) -> TangleFormula:
    return _tmk(OR, left=left, right=right)


def t_dia(f: TangleFormula) -> TangleFormula:
    if f is t_bot():
        return f
    return _tmk(DIA, arg=f)


def t_box(f: TangleFormula) -> TangleFormula:
    if f.kind == TOP:
        return f
    return _tmk(BOX, arg=f)


def t_tangle(members: Iterable[TangleFormula]) -> TangleFormula:
    ms = tuple(sorted(members, key=lambda m: m.key))
    if not ms:
        raise ValueError("tangle of an empty multiset")
    return _tmk(TANGLE, members=ms)


def t_dot_dia(f: TangleFormula) -> TangleFormula:
    return t_big_or([f, t_dia(f)])


def t_big_and(items: Iterable[TangleFormula]) -> TangleFormula:
    out, seen = [], set()
    bottom = t_bot()
    for it in items:
        if it is bottom:
            return bottom
        if it.kind == TOP or it in seen:
            continue
        seen.add(it)
        out.append(it)
    if not out:
        return t_top()
    return _fold(out, t_and)


def t_big_or(items: Iterable[TangleFormula]) -> TangleFormula:
    out, seen = [], set()
    bottom = t_bot()
    for it in items:
        if it.kind == TOP:
            return it
        if it is bottom or it in seen:
            continue
        seen.add(it)
        out.append(it)
    if not out:
        return bottom
    return _fold(out, t_or)


def t_implies(premise: TangleFormula, conclusion: TangleFormula) -> TangleFormula:
    return t_big_or([t_not(premise), conclusion])


def to_mu(f: TangleFormula) -> MuFormula:
    """Mu-calculus image of a tangle formula (negations pushed into NNF)."""
    memo: dict[TangleFormula, MuFormula] = {}

    def go(g: TangleFormula) -> MuFormula:
        got = memo.get(g)
        if got is not None:
            return got
        kind = g.kind
        if kind == TOP:
            out = top()
        elif kind == PROP:
            out = prop(g.name)
        elif kind == NOT:
            out = negate(go(g.arg))
        elif kind == AND:
            out = conj(go(g.left), go(g.right))
        elif kind == OR:
            out = disj(go(g.left), go(g.right))
        elif kind == DIA:
            out = diamond(go(g.arg))
        elif kind == BOX:
            out = box(go(g.arg))
        else:  # TANGLE
            out = expand_tangle([go(m) for m in g.members])
        memo[g] = out
        return out

    return go(f)


def tangle_tree_size(f: TangleFormula) -> int:
    """Fully expanded (tree) size computed over the DAG without expanding it."""
    if f._size is None:
        f._size = 1 + sum(tangle_tree_size(c) for c in f.children())
    return f._size


def tangle_dag_nodes(f: TangleFormula, limit: Optional[int] = None) -> int:
    """Distinct DAG nodes of f; with `limit`, the walk stops once it has
    seen that many, so the count is min(nodes, limit)."""
    seen: set[TangleFormula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if len(seen) == limit:
            break
        stack.extend(g.children())
    return len(seen)


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"T", "F", "mu", "nu"}

_SYMBOLS = ("<inf>", "<.>", "<>", "[.]", "[]", "~", "&", "|", ".", ",",
            "(", ")", "{", "}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            tokens.append(("kw" if word in _KEYWORDS else "ident", word, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def parse(self) -> MuFormula:
        f = self.parse_or(frozenset())
        kind, val, at = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {val!r} after formula", at)
        return f

    def parse_or(self, bound: frozenset) -> MuFormula:
        f = self.parse_and(bound)
        while self.peek()[1] == "|":
            self.next()
            f = disj(f, self.parse_and(bound))
        return f

    def parse_and(self, bound: frozenset) -> MuFormula:
        f = self.parse_unary(bound)
        while self.peek()[1] == "&":
            self.next()
            f = conj(f, self.parse_unary(bound))
        return f

    def parse_unary(self, bound: frozenset) -> MuFormula:
        kind, val, at = self.peek()
        if val == "~":
            self.next()
            operand = self.parse_unary(bound)
            try:
                return negate(operand)
            except NegationError:
                raise FormulaSyntaxError(
                    "negation applied to a bound fixed-point variable", at) from None
        if val == "<>":
            self.next()
            return diamond(self.parse_unary(bound))
        if val == "[]":
            self.next()
            return box(self.parse_unary(bound))
        if val == "<.>":
            self.next()
            return dot_diamond(self.parse_unary(bound))
        if val == "[.]":
            self.next()
            return dot_box(self.parse_unary(bound))
        if val in ("mu", "nu"):
            self.next()
            vkind, vname, vat = self.next()
            if vkind != "ident":
                raise FormulaSyntaxError("expected a variable name after binder", vat)
            self.expect(".")
            body = self.parse_or(bound | {vname})
            return mu(vname, body) if val == "mu" else nu(vname, body)
        if val == "<inf>":
            self.next()
            self.expect("{")
            members = [self.parse_or(bound)]
            while self.peek()[1] == ",":
                self.next()
                members.append(self.parse_or(bound))
            self.expect("}")
            return expand_tangle(members)
        return self.parse_atom(bound)

    def parse_atom(self, bound: frozenset) -> MuFormula:
        kind, val, at = self.next()
        if val == "(":
            f = self.parse_or(bound)
            self.expect(")")
            return f
        if val == "T":
            return top()
        if val == "F":
            return bot()
        if kind == "ident":
            return var(val) if val in bound else prop(val)
        raise FormulaSyntaxError(f"expected a formula, found {val or 'end of input'!r}", at)


def parse_mu(text: str) -> MuFormula:
    """Parse the ASCII grammar; `~` is resolved to NNF and `<inf>` expands."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing (canonical: re-sugars reflexive modalities, minimal parentheses;
# parse(print_mu(f)) is f for every formula)

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def print_mu(f: MuFormula) -> str:
    return _pp_mu(f, 0)


def _pp_mu(f: MuFormula, prec: int) -> str:
    kind = f.kind
    if kind == TOP:
        return "T"
    if kind == BOT:
        return "F"
    if kind in (PROP, VAR):
        return f.name
    if kind == NEGPROP:
        return "~" + f.name
    shape = sugar_shape(f)
    if shape is not None:
        op = "<.>" if shape[0] == "d" else "[.]"
        s = f"{op} {_pp_mu(shape[1], _PREC_UNARY)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if kind == AND:
        s = f"{_pp_mu(f.left, _PREC_AND)} & {_pp_mu(f.right, _PREC_AND + 1)}"
        return f"({s})" if prec > _PREC_AND else s
    if kind == OR:
        s = f"{_pp_mu(f.left, _PREC_OR)} | {_pp_mu(f.right, _PREC_OR + 1)}"
        return f"({s})" if prec > _PREC_OR else s
    if kind == DIA:
        s = f"<> {_pp_mu(f.arg, _PREC_UNARY)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if kind == BOX:
        s = f"[] {_pp_mu(f.arg, _PREC_UNARY)}"
        return f"({s})" if prec > _PREC_UNARY else s
    # binders swallow everything to their right, so any operator context
    # needs parentheses around them
    kw = "mu" if kind == MU else "nu"
    s = f"{kw} {f.var}. {_pp_mu(f.body, 0)}"
    return f"({s})" if prec > 0 else s


def print_tangle(f: TangleFormula,
                 names: Optional[Mapping[TangleFormula, str]] = None) -> str:
    """Canonical text of a tangle formula.  With `names`, every proper
    subterm that has a name prints as that name."""
    return _pp_tangle(f, 0, names or {}, f)


def _pp_tangle(f: TangleFormula, prec: int, names: Mapping, root: TangleFormula) -> str:
    if f is not root and f in names:
        return names[f]
    kind = f.kind
    if kind == TOP:
        return "T"
    if f is t_bot():
        return "F"
    if kind == PROP:
        return f.name
    if kind == NOT:
        s = f"~{_pp_tangle(f.arg, _PREC_UNARY, names, root)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if kind == AND:
        s = (f"{_pp_tangle(f.left, _PREC_AND, names, root)} & "
             f"{_pp_tangle(f.right, _PREC_AND + 1, names, root)}")
        return f"({s})" if prec > _PREC_AND else s
    if kind == OR:
        s = (f"{_pp_tangle(f.left, _PREC_OR, names, root)} | "
             f"{_pp_tangle(f.right, _PREC_OR + 1, names, root)}")
        return f"({s})" if prec > _PREC_OR else s
    if kind == DIA:
        s = f"<> {_pp_tangle(f.arg, _PREC_UNARY, names, root)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if kind == BOX:
        s = f"[] {_pp_tangle(f.arg, _PREC_UNARY, names, root)}"
        return f"({s})" if prec > _PREC_UNARY else s
    inner = ", ".join(_pp_tangle(m, 0, names, root) for m in f.members)
    return "<inf>{" + inner + "}"
