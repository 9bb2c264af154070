"""Hash-consed formula ASTs for the mu-calculus and its tangle fragment.

Both languages are interned: building the same node twice returns the same
object, so structural equality is identity and big formulas are shared DAGs.
Nodes are immutable; construction is effectively single-threaded, after which
everything is safe to share.

The calls that build, check or print big DAGs run with Python's cyclic
garbage collector paused (`pauses_collector` says why that is safe).

The mu-calculus AST is kept in negation normal form: negation exists only on
propositional constants, and `negate` computes the classical dual.  The sugar
operators (reflexive diamond `<.>` and reflexive box `[.]`) are not node
kinds; they are recognized structurally, which interning makes an O(1) check.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import operator
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


class FreshNameClashError(ValueError):
    """Raised when a formula's atom is named like a fresh constant, which
    the closure would read as the fixed point that owns the name."""


class MuFormula:
    """One interned node of an NNF mu-calculus formula."""

    __slots__ = ("kind", "name", "left", "right", "arg", "var", "body",
                 "_key", "_size", "_freevars", "_alt", "_props", "_program", "_dual")

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
        self._alt = None
        self._props = None
        self._program = None
        self._dual = None  # the NNF dual, set by `negate`

    # Interning makes identity the structural equality; object.__eq__ and
    # object.__hash__ are exactly what we want.

    def __repr__(self):
        return _repr(self, _mu_parts, _mu_entry)

    @property
    def key(self) -> str:
        """Structural hash, stable across runs; used for deterministic order."""
        if self._key is None:
            for g in _post_order(self, lambda g: g._key is not None):
                h = hashlib.sha256(g.kind.encode())
                if g.name is not None:
                    h.update(b"n" + g.name.encode())
                if g.var is not None:
                    h.update(b"v" + g.var.encode())
                for child in g.children():
                    h.update(child._key.encode())
                g._key = h.hexdigest()
        return self._key

    def children(self) -> tuple:
        if self.left is not None:
            return self.left, self.right
        if self.arg is not None:
            return self.arg,
        if self.body is not None:
            return self.body,
        return ()


_mu_table: dict[tuple, MuFormula] = {}
_NO_VARS: frozenset = frozenset()  # the free variables of every closed node
_NO_ALT = (_NO_VARS, _NO_VARS)  # the pair of every closed, alternation-free node


def _mk(kind, name=None, left=None, right=None, arg=None, var=None, body=None) -> MuFormula:
    """The interned node.  A new one gets its free variables and its
    alternation pair from its children's, so neither `free_vars` nor
    `alternation_free` walks.

    The alternation pair is (free variables that occur under a mu binder
    inside the node, those that occur under a nu binder), or None once a
    binder inside the node has its own variable under a binder of the
    opposite kind.  Every empty set is `_NO_VARS` and every empty pair is
    `_NO_ALT`, so the pairs of closed nodes share one tuple.

    The table key holds only the fields the node's kind uses, kind first:
    `(kind, left, right)`, `(kind, arg)`, `(kind, var, body)` or
    `(kind, name)`; so two kinds never share a key."""
    if left is not None:
        key = (kind, left, right)
    elif arg is not None:
        key = (kind, arg)
    elif body is not None:
        key = (kind, var, body)
    else:
        key = (kind, name)
    node = _mu_table.get(key)
    if node is None:
        node = _mu_table[key] = MuFormula(kind, name, left, right, arg, var, body)
        alt = _NO_ALT
        if kind == VAR:
            fv = frozenset((name,))
        elif left is not None:
            a, b = left._freevars, right._freevars
            fv = a | b if a and b else a or b
            a, b = left._alt, right._alt
            if a is None or b is None:
                alt = None
            elif b is _NO_ALT or b is a:
                alt = a
            elif a is _NO_ALT:
                alt = b
            else:
                alt = (a[0] | b[0] if a[0] and b[0] else a[0] or b[0],
                       a[1] | b[1] if a[1] and b[1] else a[1] or b[1])
        elif arg is not None:
            fv = arg._freevars
            alt = arg._alt
        elif body is not None:
            fv = body._freevars
            if var in fv:
                fv = fv - {var} or _NO_VARS
            # every free variable of a binder occurs under it, and the
            # binder's own variable is not free outside it
            if body._alt is None:
                alt = None
            else:
                in_mu, in_nu = body._alt
                if var in (in_nu if kind == MU else in_mu):
                    alt = None
                elif kind == MU and (fv or in_nu):
                    alt = (fv, in_nu)
                elif kind == NU and (fv or in_mu):
                    alt = (in_mu, fv)
        else:
            fv = _NO_VARS
        node._freevars = fv
        node._alt = alt
    return node


_TOP = _mk(TOP)
_BOT = _mk(BOT)


def top() -> MuFormula:
    return _TOP


def bot() -> MuFormula:
    return _BOT


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


def pauses_collector(func: Callable) -> Callable:
    """Run `func` with the cyclic garbage collector disabled, and enable it
    again on every exit if it was enabled on entry; a caller that disabled
    it keeps it disabled, so nested uses cost nothing.  A node's children
    are built before it, so the DAG links form no cycle, and the interning
    tables keep every node alive: the full collections that DAG building
    would otherwise trigger over the nodes free nothing.  Cyclic garbage
    made inside the call waits for the first collection after it."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _post_order(root, done: Callable, children: Optional[Callable] = None) -> Iterator:
    """The distinct nodes under `root`, itself included, for which `done`
    is false, each one after its children.  `children(g)` names the nodes
    g's value is made from (`g.children()` by default); the walk does not
    enter a node that is done.  Every fold over a formula is one loop over
    this walk that makes each node done as it comes (fills its memo entry
    or slot), so a node met again before it is done is one the walk is
    still inside: a cycle, which raises RuntimeError.  The walk is
    iterative, so any depth works."""
    if done(root):
        return
    children = children or type(root).children
    inside = {root}
    stack = [(root, iter(children(root)))]
    while stack:
        g, todo = stack[-1]
        for c in todo:
            if not done(c):
                if c in inside:
                    raise RuntimeError("cyclic dependency")
                inside.add(c)
                stack.append((c, iter(children(c))))
                break
        else:
            stack.pop()
            inside.remove(g)
            yield g


def free_vars(f: MuFormula) -> frozenset[str]:
    """Free fixed-point variable names (Var nodes not captured by a binder)."""
    return f._freevars


def prop_names(f: MuFormula) -> frozenset[str]:
    """Names of propositional constants occurring anywhere in the formula."""
    for g in _post_order(f, lambda g: g._props is not None):
        if g.kind in (PROP, NEGPROP):
            g._props = frozenset((g.name,))
        else:
            g._props = frozenset().union(*(c._props for c in g.children()))
    return f._props


def size(f) -> int:
    """Tree size of a mu-calculus or tangle formula: one per connective,
    modality, constant, variable occurrence and binder (binder counts as one,
    bound variable included).  Computed over the DAG, so shared subterms are
    counted as many times as the tree has them; exact for any size.  A
    tangle node gets its size when it is interned, so there is no walk.
    """
    for g in _post_order(f, lambda g: g._size is not None):
        n = 1
        for c in g.children():
            n += c._size
        g._size = n
    return f._size


# ---------------------------------------------------------------------------
# negation and substitution


_dual_of = operator.attrgetter("_dual")


def negate(f: MuFormula) -> MuFormula:
    """Classical dual of an NNF formula, in NNF.

    Fixed-point duality re-negates the bound variable, which cancels out; a
    free Var occurrence cannot be negated in NNF and raises NegationError.
    Inside a closed formula the dual of a node does not depend on where it
    sits, so it is kept on the node (`_dual`); negation is an involution, so
    each dual is set both ways."""
    if f._freevars:
        raise NegationError(
            f"cannot negate free occurrence of variable {min(f._freevars)!r}")
    for g in _post_order(f, _dual_of):
        kind = g.kind
        if kind in (AND, OR):
            left, right = g.left._dual, g.right._dual
            out = disj(left, right) if kind == AND else conj(left, right)
        elif kind in (DIA, BOX):
            out = box(g.arg._dual) if kind == DIA else diamond(g.arg._dual)
        elif kind in (MU, NU):
            out = nu(g.var, g.body._dual) if kind == MU else mu(g.var, g.body._dual)
        elif kind == VAR:
            out = g  # bound above, since the root is closed
        elif kind == PROP:
            out = neg_prop(g.name)
        elif kind == NEGPROP:
            out = prop(g.name)
        else:
            out = bot() if kind == TOP else top()
        g._dual = out
        out._dual = g
    return f._dual


def substitute(f: MuFormula, name: str, repl: MuFormula) -> MuFormula:
    """Replace free Var occurrences of `name` by the (closed) formula `repl`.
    Only the nodes with `name` free are rebuilt; the others stay as they are."""
    if name not in f._freevars:
        return f
    memo: dict[MuFormula, MuFormula] = {}
    for g in _post_order(f, memo.__contains__,
                         lambda g: [c for c in g.children() if name in c._freevars]):
        kind = g.kind
        if kind == VAR:
            out = repl
        elif kind in (MU, NU):
            # name is free in g, so g.var != name
            out = _mk(kind, var=g.var, body=memo[g.body])
        elif kind in (AND, OR):
            out = _mk(kind, left=memo.get(g.left, g.left),
                      right=memo.get(g.right, g.right))
        else:  # DIA, BOX
            out = _mk(kind, arg=memo[g.arg])
        memo[g] = out
    return memo[f]


# ---------------------------------------------------------------------------
# n-ary builders (balanced folds with the empty-conjunction/disjunction
# conventions: empty `and` is T, empty `or` is F)


def _big(items: Iterable, unit, zero, combine: Callable):
    """Balanced fold by `combine` of the distinct items other than `unit`:
    `zero` if an item is `zero`, `unit` if none is left.  Both are the one
    interned node of their kind, so they are told by identity."""
    out, seen = [], set()
    for it in items:
        if it is zero:
            return zero
        if it is unit or it in seen:
            continue
        seen.add(it)
        out.append(it)
    while len(out) > 1:
        out = [combine(out[i], out[i + 1]) if i + 1 < len(out) else out[i]
               for i in range(0, len(out), 2)]
    return out[0] if out else unit


def big_and(items: Iterable[MuFormula]) -> MuFormula:
    return _big(items, _TOP, _BOT, conj)


def big_or(items: Iterable[MuFormula]) -> MuFormula:
    return _big(items, _BOT, _TOP, disj)


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
    steps = [conj(m, x) for m in members]
    dias = [diamond(step) for step in steps]
    disjuncts = []
    for i, step in enumerate(steps):
        parts = [disj(step, dias[i])]  # the reflexive diamond of step i
        parts.extend(dia for j, dia in enumerate(dias) if j != i)
        disjuncts.append(big_and(parts))
    return nu(x.name, big_or(disjuncts))


# ---------------------------------------------------------------------------
# fresh constants for fixed-point unfolding, the modified subformula
# operator, floors, and the saturation closure

_fresh_by_name: dict[str, MuFormula] = {}


def fresh_constant_name(binder: MuFormula) -> str:
    """Deterministic propositional-constant name standing for a fixed point:
    the shortest prefix of its key no other binder owns, so every call
    finds the same one."""
    if binder.kind not in (MU, NU):
        raise ValueError("fresh constants name fixed-point formulas only")
    for ln in range(8, 65, 8):
        name = "x_" + binder.key[:ln]
        if _fresh_by_name.setdefault(name, binder) is binder:
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
    """Close a formula by substituting, again and again, fresh constants with
    the fixed points they name (negated occurrences get the negated fixed
    point).  A constant whose fixed point mentions it, which only a user
    atom named like a fresh constant can make, raises RuntimeError."""
    if _fresh_by_name.keys().isdisjoint(prop_names(f)):
        return f
    memo: dict[MuFormula, MuFormula] = {}

    def parts(g: MuFormula) -> tuple:
        if g.kind in (PROP, NEGPROP):
            owner = _fresh_by_name.get(g.name)
            return () if owner is None else (owner,)
        return g.children()

    for g in _post_order(f, memo.__contains__, parts):
        kind = g.kind
        if kind in (PROP, NEGPROP):
            owner = _fresh_by_name.get(g.name)
            if owner is None:
                out = g
            else:
                out = memo[owner] if kind == PROP else negate(memo[owner])
        elif kind in (TOP, BOT, VAR):
            out = g
        elif kind in (AND, OR):
            out = _mk(kind, left=memo[g.left], right=memo[g.right])
        elif kind in (DIA, BOX):
            out = _mk(kind, arg=memo[g.arg])
        else:
            out = _mk(kind, var=g.var, body=memo[g.body])
        memo[g] = out
    return memo[f]


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
    with members kept in canonical prefix form.  `floors` maps each member
    to its closed form, taken once the saturation has named every fixed
    point the members mention."""

    _program = None  # the program of all floors, set by semantics

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
        self.floors = {m: floor(m) for m in self._sorted}
        self._canonical: dict[MuFormula, MuFormula] = {}

    def __len__(self):
        return len(self.members)

    def __iter__(self) -> Iterator[MuFormula]:
        return iter(self._sorted)

    def __contains__(self, f: MuFormula) -> bool:
        return f in self.members

    def member_of(self, f: MuFormula) -> MuFormula:
        """Canonical member equal to `f` up to prefix normalization, memoised
        per formula asked for."""
        m = self._canonical.get(f)
        if m is None:
            m = self._canonical[f] = canonical_member(f)
        if m not in self.members:
            raise KeyError(f"not a closure member: {f!r}")
        return m


@pauses_collector
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
    # only now is every fixed point of the closure named
    clash = sorted(_fresh_by_name.keys() & prop_names(seed))
    if clash:
        raise FreshNameClashError(f"atom {clash[0]} is named like a fresh constant")
    return SigmaClosure(seed, frozenset(members))


# ---------------------------------------------------------------------------
# alternation and the tangle fragment


def alternation_free(f: MuFormula) -> bool:
    """No least fixed point depends on a greatest one or vice versa: no
    binder's variable occurs, unshadowed, free in an opposite-kind binder
    inside its body (Emerson & Lei, LICS 1986).  Read from the alternation
    pair `_mk` gives each node from its children's (see `_mk`)."""
    return f._alt is not None


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
        out, stack = [], [g]
        while stack:
            h = stack.pop()
            if h.kind == kind and sugar_shape(h) is None:
                stack += (h.right, h.left)
            else:
                out.append(h)
        return out

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


@pauses_collector
def in_tangle_fragment(f: MuFormula) -> bool:
    """True iff the formula is an image of the tangle language: binder-free
    except for fixed points that are exactly (possibly negated) tangle
    expansions over fragment members.  The formula is one iff every node
    reachable from it, through children, tangle members and the duals of
    least fixed points, is allowed; an iterative walk visits each once."""
    seen = {f}
    stack = [f]
    while stack:
        g = stack.pop()
        kind = g.kind
        if kind == MU:
            if g._freevars:
                return False  # its dual is not in NNF
            nexts = (negate(g),)
        elif kind == NU:
            nexts = _tangle_members_of_nu(g)
            if nexts is None:
                return False
        elif kind == VAR:
            return False  # the tangle language has no variables
        else:
            nexts = g.children()
        for c in nexts:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return True


# ---------------------------------------------------------------------------
# tangle-language AST


class TangleFormula:
    """One interned node of a tangle-logic formula (no fixed-point binders;
    the tangle operator holds a finite nonempty multiset of children)."""

    __slots__ = ("kind", "name", "left", "right", "arg", "members",
                 "_key", "_size", "_program")
    _freevars = _NO_VARS  # read by free_vars: tangle formulas are closed

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
        return _repr(self, TangleFormula.children, _tangle_entry)

    @property
    def key(self) -> str:
        if self._key is None:
            for g in _post_order(self, lambda g: g._key is not None):
                h = hashlib.sha256(b"t" + g.kind.encode())
                if g.name is not None:
                    h.update(g.name.encode())
                for child in g.children():
                    h.update(child._key.encode())
                g._key = h.hexdigest()
        return self._key

    def children(self) -> tuple:
        if self.members is not None:
            return self.members
        if self.left is not None:
            return self.left, self.right
        return () if self.arg is None else (self.arg,)


_tangle_table: dict[tuple, TangleFormula] = {}


def _tmk(kind, name=None, left=None, right=None, arg=None, members=None) -> TangleFormula:
    """The interned node; a new one gets its tree size from its children's,
    so `size` never walks a tangle formula.  Keyed as in `_mk`:
    `(kind, left, right)`, `(kind, arg)`, `(kind, members)` or
    `(kind, name)`."""
    if left is not None:
        key = (kind, left, right)
    elif arg is not None:
        key = (kind, arg)
    elif members is not None:
        key = (kind, members)
    else:
        key = (kind, name)
    node = _tangle_table.get(key)
    if node is None:
        node = TangleFormula(kind, name=name, left=left, right=right, arg=arg,
                             members=members)
        n = 1
        for c in node.children():
            n += c._size
        node._size = n
        _tangle_table[key] = node
    return node


_T_TOP = _tmk(TOP)
_T_BOT = _tmk(NOT, arg=_T_TOP)


def t_top() -> TangleFormula:
    return _T_TOP


def t_bot() -> TangleFormula:
    return _T_BOT


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
    if f is _T_BOT:
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
    return _big(items, _T_TOP, _T_BOT, t_and)


def t_big_or(items: Iterable[TangleFormula]) -> TangleFormula:
    return _big(items, _T_BOT, _T_TOP, t_or)


def t_implies(premise: TangleFormula, conclusion: TangleFormula) -> TangleFormula:
    return t_big_or([t_not(premise), conclusion])


@pauses_collector
def to_mu(f: TangleFormula) -> MuFormula:
    """Mu-calculus image of a tangle formula (negations pushed into NNF)."""
    memo: dict[TangleFormula, MuFormula] = {}
    for g in _post_order(f, memo.__contains__):
        kind = g.kind
        if kind == TOP:
            out = top()
        elif kind == PROP:
            out = prop(g.name)
        elif kind == NOT:
            out = negate(memo[g.arg])
        elif kind == AND:
            out = conj(memo[g.left], memo[g.right])
        elif kind == OR:
            out = disj(memo[g.left], memo[g.right])
        elif kind == DIA:
            out = diamond(memo[g.arg])
        elif kind == BOX:
            out = box(memo[g.arg])
        else:  # TANGLE
            out = expand_tangle([memo[m] for m in g.members])
        memo[g] = out
    return memo[f]


def tangle_dag_nodes(f: TangleFormula) -> int:
    """Distinct DAG nodes of f (a mu formula too)."""
    seen: set[TangleFormula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(g.children())
    return len(seen)


# The largest tree `repr` prints as text, a few hundred kB of it.  The tree
# of a shared DAG can be exponentially larger than the DAG, so a bigger
# formula prints as its kind and its DAG node count.
_REPR_SIZE = 1 << 16


def _repr(f, parts: Callable, entry: Callable) -> str:
    name = type(f).__name__
    if size(f) <= _REPR_SIZE:
        return f"{name}({_print(f, parts, entry)!r})"
    return f"<{name} {f.kind}, {tangle_dag_nodes(f)} DAG nodes>"


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


_PREFIX_OPS = {"~": negate, "<>": diamond, "[]": box, "<.>": dot_diamond, "[.]": dot_box}


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
        # a chain of prefix operators is read in a loop and applied innermost
        # first, so a long chain does not recurse
        ops = []
        while self.peek()[1] in _PREFIX_OPS:
            ops.append(self.next())
        f = self.parse_base(bound)
        for kind, val, at in reversed(ops):
            try:
                f = _PREFIX_OPS[val](f)
            except NegationError:
                raise FormulaSyntaxError(
                    "negation applied to a bound fixed-point variable", at) from None
        return f

    def parse_base(self, bound: frozenset) -> MuFormula:
        kind, val, at = self.peek()
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
# parse(print_mu(f)) is f for every formula).  Each printer is one fold that
# gives every node its text and the precedence of its outermost operator; a
# parent puts parentheses around a child whose precedence is below what the
# child's position needs.

_PREC_BINDER = 0  # a binder swallows everything to its right
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4
_INFIX = {OR: (" | ", _PREC_OR), AND: (" & ", _PREC_AND)}
_PREFIX = {DIA: "<> ", BOX: "[] ", NOT: "~", "d": "<.> ", "b": "[.] "}


def _parens(entry: tuple, prec: int) -> str:
    text, own = entry
    return text if own >= prec else f"({text})"


def _operator_text(op: str, entries: list) -> tuple:
    """(text, precedence) of an AND, OR, DIA, BOX or NOT node, or of a
    reflexive diamond ("d") or box ("b"), from its children's entries."""
    if op in _INFIX:
        infix, prec = _INFIX[op]
        return (_parens(entries[0], prec) + infix
                + _parens(entries[1], prec + 1), prec)
    return _PREFIX[op] + _parens(entries[0], _PREC_UNARY), _PREC_UNARY


def _print(f, parts: Callable, entry: Callable,
           share: Optional[Callable] = None) -> str:
    """The printing fold.  `parts(g)` are the nodes whose texts g's text is
    made from, and `entry(g, texts)` is g's (text, precedence), read from
    theirs in `texts`.  One walk lists the distinct nodes and counts each
    one's parents; then each node's text is made once, and dropped after its
    last parent has read it.  With `share`, a node with two or more parents
    gets `share(g, entry)` as its entry."""
    made_of: dict = {}
    parents: dict = {}

    def count(g) -> tuple:
        nodes = made_of[g] = parts(g)
        for c in nodes:
            parents[c] = parents.get(c, 0) + 1
        return nodes

    # a node is done once entered: formulas are acyclic, so the walk is the
    # same, and it must list every node before the first text is made
    texts: dict = {}
    for g in list(_post_order(f, made_of.__contains__, count)):
        text = entry(g, texts)
        texts[g] = text if share is None or parents.get(g, 0) < 2 else share(g, text)
        for c in made_of.pop(g):
            parents[c] -= 1
            if not parents[c]:
                del texts[c]
    return texts[f][0]


def _mu_parts(g: MuFormula) -> tuple:
    # a reflexive diamond or box prints from its argument alone
    shape = sugar_shape(g)
    return g.children() if shape is None else (shape[1],)


def _mu_entry(g: MuFormula, texts: dict) -> tuple:
    kind = g.kind
    if kind in (PROP, VAR):
        return g.name, _PREC_ATOM
    if kind == NEGPROP:
        return "~" + g.name, _PREC_ATOM
    if kind in (TOP, BOT):
        return "T" if kind == TOP else "F", _PREC_ATOM
    if kind in (MU, NU):
        return f"{kind} {g.var}. {texts[g.body][0]}", _PREC_BINDER
    shape = sugar_shape(g)
    if shape is None:
        return _operator_text(kind, [texts[c] for c in g.children()])
    return _operator_text(shape[0], [texts[shape[1]]])


def print_mu(f: MuFormula) -> str:
    """Canonical text of f as a tree.  A shared subterm prints once per
    occurrence, so on a shared DAG the text can be exponentially longer
    than the DAG; `repr` prints the tree only up to `_REPR_SIZE` nodes."""
    return _print(f, _mu_parts, _mu_entry)


def _tangle_entry(g: TangleFormula, texts: Mapping) -> tuple:
    kind = g.kind
    if kind in (TOP, PROP):
        return "T" if kind == TOP else g.name, _PREC_ATOM
    if g is _T_BOT:
        return "F", _PREC_ATOM
    entries = [texts[c] for c in g.children()]
    if kind == TANGLE:
        return "<inf>{" + ", ".join(text for text, _ in entries) + "}", _PREC_ATOM
    return _operator_text(kind, entries)


@pauses_collector
def format_tangle_dag(f: TangleFormula) -> str:
    """Render a tangle formula with `let` definitions for shared subterms:
    a node with two or more parents and at least three distinct nodes is
    printed once, on a `let d<i>` line, and its parents print its name."""
    lines = []

    def share(g, entry: tuple) -> tuple:
        # fewer than three distinct nodes: no children, or one leaf child
        cs = g.children()
        if not cs or (not cs[0].children() and len(set(cs)) == 1):
            return entry
        name = f"d{len(lines)}"
        lines.append(f"let {name} = {entry[0]}")
        return name, _PREC_ATOM

    lines.append(f"chi = {_print(f, TangleFormula.children, _tangle_entry, share)}")
    return "\n".join(lines)
