import hashlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import formulas as fm
from tanglekit.translate import format_tangle_dag
from tests.conftest import random_formula, random_tangle_dag


def p(text):
    return fm.parse_mu(text)


class TestParsing:
    def test_simple_nu(self):
        f = p("nu x.(p & <>x)")
        assert f is fm.nu("x", fm.conj(fm.prop("p"), fm.diamond(fm.var("x"))))

    def test_binder_nesting_positive(self):
        f = p("mu x. nu y. x")
        assert f is fm.mu("x", fm.nu("y", fm.var("x")))

    def test_negated_bound_variable_rejected(self):
        with pytest.raises(fm.FormulaSyntaxError):
            p("nu x. ~x")

    def test_negated_bound_variable_in_a_prefix_chain(self):
        # the innermost ~ is the one that fails, wherever the chain starts
        for text, position in [("nu x. <> ~[] ~ x", 13), ("nu x. <> ~~x", 10)]:
            with pytest.raises(fm.FormulaSyntaxError) as err:
                p(text)
            assert err.value.position == position

    def test_negation_resolves_to_nnf(self):
        assert p("~(p & q)") is fm.disj(fm.neg_prop("p"), fm.neg_prop("q"))

    def test_binder_scope_extends_right(self):
        assert p("mu x. p | x") is fm.mu("x", fm.disj(fm.prop("p"), fm.var("x")))
        assert p("p | (mu x. x)") is fm.disj(fm.prop("p"), fm.mu("x", fm.var("x")))

    def test_precedence(self):
        assert p("a & b | c") is fm.disj(fm.conj(fm.prop("a"), fm.prop("b")), fm.prop("c"))
        assert p("<> a & b") is fm.conj(fm.diamond(fm.prop("a")), fm.prop("b"))

    def test_sugar_tokens(self):
        q = fm.prop("q")
        assert p("<.> q") is fm.disj(q, fm.diamond(q))
        assert p("[.] q") is fm.conj(q, fm.box(q))

    def test_tangle_sugar_expands(self):
        assert p("<inf>{q}") is fm.expand_tangle([fm.prop("q")])

    def test_syntax_error_position(self):
        with pytest.raises(fm.FormulaSyntaxError) as err:
            p("p & ")
        assert err.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(fm.FormulaSyntaxError):
            p("p q")

    def test_tokens_unknown_char(self):
        with pytest.raises(fm.FormulaSyntaxError):
            p("p ? q")


class TestPrinting:
    def test_roundtrip_corpus(self):
        # parse(print(f)) is f on a large generated corpus
        rng = random.Random(20240917)
        seen = 0
        for _ in range(10_000):
            f = random_formula(rng, ["p", "q", "r"], rng.randint(0, 5))
            text = fm.print_mu(f)
            assert fm.parse_mu(text) is f, text
            seen += 1
        assert seen == 10_000

    def test_print_parse_stable(self):
        for text in ["p & (q | r)", "<.> p", "nu x. p | <> x", "~p & F"]:
            once = fm.print_mu(p(text))
            assert fm.print_mu(fm.parse_mu(once)) == once

    def test_print_makes_each_node_once(self, monkeypatch):
        # each step doubles the tree; a fold that rebuilt a dropped text
        # for each later parent made 40,957 entries here
        f = p("nu x. (p & <> x) | q")
        for _ in range(12):
            f = fm.conj(fm.diamond(f), fm.box(f))
        calls = []
        entry = fm._mu_entry
        monkeypatch.setattr(fm, "_mu_entry", lambda g, texts: calls.append(g) or entry(g, texts))
        text = fm.print_mu(f)
        assert len(calls) == len(set(calls)) == fm.tangle_dag_nodes(f) == 43
        monkeypatch.undo()
        assert fm.parse_mu(text) is f

    def test_interning_shares_nodes(self):
        a = p("p & <> p")
        b = fm.conj(fm.prop("p"), fm.diamond(fm.prop("p")))
        assert a is b

    def test_rebuilding_returns_the_interned_node(self):
        def mu_nodes():
            a, b = fm.prop("k1"), fm.neg_prop("k2")
            return [fm.top(), fm.bot(), a, b, fm.var("k1"), fm.conj(a, b),
                    fm.disj(a, b), fm.diamond(a), fm.box(a), fm.mu("k1", a),
                    fm.nu("k1", a)]

        def tangle_nodes():
            a, b = fm.t_prop("k1"), fm.t_prop("k2")
            return [fm.t_top(), fm.t_bot(), a, fm.t_not(a), fm.t_and(a, b),
                    fm.t_or(a, b), fm.t_dia(a), fm.t_box(a), fm.t_tangle([a, b]),
                    fm.t_tangle([a])]

        for build in (mu_nodes, tangle_nodes):
            first, again = build(), build()
            assert len(set(first)) == len(first)
            assert all(f is g for f, g in zip(first, again))

    def test_kinds_on_the_same_fields_stay_distinct(self):
        a, b = fm.prop("k1"), fm.prop("k2")
        pairs = [(fm.conj(a, b), fm.disj(a, b)), (fm.diamond(a), fm.box(a)),
                 (fm.mu("k1", a), fm.nu("k1", a))]
        for f, g in pairs:
            assert f is not g and f.kind != g.kind
            assert f.children() == g.children()
        names = [fm.prop("k1"), fm.neg_prop("k1"), fm.var("k1")]
        assert [f.kind for f in names] == [fm.PROP, fm.NEGPROP, fm.VAR]
        assert all(f.name == "k1" for f in names)
        t = fm.t_prop("k1")
        unary = [fm.t_not(t), fm.t_dia(t), fm.t_box(t), fm.t_tangle([t])]
        assert [f.kind for f in unary] == [fm.NOT, fm.DIA, fm.BOX, fm.TANGLE]
        assert all(f.children() == (t,) for f in unary)

    def test_keys_hold_the_kind_and_its_fields_only(self):
        p("nu x. mu y. ((k1 & <> x) | (~k1 & [] y))")
        fm.t_tangle([fm.t_prop("k1"), fm.t_not(fm.t_prop("k1"))])
        for table in (fm._mu_table, fm._tangle_table):
            for key, node in table.items():
                assert key[0] == node.kind and len(key) <= 3

    def test_repr_of_a_shared_dag_is_short(self):
        # each step doubles the tree and adds two DAG nodes: the whole text
        # would be over two million characters
        t, f = fm.t_prop("p"), fm.prop("p")
        for _ in range(18):
            t, f = fm.t_and(t, fm.t_dia(t)), fm.conj(f, fm.diamond(f))
        assert fm.tangle_dag_nodes(t) == fm.tangle_dag_nodes(f) == 37
        assert repr(t) == "<TangleFormula and, 37 DAG nodes>"
        assert repr(f) == "<MuFormula and, 37 DAG nodes>"
        assert repr(p("nu x. (p & <> x)")) == "MuFormula('nu x. p & <> x')"


class TestPinnedText:
    """sha256 of printed text and keys over seeded corpora, as first
    recorded with the recursive printers and keys.  Fresh-constant names and
    `t_tangle` member order come from keys, so any change of text or key
    fails here; `test_pinned_output` pins `format_tangle_dag` the same way."""

    def test_mu_text_and_keys(self):
        rng = random.Random(20261019)
        h = hashlib.sha256()
        for i in range(2000):
            f = random_formula(rng, ["p", "q", "r"], rng.randint(0, 7),
                               names=["x", "y", "z"])
            if i % 5 == 0:  # reflexive sugar, re-sugared by the printer
                f = fm.dot_box(fm.dot_diamond(f))
            h.update(f"{fm.print_mu(f)}\n{f.key}\n".encode())
        assert h.hexdigest() == (
            "5579477efb66be0ef5607c93748bf0aee494769f4c8485b01dcdd608ea55ab32")

    def test_tangle_text_and_keys(self):
        rng = random.Random(140)
        h = hashlib.sha256()
        for _ in range(25):
            pool = random_tangle_dag(rng, 40)
            for g in pool:
                h.update(f"{g!r}\n{format_tangle_dag(g)}\n{g.key}\n".encode())
        assert h.hexdigest() == (
            "4bcc36f9f3775a0939882fd7b426e72ff34dca420beb6c0aab77f978e895c229")


class TestNegate:
    def test_diamond_dual(self):
        assert fm.negate(p("<> p")) is p("[] ~p")

    def test_fixpoint_dual(self):
        assert fm.negate(p("nu x. <> x")) is p("mu x. [] x")

    def test_top_bottom(self):
        assert fm.negate(fm.top()) is fm.bot()

    def test_involution_corpus(self):
        rng = random.Random(7)
        for _ in range(2000):
            f = random_formula(rng, ["p", "q"], rng.randint(0, 5))
            assert fm.negate(fm.negate(f)) is f

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 4))
    def test_involution_hypothesis(self, seed, depth):
        f = random_formula(random.Random(seed), ["p", "q"], depth)
        assert fm.negate(fm.negate(f)) is f

    def test_matches_recursive_dual(self):
        # negate keeps each dual on both nodes, so the involution tests read
        # it back; this compares with a dual built afresh
        rng = random.Random(11)
        for _ in range(2000):
            f = random_formula(rng, ["p", "q"], rng.randint(0, 6), names=["x", "y"])
            assert fm.negate(f) is _dual(f)

    def test_dual_is_kept_on_both_nodes(self):
        f = p("nu x. (r & <> [] (~q | x))")
        assert f._dual is None
        g = fm.negate(f)
        assert f._dual is g and g._dual is f
        assert f.body.left._dual is fm.neg_prop("r")
        assert fm.neg_prop("r")._dual is f.body.left

    def test_open_formula_rejected_after_its_closure_was_negated(self):
        f = p("nu x. (p & <> x)")
        fm.negate(f)
        with pytest.raises(fm.NegationError):
            fm.negate(f.body)
        with pytest.raises(fm.NegationError):
            fm.negate(fm.var("x"))


def _dual(f):
    kind = f.kind
    if kind == fm.TOP:
        return fm.bot()
    if kind == fm.BOT:
        return fm.top()
    if kind == fm.PROP:
        return fm.neg_prop(f.name)
    if kind == fm.NEGPROP:
        return fm.prop(f.name)
    if kind == fm.VAR:
        return f
    if kind == fm.AND:
        return fm.disj(_dual(f.left), _dual(f.right))
    if kind == fm.OR:
        return fm.conj(_dual(f.left), _dual(f.right))
    if kind == fm.DIA:
        return fm.box(_dual(f.arg))
    if kind == fm.BOX:
        return fm.diamond(_dual(f.arg))
    return (fm.nu if kind == fm.MU else fm.mu)(f.var, _dual(f.body))


class TestTangleExpansion:
    def test_singleton(self):
        f = fm.expand_tangle([fm.prop("p")])
        x = fm.var(f.var)
        assert f.body is fm.dot_diamond(fm.conj(fm.prop("p"), x))

    def test_two_members(self):
        e, o = fm.prop("e"), fm.prop("o")
        f = fm.expand_tangle([e, o])
        x = fm.var(f.var)
        first = fm.conj(fm.dot_diamond(fm.conj(e, x)), fm.diamond(fm.conj(o, x)))
        second = fm.conj(fm.dot_diamond(fm.conj(o, x)), fm.diamond(fm.conj(e, x)))
        assert f.body is fm.disj(first, second)

    def test_duplicate_members_merge(self):
        f = fm.expand_tangle([fm.prop("p"), fm.prop("p")])
        x = fm.var(f.var)
        want = fm.conj(fm.dot_diamond(fm.conj(fm.prop("p"), x)),
                       fm.diamond(fm.conj(fm.prop("p"), x)))
        assert f.body is want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fm.expand_tangle([])

    def test_bound_variable_positive(self):
        f = fm.expand_tangle([p("p & ~q"), p("<> r")])
        assert fm.alternation_free(f)
        assert f.kind == fm.NU


class TestSubStar:
    def test_atom(self):
        assert fm.sub_star(fm.prop("p")) == frozenset({fm.prop("p")})

    def test_negated_atom(self):
        assert fm.sub_star(fm.neg_prop("p")) == frozenset({fm.neg_prop("p"), fm.prop("p")})

    def test_fixpoint_unfolds_with_fresh_constant(self):
        f = p("nu x. <> x")
        name = fm.fresh_constant_name(f)
        got = fm.sub_star(f)
        assert got == frozenset({fm.diamond(fm.prop(name)), fm.prop(name)})

    def test_sugar_not_split(self):
        f = fm.dot_diamond(fm.prop("p"))
        assert fm.sub_star(f) == frozenset({fm.prop("p")})

    def test_downward_closed(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng, ["p", "q"], rng.randint(0, 4))
            subs = fm.sub_star(f)
            for s in subs:
                assert fm.sub_star(s) <= subs


class TestFloor:
    def test_identity_without_fresh(self):
        f = p("p & <> q")
        assert fm.floor(f) is f

    def test_identity_without_fresh_builds_nothing(self, monkeypatch):
        # no fresh constant in the formula: floor returns it without a walk
        f = p("nu x.(p & <> x) | [] (q & <> ~p)")
        interned = len(fm._mu_table)

        def build(*args, **kwargs):
            raise AssertionError("floor rebuilt a node")

        monkeypatch.setattr(fm, "_mk", build)
        assert fm.floor(f) is f
        assert len(fm._mu_table) == interned

    def test_single_fresh(self):
        binder = p("nu x. <> x")
        name = fm.fresh_constant_name(binder)
        assert fm.floor(fm.diamond(fm.prop(name))) is fm.diamond(binder)

    def test_negated_fresh(self):
        binder = p("nu x. <> x")
        name = fm.fresh_constant_name(binder)
        assert fm.floor(fm.neg_prop(name)) is fm.negate(binder)

    def test_fresh_name_is_found_again_past_a_collision(self):
        # the name comes from the owner table alone, so a binder whose short
        # name is taken gets the same longer one on every call
        binder = p("nu x. (collide & <> x)")
        short = "x_" + binder.key[:8]
        fm._fresh_by_name[short] = p("nu x. (other & <> x)")
        try:
            name = fm.fresh_constant_name(binder)
            assert name == "x_" + binder.key[:16]
            assert fm._fresh_by_name[name] is binder
            assert fm.fresh_constant_name(binder) == name
        finally:
            del fm._fresh_by_name[short]

    def test_nested_fresh(self):
        outer = p("nu x. <> nu y. (x & <> y)")
        inner_unfolded = fm.unfold_with_fresh(outer).arg
        got = fm.floor(fm.diamond(fm.prop(fm.fresh_constant_name(inner_unfolded))))
        assert fm.free_vars(got) == frozenset()
        result = fm.floor(got)
        assert result is got  # already closed

    def test_cyclic_fresh_constant_raises(self):
        # a user atom that reads as a fresh constant naming a fixed point
        # around itself
        name = "x_cyclic"
        binder = fm.nu("x", fm.conj(fm.prop(name), fm.diamond(fm.var("x"))))
        fm._fresh_by_name[name] = binder
        try:
            with pytest.raises(RuntimeError, match="cyclic"):
                fm.floor(fm.diamond(fm.neg_prop(name)))
        finally:
            del fm._fresh_by_name[name]

    def test_floor_commutes_with_negation_on_closure(self):
        sigma = fm.sigma_closure(p("nu x.(p & <> x)"))
        for member in sigma:
            lhs = fm.negate(fm.floor(member))
            rhs = fm.floor(fm.negate(member))
            # equal as formulas here because negation is structural
            assert lhs is rhs


class TestSigmaClosure:
    def test_closure_of_p_is_prefix_orbit(self):
        sigma = fm.sigma_closure(fm.prop("p"))
        assert len(sigma) == 14
        texts = {fm.print_mu(m) for m in sigma}
        assert "p" in texts and "~p" in texts
        assert "<.> p" in texts and "[.] <.> [.] ~p" in texts

    def test_closed_under_negation(self):
        sigma = fm.sigma_closure(p("<> p"))
        for m in sigma:
            assert fm.canonical_member(fm.negate(m)) in sigma.members

    def test_diamond_p_bound(self):
        sigma = fm.sigma_closure(p("<> p"))
        assert len(sigma) <= 28  # 14 * size(<>p)

    def test_atoms_exclude_fresh_constants(self):
        sigma = fm.sigma_closure(p("nu x.(p & <> x)"))
        assert sigma.atoms == frozenset({"p"})
        assert sigma.fresh  # the unfolding introduced fresh constants

    def test_terminates_on_corpus(self):
        rng = random.Random(4242)
        for _ in range(60):
            f = random_formula(rng, ["p"], rng.randint(0, 3))
            sigma = fm.sigma_closure(f, cap=20000)
            for member in sigma:
                assert fm.canonical_member(fm.negate(member)) in sigma.members

    def test_cap_enforced(self):
        with pytest.raises(fm.ClosureOverflowError):
            fm.sigma_closure(p("nu x.(p & <> x)"), cap=10)

    def test_member_of_normalizes(self):
        sigma = fm.sigma_closure(fm.prop("p"))
        doubled = fm.dot_diamond(fm.dot_diamond(fm.prop("p")))
        assert sigma.member_of(doubled) is fm.dot_diamond(fm.prop("p"))

    def test_member_of_a_big_non_member_raises_at_once(self):
        # the tree has more than 2^60 nodes: the error names the formula
        # by its bounded repr, so it cannot print the tree
        f = fm.prop("p")
        for _ in range(60):
            f = fm.conj(fm.diamond(f), fm.box(f))
        sigma = fm.sigma_closure(fm.prop("p"))

        def timeout(signum, frame):
            raise TimeoutError("member_of did not raise within 10 s")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            with pytest.raises(KeyError, match="181 DAG nodes"):
                sigma.member_of(f)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestMeasures:
    def test_size_examples(self):
        assert fm.size(p("<> p")) == 2
        assert fm.size(p("nu x.(p & <> x)")) == 5

    def test_alternation_free_single_binder(self):
        assert fm.alternation_free(p("nu x.(p & <> x)"))

    def test_alternation_nu_mu_dependency(self):
        assert not fm.alternation_free(p("nu x. mu y. (x | <> y)"))

    def test_alternation_closed_nesting_is_free(self):
        # a closed greatest fixed point inside a least one carries no dependency
        f = p("mu y. (<> y | nu x. (p & <> x))")
        assert fm.alternation_free(f)

    @pytest.mark.parametrize("text", ["mu z. nu z. nu u. (z & <> u)",
                                      "nu z. mu z. mu u. (z | <> u)"])
    def test_alternation_vacuous_outer_binder_is_shadowed(self, text):
        # the inner binder rebinds z, so the outer one binds nothing
        assert fm.alternation_free(p(text))

    def test_alternation_under_shadowing_binder(self):
        assert not fm.alternation_free(p("mu z. nu z. mu u. (z | <> u)"))

    def test_alternation_matches_innermost_binder_oracle(self):
        rng = random.Random(13)
        answers = set()
        for _ in range(3000):
            f = random_formula(rng, ["p", "q"], rng.randint(1, 6), names=["x", "y", "z"])
            want = _alternation_free_oracle(f, {})
            assert fm.alternation_free(f) is want, fm.print_mu(f)
            answers.add(want)
        assert answers == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 7))
    def test_alternation_pairs_match_bottom_up_walk(self, seed, depth):
        # every node, open bodies under the root's binders included; the
        # binder names repeat, so binders shadow one another
        f = random_formula(random.Random(seed), ["p", "q"], depth,
                           names=["x", "y", "z"])
        for g in _nodes(f):
            want = _alternation_walk(g)
            assert g._alt == want, fm.print_mu(g)
            assert fm.alternation_free(g) is (want is not None)
            if want is not None:
                # empty sets and pairs are the shared constants
                assert all(part or part is fm._NO_VARS for part in g._alt)
                assert any(g._alt) or g._alt is fm._NO_ALT

    def test_tangle_size_matches_walk_count(self):
        rng = random.Random(41)
        for _ in range(30):
            for g in random_tangle_dag(rng, 40):
                assert g._size == _tangle_tree_size(g)
                assert fm.size(g) == g._size

    def test_free_vars_match_recursive_oracle(self):
        rng = random.Random(17)
        for _ in range(1000):
            f = random_formula(rng, ["p"], rng.randint(1, 6), names=["x", "y", "z"])
            stack = [f]
            while stack:
                g = stack.pop()
                assert fm.free_vars(g) == _free_vars_oracle(g)
                stack.extend(g.children())

    def test_tangle_fragment_recognizer(self):
        g = fm.expand_tangle([fm.prop("p"), p("~q")])
        assert fm.in_tangle_fragment(g)
        assert fm.in_tangle_fragment(fm.negate(g))
        assert not fm.in_tangle_fragment(p("nu x.(p & <> x)"))
        assert not fm.in_tangle_fragment(p("mu x.(p | <> x)"))

    def test_tangle_ast_roundtrip(self):
        t = fm.t_tangle([fm.t_prop("p"), fm.t_not(fm.t_prop("q"))])
        image = fm.to_mu(t)
        assert fm.in_tangle_fragment(image)
        assert fm.size(t) >= fm.tangle_dag_nodes(t)

    def test_tangle_dag_nodes_limit(self):
        # p, q, ~q, the tangle
        t = fm.t_tangle([fm.t_prop("p"), fm.t_not(fm.t_prop("q"))])
        assert fm.tangle_dag_nodes(t) == 4

    def test_tangle_printing(self):
        t = fm.t_big_or([])
        assert repr(t) == "TangleFormula('F')"
        t2 = fm.t_tangle([fm.t_prop("o"), fm.t_prop("p")])
        # member order is canonical (hash-based), not alphabetical
        assert repr(t2) in ("TangleFormula('<inf>{o, p}')", "TangleFormula('<inf>{p, o}')")
        assert fm.t_tangle([fm.t_prop("p"), fm.t_prop("o")]) is t2


def _alternation_free_oracle(f, binders):
    """`binders` maps each variable to the kind of its innermost binder
    above f; a binder fails if a variable free in it is bound outside it
    by the opposite kind."""
    if f.kind in (fm.MU, fm.NU):
        if any(binders.get(v, f.kind) != f.kind for v in fm.free_vars(f)):
            return False
        return _alternation_free_oracle(f.body, {**binders, f.var: f.kind})
    return all(_alternation_free_oracle(c, binders) for c in f.children())


def _alternation_walk(f):
    """The bottom-up fold `alternation_free` once ran over each formula,
    kept as the oracle of the alternation pairs interned with each node:
    f's pair (free variables that occur under a mu binder inside it, those
    that occur under a nu binder), or None when a binder inside f has its
    own variable under a binder of the opposite kind."""
    under: dict = {}
    none = (frozenset(), frozenset())
    for g in fm._post_order(f, under.__contains__):
        kind = g.kind
        if kind in (fm.AND, fm.OR):
            left, right = under[g.left], under[g.right]
            if left is None or right is None:
                out = None
            else:
                out = (left[0] | right[0], left[1] | right[1])
        elif kind in (fm.DIA, fm.BOX):
            out = under[g.arg]
        elif kind in (fm.MU, fm.NU):
            x = g.var
            inner = under[g.body]
            if inner is None or x in (inner[1] if kind == fm.MU else inner[0]):
                out = None
            elif kind == fm.MU:
                out = (fm.free_vars(g), inner[1] - {x})
            else:
                out = (inner[0] - {x}, fm.free_vars(g))
        else:
            out = none
        under[g] = out
    return under[f]


def _nodes(f) -> list:
    seen, stack = {f}, [f]
    while stack:
        for c in stack.pop().children():
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return list(seen)


def _tangle_tree_size(f) -> int:
    sizes: dict = {}
    for g in fm._post_order(f, sizes.__contains__):
        sizes[g] = 1 + sum(sizes[c] for c in g.children())
    return sizes[f]


def _free_vars_oracle(f):
    if f.kind == fm.VAR:
        return {f.name}
    if f.kind in (fm.MU, fm.NU):
        return _free_vars_oracle(f.body) - {f.var}
    return set().union(*map(_free_vars_oracle, f.children()))


class TestDeepFormulas:
    """Nesting far beyond Python's recursion limit."""

    DEPTH = 5000

    def test_to_mu_of_negated_diamonds(self):
        # ~<> over and over: each image is a box of the dual of the last
        t = fm.t_tangle([fm.t_prop("p"), fm.t_prop("q")])
        pos = fm.to_mu(t)
        neg = fm.negate(pos)
        for _ in range(self.DEPTH):
            t = fm.t_not(fm.t_dia(t))
            pos, neg = fm.box(neg), fm.diamond(pos)
        image = fm.to_mu(t)
        assert image is pos
        assert fm.to_mu(t) is image
        assert fm.negate(image) is neg
        assert fm.in_tangle_fragment(image)
        assert fm.alternation_free(image)

    def test_nested_diamonds(self):
        f, dual = fm.prop("p"), fm.neg_prop("p")
        for _ in range(self.DEPTH):
            f, dual = fm.diamond(f), fm.box(dual)
        assert fm.negate(f) is dual
        assert fm.in_tangle_fragment(f)
        assert fm.alternation_free(f)
        assert fm.free_vars(f) == frozenset()
        assert fm.prop_names(f) == {"p"}
        assert not fm.in_tangle_fragment(_wrap_diamonds(p("mu x.(p | <> x)"), self.DEPTH))

    def test_alternation_deep_below_binder(self):
        # nu y. (x & <> y), with x free
        body = fm.nu("y", fm.conj(fm.var("x"), fm.diamond(fm.var("y"))))
        f = fm.mu("x", _wrap_diamonds(body, self.DEPTH))
        assert not fm.alternation_free(f)
        assert _alternation_walk(f) is None
        g = fm.nu("x", _wrap_diamonds(body, self.DEPTH))
        assert fm.alternation_free(g)
        assert g._alt is fm._NO_ALT
        assert _alternation_walk(g) == fm._NO_ALT
        # the open body: x is free under the nu binder
        assert g.body._alt == _alternation_walk(g.body) == (frozenset(), {"x"})

    def test_print_mu_and_repr(self):
        f = _wrap_diamonds(fm.prop("p"), self.DEPTH)
        text = "<> " * self.DEPTH + "p"
        assert fm.print_mu(f) == text
        assert repr(f) == f"MuFormula({text!r})"
        g, text = fm.prop("p"), "p"
        for _ in range(self.DEPTH):
            g = fm.conj(fm.prop("q"), fm.disj(g, fm.prop("r")))
            text = f"q & ({text} | r)"
        assert fm.print_mu(g) == text

    @pytest.mark.parametrize("op, build", [
        ("~", fm.negate), ("<> ", fm.diamond), ("[] ", fm.box),
        ("<.> ", fm.dot_diamond), ("[.] ", fm.dot_box),
        ("~<> ", lambda g: fm.negate(fm.diamond(g)))])
    def test_parse_prefix_chain(self, op, build):
        # a chain of prefix operators is parsed without recursion, and its
        # printed form parses back to it
        f = fm.prop("p")
        for _ in range(self.DEPTH):
            f = build(f)
        assert fm.parse_mu(op * self.DEPTH + "p") is f
        assert fm.parse_mu(fm.print_mu(f)) is f

    def test_print_tangle_and_format_dag(self):
        t = fm.t_prop("p")
        for _ in range(self.DEPTH):
            t = fm.t_not(fm.t_dia(t))
        text = "~<> " * self.DEPTH + "p"
        assert repr(t) == f"TangleFormula({text!r})"
        assert format_tangle_dag(t) == "chi = " + text

    def test_mu_key(self):
        f = _wrap_diamonds(fm.prop("p"), self.DEPTH)
        key = hashlib.sha256(b"propnp").hexdigest()
        for _ in range(self.DEPTH):
            key = hashlib.sha256(b"dia" + key.encode()).hexdigest()
        assert f.key == key

    def test_tangle_key_and_member_order(self):
        t = fm.t_prop("p")
        for _ in range(self.DEPTH):
            t = fm.t_dia(t)
        key = hashlib.sha256(b"tpropp").hexdigest()
        for _ in range(self.DEPTH):
            key = hashlib.sha256(b"tdia" + key.encode()).hexdigest()
        q = fm.t_prop("q")
        assert fm.t_tangle([t, q]).members == tuple(sorted([t, q], key=lambda m: m.key))
        assert t.key == key

    def test_floor(self):
        binder = fm.nu("x", fm.conj(fm.prop("p"), _wrap_diamonds(fm.var("x"), self.DEPTH)))
        name = fm.fresh_constant_name(binder)
        f = _wrap_diamonds(fm.prop(name), self.DEPTH)
        assert fm.floor(f) is _wrap_diamonds(binder, self.DEPTH)
        assert fm.floor(fm.neg_prop(name)) is fm.negate(binder)

    def test_substitute_and_unfold(self):
        binder = fm.nu("x", fm.conj(fm.prop("p"), _wrap_diamonds(fm.var("x"), self.DEPTH)))
        assert fm.unfold_fixpoint(binder) is fm.conj(
            fm.prop("p"), _wrap_diamonds(binder, self.DEPTH))
        assert fm.substitute(binder.body, "x", fm.top()) is fm.conj(
            fm.prop("p"), _wrap_diamonds(fm.top(), self.DEPTH))


def _wrap_diamonds(f, depth):
    for _ in range(depth):
        f = fm.diamond(f)
    return f
