import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import formulas as fm
from tests.conftest import random_formula


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

    def test_interning_shares_nodes(self):
        a = p("p & <> p")
        b = fm.conj(fm.prop("p"), fm.diamond(fm.prop("p")))
        assert a is b


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
        # negate's memo holds each pair both ways, so the involution tests
        # read it back; this compares with a dual built afresh
        rng = random.Random(11)
        for _ in range(2000):
            f = random_formula(rng, ["p", "q"], rng.randint(0, 6), names=["x", "y"])
            assert fm.negate(f) is _dual(f)

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

    def test_single_fresh(self):
        binder = p("nu x. <> x")
        name = fm.fresh_constant_name(binder)
        assert fm.floor(fm.diamond(fm.prop(name))) is fm.diamond(binder)

    def test_negated_fresh(self):
        binder = p("nu x. <> x")
        name = fm.fresh_constant_name(binder)
        assert fm.floor(fm.neg_prop(name)) is fm.negate(binder)

    def test_nested_fresh(self):
        outer = p("nu x. <> nu y. (x & <> y)")
        inner_unfolded = fm.unfold_with_fresh(outer).arg
        got = fm.floor(fm.diamond(fm.prop(fm.fresh_constant_name(inner_unfolded))))
        assert fm.free_vars(got) == frozenset()
        result = fm.floor(got)
        assert result is got  # already closed

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
        for limit in range(1, 7):
            assert fm.tangle_dag_nodes(t, limit=limit) == min(4, limit)

    def test_tangle_printing(self):
        t = fm.t_big_or([])
        assert fm.print_tangle(t) == "F"
        t2 = fm.t_tangle([fm.t_prop("o"), fm.t_prop("p")])
        # member order is canonical (hash-based), not alphabetical
        assert fm.print_tangle(t2) in ("<inf>{o, p}", "<inf>{p, o}")
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
        assert not fm.in_tangle_fragment(_wrap_diamonds(p("mu x.(p | <> x)"), self.DEPTH))

    def test_alternation_deep_below_binder(self):
        # nu y. (x & <> y), with x free
        body = fm.nu("y", fm.conj(fm.var("x"), fm.diamond(fm.var("y"))))
        f = fm.mu("x", _wrap_diamonds(body, self.DEPTH))
        assert not fm.alternation_free(f)
        assert fm.alternation_free(fm.nu("x", _wrap_diamonds(body, self.DEPTH)))


def _wrap_diamonds(f, depth):
    for _ in range(depth):
        f = fm.diamond(f)
    return f
