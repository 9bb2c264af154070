import random
import sys
import threading

import pytest

from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit.models import (ONE, SAT, CanonicalCluster, KripkeModel, ModelBatch,
                              depth, enumerate_models, iter_bits, random_model)
from tanglekit.translate import translate
from tests.conftest import random_formula, random_tangle_dag


def p(text):
    return fm.parse_mu(text)


def worlds(model, mask):
    return set(model.mask_labels(mask))


class TestEval:
    def test_example_disjunction(self, cycle_model):
        assert worlds(cycle_model, sem.eval_mu(cycle_model, p("o | <> p"))) == {"0", "1"}

    def test_extremal_fixpoints(self, cycle_model):
        assert sem.eval_mu(cycle_model, p("mu x. x")) == 0
        assert sem.eval_mu(cycle_model, p("nu x. x")) == cycle_model.full_mask

    def test_double_diamond(self, cycle_model):
        assert worlds(cycle_model, sem.eval_mu(cycle_model, p("<> <> e"))) == {"0"}

    def test_unbound_variable(self, cycle_model):
        with pytest.raises(sem.UnboundVariableError):
            sem.eval_mu(cycle_model, fm.var("x"))

    def test_env_binding(self, cycle_model):
        assert sem.eval_mu(cycle_model, fm.var("x"), {"x": 0b01}) == 0b01

    def test_missing_prop_is_empty(self, cycle_model):
        assert sem.eval_mu(cycle_model, p("zzz")) == 0


class TestTangleDirect:
    def test_example_pair_even_odd(self, cycle_model):
        got = sem.eval_tangle_direct(cycle_model, [p("e"), p("o")])
        assert worlds(cycle_model, got) == {"0", "1"}

    def test_example_pair_odd_positive(self, cycle_model):
        got = sem.eval_tangle_direct(cycle_model, [p("o"), p("p")])
        assert got == 0

    def test_reflexive_singleton(self):
        m = KripkeModel(["w"], [(0, 0)], {"p": [0]})
        assert sem.eval_tangle_direct(m, [p("p")]) == 1

    def test_empty_multiset_rejected(self, cycle_model):
        with pytest.raises(ValueError):
            sem.eval_tangle_direct(cycle_model, [])

    def test_long_strict_chain_to_a_reflexive_top(self):
        # succ[i] = all j > i, and the top sees itself and satisfies p and q
        n = 1500
        full = (1 << n) - 1
        succ = [full >> i + 1 << i + 1 for i in range(n - 1)] + [1 << n - 1]
        top = 1 << n - 1
        m = KripkeModel([str(i) for i in range(n)], (), _masks=(succ, {"p": top, "q": top}))
        members = [p("p"), p("q")]
        assert sem.eval_tangle_direct(m, members) == full
        assert sem.eval_mu(m, fm.expand_tangle(members)) == full

    def test_matches_expansion_small(self):
        literals = [p("p"), p("~p"), p("q"), p("~q")]
        gammas = [[a] for a in literals]
        gammas += [[a, b] for i, a in enumerate(literals) for b in literals[i:]]
        for model in enumerate_models(["p", "q"], 2):
            for gamma in gammas:
                direct = sem.eval_tangle_direct(model, gamma)
                unfolded = sem.eval_mu(model, fm.expand_tangle(gamma))
                assert direct == unfolded

    def test_corrupted_expansion_differs(self, cycle_model):
        # joining the two tangle conjuncts with "or" instead of "and" breaks
        # the odd/positive example
        o, q = p("o"), p("p")
        x = fm.var("t")
        wrong = fm.nu("t", fm.big_or([
            fm.disj(fm.dot_diamond(fm.conj(o, x)), fm.diamond(fm.conj(q, x))),
            fm.disj(fm.dot_diamond(fm.conj(q, x)), fm.diamond(fm.conj(o, x)))]))
        assert sem.eval_mu(cycle_model, wrong) != sem.eval_tangle_direct(cycle_model, [o, q])


class TestTangleFormulaEval:
    def test_bottom_and_negation(self, cycle_model):
        assert sem.eval_tangle(cycle_model, fm.t_bot()) == 0
        assert sem.eval_tangle(cycle_model, fm.t_not(fm.t_prop("e"))) == 0b10

    def test_tangle_node(self, cycle_model):
        t = fm.t_tangle([fm.t_prop("e"), fm.t_prop("o")])
        assert sem.eval_tangle(cycle_model, t) == 0b11

    def test_matches_mu_image(self, cycle_model):
        t = fm.t_box(fm.t_or(fm.t_prop("e"), fm.t_dia(fm.t_prop("p"))))
        assert sem.eval_tangle(cycle_model, t) == sem.eval_mu(cycle_model, fm.to_mu(t))

    def test_random_dags_match_mu_image(self, models_pq3):
        rng = random.Random(31)
        roots = [root for _ in range(6) for root in random_tangle_dag(rng, 10)[-3:]]
        images = [fm.to_mu(t) for t in roots]
        for model in models_pq3:
            for t, image in zip(roots, images):
                assert sem.eval_tangle(model, t) == sem.eval_mu(model, image)

    def test_shared_cache_is_filled_and_agrees(self, models_pq3):
        # one run of six roots shares their steps: every step's value is
        # filled, and each node's value is its own on the batch
        roots = random_tangle_dag(random.Random(5), 16)[-6:]
        program = sem.compile_roots(roots)
        keys = [key for key, _, _ in program.steps]
        assert len(keys) == len(set(keys)) == len(program.index)
        for model in models_pq3[::7]:
            values = sem.run_program(model, program, sem._dia_mask, sem._box_mask)
            assert None not in values
            assert sem.eval_roots(model, program) == [sem.eval_tangle(model, t) for t in roots]
            for node, i in program.index.items():
                assert values[i] == sem.eval_tangle(model, node)

    def test_dags_longer_than_two_segments_match_mu_image(self, models_pq3):
        size = 128  # the program is longer than two blocks of this many steps
        pool = random_tangle_dag(random.Random(61), 3 * size)
        # One root over the whole pool, joined pairwise, so its program holds
        # every node and late steps read operands listed far before them.
        level = pool
        while len(level) > 1:
            level = [(fm.t_and if i % 4 else fm.t_or)(*level[i:i + 2])
                     if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        root = level[0]
        steps, _ = sem.mu_program([root])
        nodes = [node for node, _, _ in steps]
        index = {node: i for i, node in enumerate(nodes)}
        assert len(steps) > 2 * size
        assert any(index[c] // size < i // size - 1
                   for i, node in enumerate(nodes) for c in node.children())
        # every node as a root of one program, listed as the root's own, and
        # the nodes' mu images as one program of as many roots
        tangles = sem.compile_roots(nodes)
        assert tangles.steps == steps
        images = sem.compile_roots([fm.to_mu(node) for node in nodes])
        for model in models_pq3[::16]:
            values = sem.eval_roots(model, tangles)
            assert values[-1] == sem.eval_tangle(model, root)
            assert values == sem.eval_roots(model, images)

    @pytest.mark.parametrize("name", ["a'b", "v", "full", "x); import os #"])
    def test_atom_names_are_data_not_source(self, name):
        model = KripkeModel(["0", "1", "2"], [(0, 1), (0, 2), (1, 2), (2, 1)],
                            {name: [1], "q": [2]})
        atom = fm.t_prop(name)
        assert sem.eval_tangle(model, atom) == model.val[name]
        roots = []
        for t in (fm.t_dia(atom), fm.t_tangle([atom, fm.t_dia(atom)]),
                  fm.t_and(fm.t_not(atom), fm.t_tangle([atom, fm.t_prop("q")]))):
            image = fm.to_mu(t)
            assert sem.eval_tangle(model, t) == sem.eval_mu(model, image)
            roots += [image, t]
        # one program of both languages over the same atoms
        program = sem.compile_roots(roots)
        assert sem.eval_roots(model, program) == [sem.eval_mu(model, f) for f in roots]

    def test_tangle_geometry_is_built_only_for_tangle_steps(self):
        # the rows are kept once built; the tangle state lives for one run
        model = KripkeModel(["0", "1"], [(0, 1), (1, 0)], {"p": [0]})
        sem.eval_mu(model, p("nu x. (p & <> <> x)"))
        plain = fm.t_box(fm.t_or(fm.t_not(fm.t_prop("p")), fm.t_dia(fm.t_prop("p"))))
        assert sem.eval_tangle(model, plain) == sem.eval_mu(model, fm.to_mu(plain))
        assert model._tangle_rows is None
        t = fm.t_and(plain, fm.t_tangle([fm.t_prop("p"), fm.t_not(fm.t_prop("p"))]))
        assert sem.eval_tangle(model, t) == sem.eval_mu(model, fm.to_mu(t)) != 0
        rows = model._tangle_rows
        assert rows == ([3, 3], [2, 1], [3, 3])
        _assert_frame_data_only(model)
        assert sem.eval_tangle(model, t) != 0 and model.tangle_rows() is rows

    def test_deep_chain(self, cycle_model):
        # far beyond the interpreter's recursion limit
        t = fm.t_prop("e")
        want = cycle_model.val_mask("e")
        for i in range(5000):
            if i % 2:
                t = fm.t_not(t)
                want = cycle_model.full_mask & ~want
            else:
                t = fm.t_dia(t)
                want = sem.dia_image(cycle_model.succ, want)
        assert sem.eval_tangle(cycle_model, t) == want


@pytest.fixture(scope="module")
def models_pq3():
    return list(enumerate_models(["p", "q"], 3))


class TestExactFixpoints:
    def test_matches_iteration_on_small_models(self):
        rng = random.Random(2024)
        formulas = [random_formula(rng, ["p", "q"], rng.randint(1, 4))
                    for _ in range(30)]
        models = list(enumerate_models(["p", "q"], 2))
        for f in formulas:
            for m in models:
                assert sem.eval_mu(m, f) == sem.eval_mu_exact(m, f)

    def test_shadowing_and_shared_open_subterms(self):
        # `<> (p & x)` is shared between binders of x, and within one binder
        # it also sits under a nested binder it does not depend on
        shared = fm.diamond(fm.conj(fm.prop("p"), fm.var("x")))
        formulas = [
            p("nu x. (p & <> (mu x. (q | <> x)) & <> x)"),
            p("(nu x. (p & <> x)) | (mu x. (p & <> x))"),
            p("nu x. mu y. ((p & <> x) | (q & [] y))"),
            # a binder nested under a shadowing one: both orders of the names
            p("nu x. (p & mu x. mu y. ((q & x) | <> y))"),
            p("nu y. (p & mu y. mu x. ((q & y) | <> x))"),
            fm.nu("x", fm.disj(shared, fm.mu("y", fm.conj(shared, fm.box(fm.var("y")))))),
            fm.nu("x", fm.conj(shared, fm.mu("x", fm.disj(fm.prop("q"), shared)))),
        ]
        rng = random.Random(404)
        formulas += [random_formula(rng, ["p", "q"], rng.randint(2, 4), names=("x", "y"))
                     for _ in range(40)]
        # all the formulas as the roots of one program, whose walk keys an
        # open subterm per binding
        program = sem.compile_roots(formulas)
        for m in enumerate_models(["p", "q"], 2):
            want = [sem.eval_mu_exact(m, f) for f in formulas]
            assert [sem.eval_mu(m, f) for f in formulas] == want
            assert sem.eval_roots(m, program) == want

    @pytest.mark.parametrize("text", ["<> " * 5000 + "p",
                                      "mu x. " + "<> " * 5000 + "(p | x)"],
                             ids=["chain", "binder"])
    def test_deep_chain(self, text):
        # far beyond the interpreter's recursion limit, alone and in a binder
        m = KripkeModel(["a", "b"], [(0, 1), (1, 1)], {"p": [1]})
        f = p(text)
        assert sem.eval_mu_exact(m, f) == sem.eval_mu(m, f) == 0b11


class TestMuProgram:
    def test_deep_formula(self, cycle_model):
        # nu x. (p & <>^3000 x): far beyond the interpreter's recursion limit
        g = fm.var("x")
        for _ in range(3000):
            g = fm.diamond(g)
        f = fm.nu("x", fm.conj(fm.prop("p"), g))
        assert fm.free_vars(f) == frozenset()
        assert fm.prop_names(f) == {"p"}
        assert sem.eval_mu(cycle_model, f) == 0b10
        refl = KripkeModel(["w"], [(0, 0)], {"p": [0]})
        assert sem.eval_mu(refl, f) == 1

    def test_shared_cache_keeps_open_values_apart(self, cycle_model):
        x = fm.var("x")
        f = fm.conj(fm.nu("y", fm.disj(x, fm.diamond(fm.var("y")))), p("<> e"))
        # one program, shared by runs under different envs, with the closed
        # `<> e` as a root of its own
        program = sem.compile_roots([f, p("<> e")])
        for env in ({"x": 0b01}, {"x": 0b10}, {"x": 0}, {"x": 0b01}):
            assert sem.eval_roots(cycle_model, program, env) == [
                sem.eval_mu_exact(cycle_model, f, env), 0b10]

    def test_invariant_work_is_hoisted(self):
        # <> p does not depend on x, so it runs once, outside the loop
        program, _ = sem.mu_program([p("nu x. (<> p & <> x)")])
        assert [kind for _, kind, _ in program] == [fm.PROP, fm.DIA, fm.NU]
        _, _, (body, result) = program[-1]
        assert [kind for _, kind, _ in body] == [fm.DIA, fm.AND]
        assert body[-1][0] == result


def _alternating_nest(depth: int) -> fm.MuFormula:
    """`nu x0. mu x1. (((p & <> x0) | (q & [] x1)) & W2)`, where each W_k
    (2 <= k < depth) binds x_k and has x_(k-1) free, so it runs inside
    x_(k-1)'s loop: `nu xk. (xk | (x(k-1) & W(k+1)))` at even k, `mu xk.
    (xk & (x(k-1) | W(k+1)))` at odd k, and the innermost reads `<> x0`.
    A nu W is T and a mu W is F whatever their bodies, so the whole formula
    agrees with the two-binder core, and every W settles in one round."""
    inner = fm.diamond(fm.var("x0"))
    for k in range(depth - 1, 1, -1):
        x, outer = fm.var(f"x{k}"), fm.var(f"x{k - 1}")
        if k % 2:
            inner = fm.mu(f"x{k}", fm.conj(x, fm.disj(outer, inner)))
        else:
            inner = fm.nu(f"x{k}", fm.disj(x, fm.conj(outer, inner)))
    core = p("(p & <> x0) | (q & [] x1)")
    return fm.nu("x0", fm.mu("x1", fm.conj(core, inner) if depth > 2 else core))


def _binder_nesting(program: list) -> int:
    deepest = 0
    stack = [(program, 0)]
    while stack:
        steps, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((operand[0], depth + 1) for _, kind, operand in steps
                     if kind in (fm.MU, fm.NU))
    return deepest


class TestCompiledMu:
    @pytest.fixture(scope="class")
    def models_pq2(self):
        return list(enumerate_models(["p", "q"], 2))

    def test_forty_nested_alternating_binders(self, models_pq2):
        # The exact oracle enumerates every candidate of every binder, so it
        # runs on the two-binder core; a four-binder nest checks, against it
        # directly, that the W wrappers leave the core's value unchanged.
        nest, small = _alternating_nest(40), _alternating_nest(4)
        core = _alternating_nest(2)
        assert _binder_nesting(sem.mu_program([nest])[0]) == 40
        assert _binder_nesting(sem.mu_program([small])[0]) == 4
        for model in models_pq2:
            want = sem.eval_mu_exact(model, core)
            assert sem.eval_mu_exact(model, small) == want
            assert sem.eval_mu(model, small) == want
            assert sem.eval_mu(model, nest) == want
        assert {sem.eval_mu(m, core) for m in models_pq2} != {0}

    def test_binder_body_longer_than_two_segments(self, models_pq2):
        size = 128  # the body is longer than two blocks of this many steps
        first = fm.diamond(fm.var("x"))
        g = first
        for i in range(size + 8):
            if i % 2:
                g = fm.conj(fm.diamond(g), fm.prop("p"))
            else:
                g = fm.disj(fm.box(g), fm.prop("q"))
        # A late step reads `<> x`, one of the body's first, two blocks back.
        f = fm.nu("x", fm.disj(fm.conj(first, fm.prop("q")), g))
        _, _, (body, _) = sem.mu_program([f])[0][-1]
        position = {key: i for i, (key, _, _) in enumerate(body)}
        reads = [(i, a) for i, (_, kind, operand) in enumerate(body)
                 for a in (operand if kind in (fm.AND, fm.OR) else (operand,))]
        assert len(body) > 2 * size
        assert any(position[a] // size < i // size - 1
                   for i, a in reads if a in position)
        got = {}
        for model in models_pq2:
            got[model] = sem.eval_mu(model, f)
            assert got[model] == sem.eval_mu_exact(model, f)
        assert len(set(got.values())) > 2

    @pytest.mark.parametrize("name", ["a'b", "v", "full", "x); import os #"])
    def test_names_are_data_not_source(self, name):
        model = KripkeModel(["0", "1", "2"], [(0, 1), (0, 2), (1, 2), (2, 1)],
                            {name: [1], "q": [2]})
        atom, free = fm.prop(name), fm.var(name)
        env = {name: 0b101}
        formulas = [atom, fm.neg_prop(name), free, fm.diamond(atom),
                    fm.conj(free, fm.box(fm.disj(atom, fm.prop("q")))),
                    fm.nu("y", fm.conj(free, fm.diamond(fm.var("y")))),
                    fm.mu(name, fm.disj(fm.prop("q"), fm.diamond(free)))]
        tangles = [fm.t_dia(fm.t_prop(name)),
                   fm.t_tangle([fm.t_prop(name), fm.t_not(fm.t_prop("q"))])]
        for f in formulas:
            assert sem.eval_mu(model, f, env) == sem.eval_mu_exact(model, f, env)
        # one program of both languages over the same atoms and variable
        roots = formulas + tangles
        program = sem.compile_roots(roots)
        assert sem.eval_roots(model, program, env) == [sem.eval_mu(model, f, env)
                                                       for f in roots]
        assert sem.eval_roots(model, tangles) == [sem.eval_tangle(model, t) for t in tangles]
        assert sem.eval_mu(model, atom) == model.val[name]
        with pytest.raises(sem.UnboundVariableError, match="unbound variable"):
            sem.eval_mu(model, formulas[4])

    def test_custom_algebra_and_steps_shared_by_roots(self, cycle_model):
        calls = []

        def dia(model, s, key, memo):
            calls.append(("dia", key))
            return sem.dia_image(model.succ, s)

        def box(model, s, key, memo):
            calls.append(("box", key))
            return sem.box_image(model.succ, s)

        def run(*roots):
            calls.clear()
            program = sem.compile_roots(roots)
            # the algebra stores nothing, so every modal step calls it
            values = sem.run_program(cycle_model, program, dia, box)
            assert None not in values
            assert [values[i] for i in program.roots] == [
                sem.eval_mu(cycle_model, f) for f in roots]
            return list(calls)

        inner = p("<> e")
        looped = p("nu x. (<> e & [] x)")
        assert run(inner) == [("dia", p("e"))]
        # `[] x` reruns per round, keyed by its argument, the bound x, which
        # reads its binder's slot
        x_calls = run(looped)
        assert x_calls == [("dia", p("e"))] + [("box", looped)] * 3
        # a step shared by two roots calls the algebra once: `<> e` here,
        # and every step of a shared fixed point, while `[] x` still runs
        # once per round
        assert run(inner, looped) == x_calls
        assert run(looped, fm.disj(looped, p("[] o"))) == x_calls + [("box", p("o"))]
        # every run computes each of its steps afresh
        assert run(looped) == x_calls


def _every_kind_roots():
    """Mu and tangle roots that between them have all thirteen step kinds:
    binders nested and alternating, a binder read inside another's body, the
    free variable z, tangles of one, two and three members (one repeated),
    and a negation as a root."""
    a, b = fm.t_prop("p"), fm.t_prop("q")
    z = fm.var("z")
    mus = [p("nu x. mu y. ((p & <> x) | (q & [] y))"),
           p("mu x. (~q | [] (nu y. (x & <> y)))"),
           p("(T & <> p) | (F | [] ~p)"),
           fm.mu("y", fm.disj(fm.conj(z, fm.prop("p")), fm.diamond(fm.var("y")))),
           fm.nu("x", fm.conj(z, fm.mu("y", fm.disj(fm.var("x"), fm.box(fm.var("y"))))))]
    tangles = [fm.t_and(fm.t_tangle([a, fm.t_not(b)]),
                        fm.t_box(fm.t_or(b, fm.t_tangle([fm.t_dia(a)])))),
               fm.t_or(fm.t_tangle([a, a, fm.t_not(b)]),
                       fm.t_and(fm.t_top(), fm.t_not(fm.t_bot()))),
               fm.t_not(fm.t_dia(a))]
    return mus, tangles


def _kinds(program) -> set:
    kinds, bodies = set(), [program.steps]
    while bodies:
        for _, kind, operand in bodies.pop():
            kinds.add(kind)
            if kind in (fm.MU, fm.NU):
                bodies.append(operand[0])
    return kinds


class TestStepLoop:
    """The step loop over every step kind against the exact oracle, on
    models and on batches."""

    def test_every_step_kind_on_models(self):
        mus, tangles = _every_kind_roots()
        program = sem.compile_roots(mus + tangles)
        assert len(_kinds(program)) == 13
        images = mus + [fm.to_mu(t) for t in tangles]
        for m in enumerate_models(("p", "q"), 2):
            model = KripkeModel(m.labels, (), _masks=(m.succ, m.val))
            for z in {0, 1, model.full_mask}:
                env = {"z": z}
                v = sem.run_program(model, program, sem._dia_mask, sem._box_mask, env)
                assert [v[i] for i in program.roots] == [
                    sem.eval_mu_exact(model, f, env) for f in images]

    def test_every_closed_step_kind_on_batches(self):
        mus, tangles = _every_kind_roots()
        roots = [f for f in mus if not fm.free_vars(f)] + tangles
        program = sem.compile_roots(roots)
        assert _kinds(program) == _kinds(sem.compile_roots(mus + tangles)) - {fm.VAR}
        images = [f if isinstance(f, fm.MuFormula) else fm.to_mu(f) for f in roots]
        oracle = sem.compile_roots(images)
        batches: dict = {}
        for m in enumerate_models(("p", "q"), 3):
            batches.setdefault(m._batch, []).append(m)
        for batch, models in batches.items():
            v = sem.run_program(batch, program, sem._wide_dia, sem._wide_box)
            for m in models:
                fresh = KripkeModel(m.labels, (), _masks=(m.succ, m.val))
                want = ([sem.eval_mu_exact(fresh, f) for f in images] if m.n < 3 else
                        sem.eval_roots(fresh, oracle))
                assert [v[i] >> m._shift & m.full_mask for i in program.roots] == want

    @pytest.mark.parametrize("name", ["z", "a'b"])
    def test_unbound_variable_raises_the_same_error(self, name):
        f = fm.mu("y", fm.disj(fm.var(name), fm.diamond(fm.var("y"))))
        model = next(enumerate_models(("p",), 2))
        fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
        program = sem.compile_roots((p("<> p"), f))
        errors = []
        for target, dia, box in ((fresh, sem._dia_mask, sem._box_mask),
                                 (model._batch, sem._wide_dia, sem._wide_box)):
            with pytest.raises(sem.UnboundVariableError) as info:
                sem.run_program(target, program, dia, box)
            errors.append(str(info.value))
        assert errors == [f"unbound variable {name!r}"] * 2


class TestBisimulation:
    def test_self_bisimilar(self, cycle_model):
        rel = sem.bisimilar(cycle_model, cycle_model, ["e", "o", "p", "i"])
        assert rel is not None
        assert all((w, w) in rel for w in range(2))

    def test_two_point_cluster_vs_reflexive_point(self):
        two = KripkeModel(["a", "b"], [(0, 1), (1, 0)], {"p": [0, 1]})
        one = KripkeModel(["r"], [(0, 0)], {"p": [0]})
        assert sem.bisimilar(two, one, ["p"]) is not None

    def test_irreflexive_vs_reflexive_differ(self):
        irr = KripkeModel(["a"], [], {"p": [0]})
        refl = KripkeModel(["r"], [(0, 0)], {"p": [0]})
        assert sem.bisimilar(irr, refl, ["p"]) is None

    def test_atom_disagreement(self):
        a = KripkeModel(["a"], [], {"p": [0]})
        b = KripkeModel(["b"], [], {})
        assert sem.bisimilar(a, b, ["p"]) is None
        assert sem.bisimilar(a, b, []) is not None

    def test_restricted(self, cycle_model):
        # each singleton restriction is a one-world irreflexive model
        rel = sem.restricted_bisimilar(cycle_model, 0b01, cycle_model, 0b01, ["e"])
        assert rel is not None

    def test_truth_preserved_on_samples(self):
        rng = random.Random(77)
        for seed in range(30):
            m = random_model(["p", "q"], 5, seed)
            doubled = _double(m)
            rel = sem.bisimilar(m, doubled, ["p", "q"])
            assert rel is not None
            for _ in range(5):
                f = random_formula(rng, ["p", "q"], rng.randint(1, 4))
                lm = sem.eval_mu(m, f)
                rm = sem.eval_mu(doubled, f)
                for (u, v) in rel:
                    assert (lm >> u & 1) == (rm >> v & 1)


def _double(m):
    from tanglekit.models import disjoint_union
    return disjoint_union([m, m])


class TestClusterEmbeds:
    def test_reflexive(self):
        c = CanonicalCluster(("p",), ((("p",), ONE),))
        assert sem.cluster_embeds(c, c) == sem.EMBED_BISIMILAR

    def test_one_into_saturated(self):
        one = CanonicalCluster(("p",), ((("p",), ONE),))
        sat = CanonicalCluster(("p",), ((("p",), SAT),))
        assert sem.cluster_embeds(one, sat) == sem.EMBED_STRICT

    def test_saturated_not_into_one(self):
        one = CanonicalCluster(("p",), ((("p",), ONE),))
        sat = CanonicalCluster(("p",), ((("p",), SAT),))
        assert sem.cluster_embeds(sat, one) == sem.EMBED_NO


class TestFinality:
    def test_cycle_final_part(self, cycle_model):
        sigma = fm.sigma_closure(p("e | o"))
        assert sem.sigma_final_part(cycle_model, sigma) == 0b11

    def test_chain_keeps_top(self):
        m = KripkeModel(["w", "v"], [(0, 1)], {"p": [0, 1]})
        sigma = fm.sigma_closure(p("p"))
        final = sem.sigma_final_part(m, sigma)
        assert final >> 1 & 1
        assert not final >> 0 & 1

    def test_every_world_satisfies_some_member(self):
        # closures contain both polarities, so any world satisfies a member
        # and a lone cluster is always final; the empty model stays empty
        m = KripkeModel(["w"], [], {})
        sigma = fm.sigma_closure(p("p"))
        assert sem.sigma_final_part(m, sigma) == 1  # final through ~p
        empty = KripkeModel([], [], {})
        assert sem.sigma_final_part(empty, sigma) == 0

    def test_finality_is_cluster_wide(self):
        sigma = fm.sigma_closure(p("p"))
        for model in enumerate_models(["p"], 3):
            final = sem.sigma_final_part(model, sigma)
            for cluster in model.clusters():
                bits = [final >> w & 1 for w in cluster]
                assert len(set(bits)) == 1

    def test_semifinal(self, cycle_model):
        sigma = fm.sigma_closure(p("e"))
        assert sem.is_semifinal(cycle_model, 0, sigma)


class TestSigmaDepth:
    def test_nothing_above(self, cycle_model):
        sigma = fm.sigma_closure(p("e"))
        assert sem.sigma_depth(cycle_model, sigma, [0]) == 0

    def test_two_stack(self):
        # distinct finality witnesses per level: b is final through p (the
        # only p-world above the root), c through plain ~p at the top
        m = KripkeModel(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], {"p": [1]})
        sigma = fm.sigma_closure(p("p"))
        final = sem.sigma_final_part(m, sigma)
        assert final == 0b110
        assert sem.sigma_depth(m, sigma, [0]) == 2

    def test_retruthed_middle_level_not_final(self):
        # when the top re-satisfies everything the middle world does, the
        # middle world is not final and the depth collapses
        m = KripkeModel(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], {"p": [1, 2]})
        sigma = fm.sigma_closure(p("p"))
        assert not sem.sigma_final_part(m, sigma) >> 1 & 1
        assert sem.sigma_depth(m, sigma, [0]) == 1

    def test_empty_set_rejected(self, cycle_model):
        with pytest.raises(ValueError):
            sem.sigma_depth(cycle_model, fm.sigma_closure(p("e")), [])

    def test_long_strict_chain(self):
        # far beyond the interpreter's recursion limit: succ[i] = all j > i,
        # with p at the top world only
        n = 1500
        full = (1 << n) - 1
        succ = [full >> i + 1 << i + 1 for i in range(n)]
        m = KripkeModel([str(i) for i in range(n)], (), _masks=(succ, {"p": 1 << n - 1}))
        assert depth(m, [0]) == 1499
        assert m.clusters() == tuple((w,) for w in range(n))
        sigma = fm.sigma_closure(p("<> p"))
        assert sem.sigma_final_part(m, sigma) == _final_part_by_predecessors(m, sigma)
        assert sem.sigma_depth(m, sigma, [0]) == 2

    def test_final_part_matches_predecessor_rows(self):
        rng = random.Random(21)
        closures = [fm.sigma_closure(p(text)) for text in
                    ("<> p", "[] p", "nu x.(p & <> x)", "mu x.(q | <> x)", "<> (p & [] ~q)")]
        for seed in range(300):
            m = random_model(["p", "q"], rng.randint(1, 24), seed)
            for sigma in closures:
                assert sem.sigma_final_part(m, sigma) == _final_part_by_predecessors(m, sigma)

    def test_at_most_plain_depth(self):
        sigma = fm.sigma_closure(p("p"))
        for model in enumerate_models(["p"], 3):
            for w in range(model.n):
                assert (sem.sigma_depth(model, sigma, [w])
                        <= depth(model, [w]))


def _final_part_by_predecessors(m, sigma):
    """`sigma_final_part` read from the transposed relation: a world of a
    member's truth set is final when each of its successors there sees it."""
    pred = [0] * m.n
    for a in range(m.n):
        for b in iter_bits(m.succ[a]):
            pred[b] |= 1 << a
    out = 0
    for mask in sem.sigma_truth_masks(m, sigma).values():
        for w in iter_bits(mask):
            if not m.succ[w] & mask & ~pred[w]:
                out |= 1 << w
    return out


class TestDepthModality:
    def test_cycle_example(self, cycle_model):
        sigma = fm.sigma_closure(p("e | o"))
        member = sigma.member_of(p("e"))
        got = sem.eval_depth_modality(cycle_model, sigma, 0, member)
        assert got == 0b11

    def test_too_deep_is_empty(self, cycle_model):
        sigma = fm.sigma_closure(p("e"))
        assert sem.eval_depth_modality(cycle_model, sigma, 5, fm.top()) == 0

    def test_requires_membership(self, cycle_model):
        sigma = fm.sigma_closure(p("e"))
        with pytest.raises(KeyError):
            sem.eval_depth_modality(cycle_model, sigma, 0, p("zzz"))

    def test_cluster_constant(self):
        sigma = fm.sigma_closure(p("p"))
        for model in enumerate_models(["p"], 3):
            for n in (0, 1, 2):
                got = sem.eval_depth_modality(model, sigma, n, fm.top())
                for cluster in model.clusters():
                    bits = {got >> w & 1 for w in cluster}
                    assert len(bits) == 1

    def test_world_depths_computed_once_per_cache(self, monkeypatch):
        sigma = fm.sigma_closure(p("p"))
        other = fm.sigma_closure(p("<> p"))
        queries = [(s, n, m) for s in (sigma, other) for n in (0, 1, 2)
                   for m in [fm.top(), *s]]
        models = list(enumerate_models(["p"], 2))
        want = [[sem.eval_depth_modality(model, s, n, m, {}) for s, n, m in queries]
                for model in models]
        calls = []
        depths = sem.sigma_world_depths

        def counted(model, s, cache=None):
            calls.append((model, s))
            return depths(model, s, cache)

        monkeypatch.setattr(sem, "sigma_world_depths", counted)
        for model, expected in zip(models, want):
            cache: dict = {}
            assert [sem.eval_depth_modality(model, s, n, m, cache)
                    for s, n, m in queries] == expected
        assert calls == [(model, s) for model in models for s in (sigma, other)]


class TestPruning:
    def test_full_model_identity(self, cycle_model):
        sigma = fm.sigma_closure(p("p"))
        ok, witness = sem.prune_check(cycle_model, sigma, seed=1)
        assert ok and witness is None

    def test_random_models(self):
        sigma = fm.sigma_closure(p("p"))
        for seed in range(50):
            m = random_model(["p"], 6, seed)
            ok, witness = sem.prune_check(m, sigma, seed=seed)
            assert ok, witness


class TestWeakTransitivityAxiom:
    def test_axiom_valid_on_samples(self):
        axiom = p("~(<> <> p) | <.> p")  # diamond-diamond implies dotted diamond
        for seed in range(200):
            m = random_model(["p"], 6, seed)
            assert sem.eval_mu(m, axiom) == m.full_mask


# The three fuzz-equiv benchmark shapes, with atoms and polarities filled
# in, and two one-binder formulas.
MEMO_FORMULAS = [
    "nu x. mu y. ((p & <> x) | (q & [] y))",
    "mu x. nu y. ((~q | [] x) & (p | <> y))",
    "nu x. <> mu y. ((~p & x) | (q & <> y))",
    "nu x.(p & <> x)",
    "[] <> q",
]


class TestModalMemo:
    def test_shared_memos_match_fresh_models_and_the_oracle(self):
        formulas = [p(text) for text in MEMO_FORMULAS]
        count = 0
        for model in enumerate_models(("p", "q"), 3):
            fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
            for f in formulas:
                shared = sem.eval_mu(model, f)
                assert f in model._batch.results
                own = sem.eval_mu(fresh, f)
                exact = sem.eval_mu_exact(model, f)
                assert shared == own == exact, (
                    f"first mismatch: {model.to_dict()} on {fm.print_mu(f)}: "
                    f"batch {shared}, fresh model {own}, oracle {exact}")
            count += 1
        assert count == 2848

    def test_family_tangles_match_fresh_models_and_the_mu_image(self):
        a, b = fm.t_prop("p"), fm.t_prop("q")
        hand = [fm.t_tangle([a]), fm.t_tangle([a, a]), fm.t_tangle([a, fm.t_not(a)]),
                fm.t_tangle([a, a, fm.t_not(a)]), fm.t_tangle([fm.t_dia(a), b, b]),
                fm.t_dia(fm.t_tangle([fm.t_not(b), fm.t_dia(a)])),
                fm.t_and(fm.t_not(fm.t_tangle([b, fm.t_not(a)])),
                         fm.t_box(fm.t_tangle([a, b, a])))]
        chis = [translate(p(text))[0] for text in ("F", "p", "mu x.(p | <> x)")]
        images = {t: fm.to_mu(t) for t in hand + chis}
        count = 0
        for props, size in ((("p",), 4), (("p", "q"), 3)):
            for model in enumerate_models(props, size):
                fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
                for t in hand + chis:
                    packed = sem.eval_tangle(model, t)
                    own = sem.eval_tangle(fresh, t)
                    # the mu images of the larger chis are checked on the
                    # smaller models only, to keep the test short
                    image = (sem.eval_mu(fresh, images[t])
                             if t in hand or model.n < size else own)
                    assert packed == own == image, (
                        f"first mismatch: {model.to_dict()} on {repr(t)[:200]}: "
                        f"batch {packed}, fresh model {own}, mu image {image}")
                count += 1
        assert count == 5089 + 2848

    def test_calls_with_env_and_derived_models_agree(self):
        f = p("nu x. mu y. ((p & <> x) | (q & [] y))")
        t = fm.t_tangle([fm.t_prop("p"), fm.t_dia(fm.t_not(fm.t_prop("q")))])
        opened = fm.mu("y", fm.disj(fm.conj(fm.prop("p"), fm.diamond(fm.var("z"))),
                                    fm.conj(fm.prop("q"), fm.box(fm.var("y")))))
        both = sem.compile_roots((f, t))
        for model in enumerate_models(("p", "q"), 3):
            want_f, want_t = sem.eval_mu(model, f), sem.eval_tangle(model, t)
            assert sem.eval_roots(model, both) == [want_f, want_t]
            assert sem.eval_mu(model, f, {}) == want_f
            assert sem.eval_mu(model, t, {}) == want_t
            z = sem.eval_mu(model, p("<> q"))
            assert fm.free_vars(opened) == {"z"}
            assert sem.eval_mu(model, opened, {"z": z}) == sem.eval_mu_exact(
                model, opened, {"z": z})
            assert opened not in model._batch.results
            for derived in (model.close(), model.restrict(model.full_mask)):
                assert derived._batch is None
                assert sem.eval_mu(derived, f) == want_f
                assert sem.eval_tangle(derived, t) == want_t

    def test_unbound_variable_raises_the_same_error(self):
        f = fm.mu("y", fm.disj(fm.var("z"), fm.diamond(fm.var("y"))))
        model = next(enumerate_models(("p",), 2))
        fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
        errors = []
        for m in (model, model, fresh):
            with pytest.raises(sem.UnboundVariableError) as info:
                sem.eval_mu(m, f)
            errors.append(str(info.value))
        assert errors == ["unbound variable 'z'"] * 3
        assert f not in model._batch.results

    def test_oracle_reads_no_memo(self, cycle_model, monkeypatch):
        # a poisoned fast-path diamond changes eval_mu, not the oracle
        f = p("<> e")
        right = sem.eval_mu_exact(cycle_model, f)
        assert sem.eval_mu(cycle_model, f) == right
        monkeypatch.setattr(sem, "_dia_mask", lambda model, s, key, memo: right ^ model.full_mask)
        assert sem.eval_mu(cycle_model, f) == right ^ cycle_model.full_mask
        assert sem.eval_mu_exact(cycle_model, f) == right

    def test_tangle_steps_agree_with_a_memo_filled_by_mu_steps(self):
        # in one run of phi and chi, chi's steps read the memo entries that
        # phi's mu steps made first, and chi's value is the one it has alone
        # on a fresh model, and on the batch
        phi = p("<> p")
        chi, _ = translate(phi)
        both, alone = sem.compile_roots((phi, chi)), sem.compile_roots((chi,))
        shared = 0
        for model in enumerate_models(("p",), 3):
            fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
            images = ([], [])

            def dia(m, s, key, memo):
                images[m is fresh].append(s)
                return sem._dia_mask(m, s, key, memo)
            filled = sem.run_program(model, both, dia, sem._box_mask)
            empty = sem.run_program(fresh, alone, dia, sem._box_mask)
            assert filled[both.roots[1]] == empty[alone.roots[0]] == sem.eval_tangle(model, chi)
            # phi's `<> p` images first, and no mask is imaged twice in a run
            assert images[0][0] == model.val["p"] and len(set(images[0])) == len(images[0])
            shared += model.val["p"] in images[1]
        assert shared


class TestRunRule:
    """Memos live for one run, on models as on batches: every run makes
    its own, as locals, and nothing of it stays on the model or batch."""

    @pytest.fixture
    def memos(self, monkeypatch):
        # (target, memo) per call of the algebra; the memos are kept alive,
        # so no two of them share an id
        seen = []
        for name in ("_dia_mask", "_box_mask", "_wide_dia", "_wide_box"):
            def spy(target, s, key, memo, real=getattr(sem, name)):
                seen.append((target, memo))
                return real(target, s, key, memo)
            monkeypatch.setattr(sem, name, spy)
        return seen

    def test_every_entry_point_runs_with_its_own_memos(self, memos):
        f = p("nu x. mu y. ((p & <> x) | (q & [] y))")
        t = fm.t_tangle([fm.t_prop("p"), fm.t_dia(fm.t_not(fm.t_prop("q")))])
        opened = fm.mu("y", fm.disj(fm.var("z"), fm.diamond(fm.var("y"))))
        members = [p("p"), p("<> q")]
        calls = [lambda m: sem.eval_mu(m, f), lambda m: sem.eval_mu(m, f, {}),
                 lambda m: sem.eval_mu(m, opened, {"z": 1}),
                 lambda m: sem.eval_tangle(m, t), lambda m: sem.eval_roots(m, (f, t)),
                 lambda m: sem.eval_tangle_direct(m, members)]
        enumerated = list(enumerate_models(("p", "q"), 2))
        constructed = [KripkeModel(m.labels, (), _masks=(m.succ, m.val))
                       for m in enumerated[::3]]
        runs = []  # the memos handed to the algebra by each call
        for model in enumerated + constructed:
            for call in calls:
                start = len(memos)
                call(model)
                runs.append({id(memo) for _, memo in memos[start:]})
                _assert_frame_data_only(model)
            with pytest.raises(sem.UnboundVariableError):
                sem.eval_mu(model, opened)
            _assert_frame_data_only(model)
        assert {type(target) for target, _ in memos} == {KripkeModel, ModelBatch}
        # a diamond memo and a box memo per run of f; no two runs, and so
        # no two models, share one
        assert max(map(len, runs)) == 2
        assert sum(map(len, runs)) == len(set().union(*runs)) > 2 * len(calls)

    def test_a_run_nested_in_a_run_on_one_target(self):
        # the outer run's algebra first runs another root on the same model
        # (then on the same batch) and then stores into its own memo
        f = p("nu x. mu y. ((p & <> x) | (q & [] y))")
        inner = p("mu y. (p | <> y)")
        for model in [random_model(["p", "q"], 6, 3), list(enumerate_models(("p", "q"), 3))[-1]]:
            batch = model._batch
            want = sem.eval_mu(KripkeModel(model.labels, (), _masks=(model.succ, model.val)), f)
            real = sem._wide_dia if batch else sem._dia_mask
            nested = []

            def dia(m, s, key, memo):
                nested.append(sem.eval_mu(model, inner))
                return real(m, s, key, memo)
            program = sem.compile_roots((f,))
            v = sem.run_program(batch or model, program, dia,
                                sem._wide_box if batch else sem._box_mask)
            got = v[program.roots[0]]
            if batch:
                got = got >> model._shift & model.full_mask
            assert nested and got == sem.eval_mu(model, f) == want

    def test_threads_on_one_shared_model(self):
        model = random_model(["p", "q"], 12, 7)
        roots = [p("nu x. mu y. ((p & <> x) | (q & [] y))"),
                 p("mu x. nu y. ((p | <> x) & [] (q | y))"),
                 fm.t_and(fm.t_tangle([fm.t_prop("p"), fm.t_dia(fm.t_prop("q"))]),
                          fm.t_box(fm.t_not(fm.t_prop("q"))))]
        # built and listed before the threads start: only evaluation is
        # shared between them
        want = [sem.eval_mu(model, f) for f in roots]
        got, errors = [], []

        def work():
            try:
                for _ in range(100):
                    got.append([sem.eval_mu(model, f) for f in roots])
            except Exception as error:
                errors.append(error)
        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and got == [want] * 400
        _assert_frame_data_only(model)


# What a model or a batch may hold: its construction, the frame-derived
# clusters and tangle rows, an enumerated model's batch and copy offset,
# and a batch's packed root values
_MODEL_FIELDS = {"labels", "n", "succ", "val", "full_mask", "_batch", "_shift",
                 "_clusters", "_cluster_id", "_cluster_masks", "_tangle_rows"}
_BATCH_FIELDS = {"val", "full_mask", "dia_rows", "_firsts", "_tangle_rows", "results"}


def _assert_frame_data_only(model):
    assert set(vars(model)) <= _MODEL_FIELDS
    if model._batch is not None:
        assert set(ModelBatch.__slots__) == _BATCH_FIELDS
        assert all(type(value) is int for value in model._batch.results.values())


def _batch_formulas():
    """Mu and tangle roots for the batch tests: diamond and box, tangles
    with repeated members, a tangle read as its mu image inside a fixed
    point, and the three fuzz-equiv benchmark shapes."""
    a, b = fm.t_prop("p"), fm.t_prop("q")
    repeated = fm.t_tangle([a, a, fm.t_not(b)])
    tangles = [fm.t_dia(a), fm.t_box(fm.t_or(a, b)), repeated,
               fm.t_tangle([fm.t_dia(b), a, fm.t_dia(b)]),
               fm.t_box(fm.t_tangle([a, fm.t_tangle([b, b])])),
               fm.t_and(fm.t_dia(repeated), fm.t_not(fm.t_tangle([fm.t_not(a)])))]
    mus = [p("<> p"), p("[] p"), p("<> [] (p | q)"), p("[] <> ~p"),
           fm.mu("x", fm.disj(fm.to_mu(repeated), fm.diamond(fm.var("x")))),
           fm.nu("x", fm.conj(fm.to_mu(fm.t_tangle([a, fm.t_dia(b)])),
                              fm.box(fm.var("x"))))]
    return mus + [p(text) for text in MEMO_FORMULAS[:3]], tangles


class TestBatches:
    @pytest.mark.parametrize("props, size", [(("p", "q"), 3), (("p",), 4)])
    def test_batches_match_fresh_models(self, props, size):
        mus, tangles = _batch_formulas()
        shapes: dict = {}
        count = 0
        for model in enumerate_models(props, size):
            batch = model._batch
            shapes.setdefault(batch, set()).add(
                tuple(len(c) for c in model.clusters()))
            fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
            for f, run in [(f, sem.eval_mu) for f in mus] + [(t, sem.eval_tangle) for t in tangles]:
                packed, own = run(model, f), run(fresh, f)
                assert packed == own, (
                    f"first mismatch: {model.to_dict()} on {f}: batch {packed}, "
                    f"fresh model {own}")
                # nothing of a run stays on the model or its batch
                _assert_frame_data_only(model)
            count += 1
        assert count == {3: 2848, 4: 5089}[size]
        # some batches hold frames of different cluster shapes
        assert max(len(s) for s in shapes.values()) > 1

    def test_tangle_rows_are_built_by_the_first_tangle_step(self):
        mus, tangles = _batch_formulas()
        models = list(enumerate_models(("p", "q"), 3))
        batches: dict = {}
        for m in models:
            batches.setdefault(m._batch, {}).setdefault(m.succ, []).append(m)
        # a mu-only pass builds no batch's cluster rows
        for m in models:
            for f in mus:
                sem.eval_mu(m, f)
        assert all(batch._tangle_rows is None for batch in batches)
        for batch, frames in batches.items():
            model = next(iter(frames.values()))[0]
            sem.eval_tangle(model, tangles[0])  # a diamond, no tangle step
            assert batch._tangle_rows is None
            sem.eval_tangle(model, tangles[2])
            assert batch._tangle_rows is not None
            assert batch.tangle_rows() == _eager_tangle_rows(list(frames.values()))


def _eager_tangle_rows(frames):
    """A batch's `(cluster_rows, inside_rows, down_rows)` built from the
    models of each of its frames the way every batch once built them at
    construction."""
    n = frames[0][0].n
    succ, same = ([[0] * n for _ in range(n)] for _ in range(2))
    for models in frames:
        frame = models[0]
        first = sum(1 << m._shift for m in models)  # the copies' first bits
        for u, row in enumerate(frame.succ):
            for table, seen in ((succ, row), (same, frame.cluster_mask(u))):
                for v in iter_bits(seen):
                    table[u][v] |= first
    return tuple(tuple(tuple((v, m) for v, m in enumerate(row) if m) for row in table)
                 for table in (same,
                               [[r & c for r, c in zip(*rows)] for rows in zip(succ, same)],
                               [[r | c for r, c in zip(*rows)] for rows in zip(succ, same)]))


class TestSeveralRoots:
    def test_open_subterm_under_two_binders_gets_two_keys(self):
        least, greatest = p("mu x. (p | <> x)"), p("nu x. (p & <> x)")
        program = sem.compile_roots([least, greatest])
        bodies = [operand[0] for _, kind, operand in program.steps
                  if kind in (fm.MU, fm.NU)]
        keys = [key for body in bodies for key, kind, _ in body if kind == fm.DIA]
        assert len(keys) == 2 and keys[0] != keys[1]
        for model in enumerate_models(("p",), 3):
            assert sem.eval_roots(model, program) == [
                sem.eval_mu_exact(model, least), sem.eval_mu_exact(model, greatest)]

    def test_one_run_matches_single_roots_and_the_oracle(self):
        # random sets of mu and tangle roots, one program per set; each
        # root's value from one run against its own program on a fresh
        # model, and a mu root's against the exact oracle on every fourth
        # model (the oracle enumerates every candidate of every binder)
        rng = random.Random(2026)
        mus = [p(text) for text in MEMO_FORMULAS]
        mus += [p("mu x. (p | <> x)"), p("nu x. (p & <> x)")]  # `<> x` under both
        pool = mus + random_tangle_dag(rng, 30)[3:]
        sets = [mus[-2:]] + [rng.sample(pool, rng.randint(2, 9)) for _ in range(9)]
        programs = [sem.compile_roots(roots) for roots in sets]
        for i, model in enumerate(enumerate_models(("p", "q"), 3)):
            fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
            single: dict = {}
            for roots, program in zip(sets, programs):
                for f, got in zip(roots, sem.eval_roots(model, program)):
                    if f not in single:
                        single[f] = sem.eval_mu(fresh, f)
                        if type(f) is fm.MuFormula and i % 4 == 0:
                            assert got == sem.eval_mu_exact(model, f)
                    assert got == single[f], f"first mismatch: {model.to_dict()} on {f}"
