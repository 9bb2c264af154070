import random

import pytest

from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit.models import (ONE, SAT, CanonicalCluster, KripkeModel,
                              enumerate_models, random_model)
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
        roots = random_tangle_dag(random.Random(5), 16)[-6:]
        for model in models_pq3[::7]:
            cache: dict = {}
            for t in roots:
                assert sem.eval_tangle(model, t, cache) == sem.eval_tangle(model, t)
                assert all(node in cache for node, _, _ in sem.mu_program(t))

    def test_dags_longer_than_two_segments_match_mu_image(self, models_pq3):
        size = sem.SEGMENT_STEPS
        pool = random_tangle_dag(random.Random(61), 3 * size)
        # One root over the whole pool, joined pairwise, so its program holds
        # every node and late steps read operands from early segments.
        level = pool
        while len(level) > 1:
            level = [(fm.t_and if i % 4 else fm.t_or)(*level[i:i + 2])
                     if i + 1 < len(level) else level[i]
                     for i in range(0, len(level), 2)]
        root = level[0]
        program = sem.mu_program(root)
        index = {node: i for i, (node, _, _) in enumerate(program)}
        assert len(program) > 2 * size
        assert any(index[c] // size < i // size - 1
                   for i, (node, _, _) in enumerate(program) for c in node.children())
        images = {node: fm.to_mu(node) for node in index}
        for model in models_pq3[::16]:
            values: dict = {}
            assert sem.eval_tangle(model, root, values) == sem.eval_tangle(model, root)
            mu_cache: dict = {}
            for node, image in images.items():
                assert values[node] == sem.eval_mu(model, image, None, mu_cache)

    @pytest.mark.parametrize("name", ["a'b", "v", "full", "x); import os #"])
    def test_atom_names_are_data_not_source(self, name):
        model = KripkeModel(["0", "1", "2"], [(0, 1), (0, 2), (1, 2), (2, 1)],
                            {name: [1], "q": [2]})
        atom = fm.t_prop(name)
        assert sem.eval_tangle(model, atom) == model.val[name]
        # one store shared by both languages over the same atoms
        store: dict = {}
        for t in (fm.t_dia(atom), fm.t_tangle([atom, fm.t_dia(atom)]),
                  fm.t_and(fm.t_not(atom), fm.t_tangle([atom, fm.t_prop("q")]))):
            image = fm.to_mu(t)
            assert sem.eval_tangle(model, t) == sem.eval_mu(model, image)
            assert name in sem._mu_segments(t)[-1]
            assert sem.eval_mu(model, image, None, store) == sem.eval_mu(model, image)
            assert sem.eval_tangle(model, t, store) == sem.eval_tangle(model, t)

    def test_tangle_geometry_is_built_only_for_tangle_steps(self):
        model = KripkeModel(["0", "1"], [(0, 1), (1, 0)], {"p": [0]})
        sem.eval_mu(model, p("nu x. (p & <> <> x)"))
        plain = fm.t_box(fm.t_or(fm.t_not(fm.t_prop("p")), fm.t_dia(fm.t_prop("p"))))
        assert sem.eval_tangle(model, plain) == sem.eval_mu(model, fm.to_mu(plain))
        assert model._tangle is None
        t = fm.t_and(plain, fm.t_tangle([fm.t_prop("p"), fm.t_not(fm.t_prop("p"))]))
        assert sem.eval_tangle(model, t) == sem.eval_mu(model, fm.to_mu(t)) != 0
        assert model._tangle is not None

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
                want = sem._dia_mask(cycle_model, want)
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
        for m in enumerate_models(["p", "q"], 2):
            cache: dict = {}
            for f in formulas:
                want = sem.eval_mu_exact(m, f)
                assert sem.eval_mu(m, f) == want
                assert sem.eval_mu(m, f, None, cache) == want


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
        cache: dict = {}
        for env in ({"x": 0b01}, {"x": 0b10}, {"x": 0}, {"x": 0b01}):
            assert sem.eval_mu(cycle_model, f, env, cache) == sem.eval_mu(cycle_model, f, env)
        # values of closed nodes are kept for later calls
        assert cache[p("<> e")] == 0b10

    def test_invariant_work_is_hoisted(self):
        # <> p does not depend on x, so it runs once, outside the loop
        program = sem.mu_program(p("nu x. (<> p & <> x)"))
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
        assert _binder_nesting(sem.mu_program(nest)) == 40
        assert _binder_nesting(sem.mu_program(small)) == 4
        for model in models_pq2:
            want = sem.eval_mu_exact(model, core)
            assert sem.eval_mu_exact(model, small) == want
            assert sem.eval_mu(model, small) == want
            assert sem.eval_mu(model, nest) == want
        assert {sem.eval_mu(m, core) for m in models_pq2} != {0}

    def test_binder_body_longer_than_two_segments(self, models_pq2):
        size = sem.SEGMENT_STEPS
        first = fm.diamond(fm.var("x"))
        g = first
        for i in range(size + 8):
            if i % 2:
                g = fm.conj(fm.diamond(g), fm.prop("p"))
            else:
                g = fm.disj(fm.box(g), fm.prop("q"))
        # A late step reads `<> x`, one of the body's first, two segments back.
        f = fm.nu("x", fm.disj(fm.conj(first, fm.prop("q")), g))
        _, _, (body, _) = sem.mu_program(f)[-1]
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
        # one store shared by both languages over the same atoms
        store: dict = {}
        tangles = [fm.t_dia(fm.t_prop(name)),
                   fm.t_tangle([fm.t_prop(name), fm.t_not(fm.t_prop("q"))])]
        for f, t in zip(formulas, tangles * len(formulas)):
            assert sem.eval_mu(model, f, env) == sem.eval_mu_exact(model, f, env)
            if name in fm.free_vars(f) | fm.prop_names(f):
                assert name in sem._mu_segments(f)[-1]
            assert sem.eval_mu(model, f, env, store) == sem.eval_mu(model, f, env)
            assert sem.eval_tangle(model, t, store) == sem.eval_tangle(model, t)
        assert sem.eval_mu(model, atom) == model.val[name]
        with pytest.raises(sem.UnboundVariableError, match="unbound variable"):
            sem.eval_mu(model, formulas[4])

    def test_custom_algebra_and_the_store(self, cycle_model):
        calls = []

        def dia(model, s, key):
            calls.append(("dia", key))
            return sem._dia_mask(model, s)

        def box(model, s, key):
            calls.append(("box", key))
            return sem._box_mask(model, s)

        def run(f, values):
            calls.clear()
            # empty memos, so that every modal step calls the algebra
            got = sem.run_program(cycle_model, f, values, dia, box, {}, {})
            assert got == sem.eval_mu(cycle_model, f)
            return list(calls)

        inner = p("<> e")
        looped = p("nu x. (<> e & [] x)")
        values: dict = {}
        assert run(inner, values) == [("dia", p("e"))]
        # `<> e` is in the store but recomputed; `[] x` reruns per round,
        # keyed by its argument, the bound x, which reads its binder's slot
        x_calls = run(looped, values)
        assert x_calls == [("dia", p("e"))] + [("box", looped)] * 3
        assert values[looped] == sem.eval_mu(cycle_model, looped)
        assert all(key in values for key, _, _ in sem.mu_program(looped))
        # a closed fixed point in the store is not iterated again, while the
        # steps outside it are recomputed
        assert run(fm.disj(looped, p("[] o")), values) == [("box", p("o")),
                                                           ("dia", p("e"))]
        # the root in the store is returned at once
        assert run(looped, values) == []
        # without a store every node is computed and nothing is kept
        assert run(looped, None) == x_calls


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

    def test_at_most_plain_depth(self):
        from tanglekit.models import depth
        sigma = fm.sigma_closure(p("p"))
        for model in enumerate_models(["p"], 3):
            for w in range(model.n):
                assert (sem.sigma_depth(model, sigma, [w])
                        <= depth(model, [w]))


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
                assert f in model._family.results
                own = sem.eval_mu(fresh, f)
                exact = sem.eval_mu_exact(model, f)
                assert shared == own == exact, (
                    f"first mismatch: {model.to_dict()} on {fm.print_mu(f)}: "
                    f"family {shared}, fresh model {own}, oracle {exact}")
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
                    family = sem.eval_tangle(model, t)
                    own = sem.eval_tangle(fresh, t)
                    # the mu images of the larger chis are checked on the
                    # smaller models only, to keep the test short
                    image = (sem.eval_mu(fresh, images[t])
                             if t in hand or model.n < size else own)
                    assert family == own == image, (
                        f"first mismatch: {model.to_dict()} on {fm.print_tangle(t)[:200]}: "
                        f"family {family}, fresh model {own}, mu image {image}")
                count += 1
        assert count == 5089 + 2848

    def test_calls_with_env_or_cache_and_derived_models_agree(self):
        f = p("nu x. mu y. ((p & <> x) | (q & [] y))")
        t = fm.t_tangle([fm.t_prop("p"), fm.t_dia(fm.t_not(fm.t_prop("q")))])
        opened = fm.mu("y", fm.disj(fm.conj(fm.prop("p"), fm.diamond(fm.var("z"))),
                                    fm.conj(fm.prop("q"), fm.box(fm.var("y")))))
        for model in enumerate_models(("p", "q"), 3):
            want_f, want_t = sem.eval_mu(model, f), sem.eval_tangle(model, t)
            assert sem.eval_mu(model, f, None, {}) == want_f
            assert sem.eval_mu(model, f, {}) == want_f
            assert sem.eval_tangle(model, t, {}) == want_t
            z = sem.eval_mu(model, p("<> q"))
            assert fm.free_vars(opened) == {"z"}
            assert sem.eval_mu(model, opened, {"z": z}) == sem.eval_mu_exact(
                model, opened, {"z": z})
            assert opened not in model._family.results
            for derived in (model.close(), model.restrict(model.full_mask)):
                assert derived._family is None
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
        assert f not in model._family.results

    def test_oracle_reads_no_memo(self, cycle_model):
        f = p("<> e")
        right = sem.eval_mu_exact(cycle_model, f)
        assert sem.eval_mu(cycle_model, f) == right
        cycle_model._dia[cycle_model.val["e"]] = right ^ cycle_model.full_mask
        assert sem.eval_mu(cycle_model, f) == right ^ cycle_model.full_mask
        assert sem.eval_mu_exact(cycle_model, f) == right

    def test_tangle_steps_agree_with_a_memo_filled_by_eval_mu(self):
        phi = p("<> p")
        chi, _ = translate(phi)
        for model in enumerate_models(("p",), 3):
            fresh = KripkeModel(model.labels, (), _masks=(model.succ, model.val))
            # a call with a cache takes the per-model path, which fills the
            # frame's memo; a call without one reads the model's family
            sem.eval_mu(model, phi, None, {})
            assert model._dia
            filled: dict = {}
            empty: dict = {}
            assert sem.eval_tangle(model, chi, filled) == sem.eval_tangle(fresh, chi, empty)
            assert filled == empty
