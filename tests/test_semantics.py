import random

import pytest

from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit.models import (ONE, SAT, CanonicalCluster, KripkeModel,
                              enumerate_models, random_model)
from tests.conftest import random_formula


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
        roots = [root for _ in range(6) for root in _random_tangle_dag(rng, 10)[-3:]]
        images = [fm.to_mu(t) for t in roots]
        for model in models_pq3:
            for t, image in zip(roots, images):
                assert sem.eval_tangle(model, t) == sem.eval_mu(model, image)

    def test_shared_cache_is_filled_and_agrees(self, models_pq3):
        roots = _random_tangle_dag(random.Random(5), 16)[-6:]
        for model in models_pq3[::7]:
            cache: dict = {}
            for t in roots:
                assert sem.eval_tangle(model, t, cache) == sem.eval_tangle(model, t)
                assert all(node in cache for node, _, _ in sem._tangle_program(t))

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


def _random_tangle_dag(rng: random.Random, steps: int) -> list:
    """Tangle formulas over p and q, each built from earlier ones, so later
    nodes share subterms; tangles have 1-4 members, possibly repeated."""
    pool = [fm.t_prop("p"), fm.t_prop("q"), fm.t_top()]
    for _ in range(steps):
        kind = rng.choice(["not", "and", "or", "dia", "box", "tangle", "tangle"])
        if kind == "tangle":
            pool.append(fm.t_tangle(rng.choices(pool, k=rng.randint(1, 4))))
        elif kind in ("and", "or"):
            build = fm.t_and if kind == "and" else fm.t_or
            pool.append(build(rng.choice(pool), rng.choice(pool)))
        else:
            build = {"not": fm.t_not, "dia": fm.t_dia, "box": fm.t_box}[kind]
            pool.append(build(rng.choice(pool)))
    return pool


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
