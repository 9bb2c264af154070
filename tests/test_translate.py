import hashlib

import pytest

from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit.models import SAT, enumerate_models, iter_bits
from tanglekit.translate import (CHAIN_REFL, CHAIN_STRICT,
                                 TranslationGuardError, TranslationGuards,
                                 Translator, format_tangle_dag,
                                 size_bound_exponent, size_bound_ok, translate)


def p(text):
    return fm.parse_mu(text)


@pytest.fixture(scope="module")
def tr_p():
    translator = Translator(fm.sigma_closure(fm.prop("p")))
    translator.build()
    return translator


class TestPairs:
    def test_depth_zero_pairs(self, tr_p):
        # one satisfaction pair per canonical cluster, no facts above
        assert len(tr_p.pairs[0]) == 8
        for pair in tr_p.pairs[0].values():
            assert pair.final
            assert pair.theta == 0
            assert pair.depth == 0

    def test_depth_zero_augmented_facts_match_truths(self, tr_p):
        # fact bit depth * M + i: member i holds at that depth
        width = len(tr_p.members)
        for pair in tr_p.sat_pairs[0]:
            expect = {(0, i) for tr in pair.truths.values() for i in iter_bits(tr)}
            assert {divmod(b, width) for b in iter_bits(pair.theta_c)} == expect

    def test_cardinality_bound(self, tr_p):
        # |pairs at depth k| is at most 3^(2^|P|) * 2^|Sigma| * (k+1)
        cap = (3 ** (2 ** 1)) * (2 ** 14)
        for k in range(len(tr_p.pairs)):
            assert len(tr_p.pairs[k]) <= cap * (k + 1)

    def test_summary_matches_witness_model_checking(self, tr_p):
        for pair in tr_p.sat_pairs[0]:
            tr_p.verify_pair(pair)
        # spot-check deeper levels, both kinds
        for depth in range(1, len(tr_p.pairs)):
            sample = (tr_p.sat_pairs[depth][:4] + tr_p.semi_pairs[depth][:4])
            for pair in sample:
                tr_p.verify_pair(pair)

    def test_every_pair_matches_witness_model_checking(self):
        # root blocks are evaluated once per (cluster, facts above); most
        # pairs reuse a block filled for another fact profile, and each must
        # still agree with model checking its own materialized witness
        _, translator = translate(p("<> p"))
        pairs = [pair for table in translator.pairs for pair in table.values()]
        inputs = set()
        for pair in pairs:
            sky = 0
            for comp in pair.components:
                sky |= comp.sky
            inputs.add((pair.cluster, sky))
        assert len(pairs) == 5872
        assert len(inputs) == 192
        for pair in pairs:
            translator.verify_pair(pair)

    def test_facts_always_inhabit_every_level(self, tr_p):
        width = len(tr_p.members)
        for depth in range(len(tr_p.pairs)):
            for pair in tr_p.pairs[depth].values():
                levels = {b // width for b in iter_bits(pair.theta)}
                assert levels == set(range(depth))


class TestChains:
    def test_depth_zero_chains_wrap_pairs(self, tr_p):
        assert len(tr_p.chains[0]) == len(tr_p.sat_pairs[0])
        for chain in tr_p.chains[0]:
            assert chain.depth == 0
            assert chain.pairs() == (chain.root,)

    def test_chain_length_matches_depth(self, tr_p):
        for d in range(len(tr_p.chains)):
            for chain in tr_p.chains[d]:
                assert chain.depth == d
                assert len(chain.pairs()) == d + 1

    def test_chain_cardinality_bound(self, tr_p):
        bound = 1
        for k in range(len(tr_p.chains)):
            bound *= max(1, len(tr_p.pairs[k]))
            assert len(tr_p.chains[k]) <= bound

    def test_chain_facts_grow_strictly(self, tr_p):
        for d in range(1, len(tr_p.chains)):
            for chain in tr_p.chains[d]:
                # the parent's augmented facts are a subset of the root's
                assert chain.parent.root.theta_c & ~chain.root.theta == 0
                assert chain.root.theta != chain.parent.root.theta

    def test_chain_order(self, tr_p):
        for chain in tr_p.chains[0]:
            assert tr_p.chain_order(chain, chain) == CHAIN_REFL
        one = [c for c in tr_p.chains[0]
               if all(mult != SAT for _, mult in c.root.cluster.entries)]
        for c1 in one:
            bigger = [c2 for c2 in tr_p.chains[0]
                      if tr_p.chain_order(c1, c2) == CHAIN_STRICT]
            assert bigger  # every all-one cluster embeds into its saturation


class TestStructuralFormulas:
    def test_empty_facts_formula_is_top(self, tr_p):
        assert tr_p.a_formula(0) is fm.t_top()

    def test_facts_formula_levels(self, tr_p):
        pair = tr_p.sat_pairs[1][0]
        a = tr_p.a_formula(pair.theta)
        # mentions only depth-0 observations, one polarity per member
        assert a.kind in (fm.AND, fm.NOT, fm.OR, fm.TANGLE, fm.TOP)

    def test_ir_needs_unique_irreflexive_point(self, tr_p):
        for d in range(1, len(tr_p.chains)):
            for chain in tr_p.chains[d]:
                if all(mult == SAT for _, mult in chain.root.cluster.entries):
                    assert not tr_p.ir_flag(chain)

    def test_depth_formula_of_bottom_is_bottom(self):
        translator = Translator(fm.sigma_closure(fm.bot()))
        translator.build()
        bottom = translator.sigma.member_of(fm.bot())
        assert translator.depth_formula(0, bottom) is fm.t_bot()

    def test_depth_formula_beyond_tables_is_bottom(self, tr_p):
        assert tr_p.depth_formula(99) is fm.t_bot()

    def test_alpha_in_tangle_fragment(self, tr_p):
        for chain in tr_p.chains[0][:3] + tr_p.chains[1][:3]:
            image = fm.to_mu(tr_p.delta_formula(chain))
            assert fm.in_tangle_fragment(image)

    def test_split_beyond_tables(self, tr_p):
        beyond = tr_p.split_formula(len(tr_p.chains) + 1)
        assert beyond is fm.t_bot()


class TestDepthFormulaSemantics:
    def test_matches_depth_modality_small(self, tr_p):
        sigma = tr_p.sigma
        bad = 0
        for model in enumerate_models(["p"], 2):
            cache, tcache = {}, {}
            for n in (0, 1):
                for member in sigma:
                    want = sem.eval_depth_modality(model, sigma, n, member, cache)
                    got = sem.eval_tangle(model, tr_p.depth_formula(n, member), tcache)
                    bad += want != got
        assert bad == 0

    def test_split_detects_non_finality(self, tr_p):
        # where the depth guards hold and the split formula fires, the world
        # is not in the final part
        sigma = tr_p.sigma
        checked = 0
        for model in enumerate_models(["p"], 3):
            cache, tcache = {}, {}
            final = sem.sigma_final_part(model, sigma, cache)
            for n in (0, 1, 2):
                guard = (sem.eval_tangle(model, tr_p.depth_formula(n), tcache)
                         & ~sem.eval_tangle(model, tr_p.depth_formula(n + 1), tcache))
                fired = guard & sem.eval_tangle(model, tr_p.split_formula(n), tcache)
                checked += bin(fired).count("1")
                assert fired & final == 0
        assert checked > 0


class TestCharacteristic:
    def test_bottom_translates_to_bottom(self):
        chi, _ = translate(fm.bot())
        assert chi is fm.t_bot()

    def test_chi_of_p_equivalent_small(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        for model in enumerate_models(["p"], 3):
            assert sem.eval_mu(model, fm.prop("p")) == sem.eval_tangle(model, chi)

    def test_chi_is_tangle_syntax(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        image = fm.to_mu(chi)
        assert fm.in_tangle_fragment(image)
        assert fm.alternation_free(image)

    def test_chi_requires_membership(self, tr_p):
        with pytest.raises(KeyError):
            tr_p.characteristic(fm.prop("zzz"))

    def test_eval_triples(self, tr_p):
        triples = tr_p.eval_triples(fm.prop("p"))
        assert triples
        index = tr_p.members.index(tr_p.rep_of[tr_p.sigma.member_of(fm.prop("p"))])
        for val, chain, theta in triples:
            if chain is None:
                assert theta  # non-final roots sit at depth >= 1
            else:
                assert chain.root.theta == theta
                # p holds in the root class of the triple
                assert chain.root.truths[val] >> index & 1
        # the root valuation of every triple where p holds contains p
        assert all("p" in val for val, _, _ in triples)

    def test_member_identification_is_sound(self):
        # the seed fixed point and its unfolded body share a representative
        translator = Translator(fm.sigma_closure(p("nu x.(p & <> x)")))
        seed = translator.sigma.member_of(p("nu x.(p & <> x)"))
        body = translator.sigma.member_of(fm.unfold_with_fresh(seed))
        assert translator.rep_of[seed] is translator.rep_of[body]

    def test_guards_fire(self):
        guards = TranslationGuards(max_thetas=5)
        with pytest.raises(TranslationGuardError) as err:
            translate(p("nu x.(p & <> x)"), guards)
        assert err.value.table in ("thetas", "pairs", "chains")


class TestSizeBound:
    def test_bound_value(self):
        assert size_bound_exponent(fm.prop("p")) == 15 * (1 << 20)

    def test_translations_within_bound(self, tr_p):
        phi = fm.prop("p")
        chi = tr_p.characteristic(phi)
        assert size_bound_ok(phi, chi)
        assert fm.size(chi) >= fm.tangle_dag_nodes(chi)

    def test_exact_arithmetic_beyond_machine_words(self):
        # the comparison is exact for arbitrarily large tree sizes
        deep = fm.t_prop("p")
        for _ in range(200):
            deep = fm.t_and(deep, deep)
        assert fm.size(deep) == 2 ** 201 - 1
        # and a chain far beyond the interpreter's recursion limit is sized
        # without recursing
        chain = fm.t_prop("size_chain")
        for i in range(5000):
            chain = fm.t_not(chain) if i % 2 else fm.t_dia(chain)
        assert fm.size(chain) == 5001


class TestDagOutput:
    def test_shared_subterms_named(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        text = format_tangle_dag(chi)
        assert text.splitlines()[-1].startswith("chi = ")
        assert "let d0 = " in text

    def test_deterministic(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        assert format_tangle_dag(chi) == format_tangle_dag(chi)

    # sha256 of the DAG text as first recorded for the benchmark; the
    # output must stay byte-identical
    @pytest.mark.parametrize("text, digest", [
        ("F", "8c6cf1045285f9e829575fa7940ac1910c0477fda2df189f2714d40ba86aeaf2"),
        ("p", "d63b6ad1a55b71cc02093bc4af821c46e75bd84918c7e46354c792ffcf7d6405"),
        ("mu x.(p | <> x)",
         "8b9352ba4fa58bc4ea86fc409b5a03bcfee964d15939e29c95234bc3c24b21eb"),
        ("<> p", "c5647d3ce5c92886808e0ceff35b99d44291b279f36ed147a98f7bae4eacebb3"),
        ("[] p", "620dd8b1e80a8c7b351e0a1e22acda6bc9d89a586d2aed287348c2b8e5535c71"),
        ("nu x.(p & <> x)",
         "097ea078b99a1f8c9cec49360e8813861136d4d767af60e7e2d2c0114d457a0e"),
    ])
    def test_pinned_output(self, text, digest):
        chi, _ = translate(p(text))
        text_out = format_tangle_dag(chi)
        assert hashlib.sha256(text_out.encode()).hexdigest() == digest
