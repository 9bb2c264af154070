import gc
import hashlib
import random
import sys
import weakref

import pytest

from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit import translate as translate_module
from tanglekit.models import SAT, enumerate_models, iter_bits
from tanglekit.translate import (CHAIN_REFL, CHAIN_STRICT,
                                 TranslationGuardError, TranslationGuards,
                                 Translator, decimal_digits, format_tangle_dag,
                                 size_bound_exponent, size_bound_ok, translate)
from tests.conftest import random_tangle_dag


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
        for pair in tr_p.pairs[0].values():
            expect = {(0, i) for tr in pair.truths.values() for i in iter_bits(tr)}
            assert {divmod(b, width) for b in iter_bits(pair.theta_c)} == expect

    def test_cardinality_bound(self, tr_p):
        # |cells at depth k| is at most 3^(2^|P|) * 2^|Sigma| * (k+1)
        cap = (3 ** (2 ** 1)) * (2 ** 14)
        for k in range(len(tr_p.cells)):
            assert len(tr_p.cells[k]) * len(tr_p.clusters) <= cap * (k + 1)

    def test_only_final_pairs_are_stored(self, tr_p):
        for depth in range(len(tr_p.cells)):
            finals = [pair for pair in tr_p.cell_pairs(depth) if pair.final]
            assert [(pair.cluster, pair.theta) for pair in finals] == list(tr_p.pairs[depth])
            assert all(pair.final for pair in tr_p.pairs[depth].values())

    def test_summary_matches_witness_model_checking(self, tr_p):
        for pair in tr_p.pairs[0].values():
            tr_p.verify_pair(pair)
        # spot-check deeper levels, both kinds
        for depth in range(1, len(tr_p.cells)):
            cells = list(tr_p.cell_pairs(depth))
            finals = [pair for pair in cells if pair.final][:4]
            semis = [pair for pair in cells if not pair.final][:4]
            assert semis and (finals or depth == len(tr_p.cells) - 1)
            for pair in finals + semis:
                tr_p.verify_pair(pair)

    def test_every_pair_matches_witness_model_checking(self):
        # root blocks are evaluated once per (cluster, facts above); most
        # cells reuse a block filled for another fact profile, and each
        # cell's pair, final or not, must still agree with model checking
        # its own materialized witness
        _, translator = translate(p("<> p"))
        pairs = [pair for depth in range(len(translator.cells))
                 for pair in translator.cell_pairs(depth)]
        inputs = set()
        for pair in pairs:
            sky = 0
            for comp in pair.components:
                sky |= comp.sky
            inputs.add((pair.cluster, sky))
        assert len(pairs) == 5872
        assert len(inputs) == 192 == translator.report()["block_inputs"]
        for pair in pairs:
            translator.verify_pair(pair)

    def test_witness_guard_fires_before_building(self, tr_p, monkeypatch):
        # a depth-1 cell's components are depth-0 pairs, whose witnesses
        # are their clusters, so only the cell itself needs a stack
        pair = next(pair for pair in tr_p.cell_pairs(1) if pair.components)
        n = sum(p.cluster.realize().n for p in (pair,) + pair.components)
        stacks = []
        real_stack = translate_module.stack

        def counting_stack(upper, lower):
            stacks.append(upper.n + lower.n)
            return real_stack(upper, lower)
        monkeypatch.setattr(translate_module, "stack", counting_stack)
        monkeypatch.setattr(tr_p.guards, "max_witness_worlds", n - 1)
        with pytest.raises(TranslationGuardError, match=f"witness model with {n} worlds"):
            tr_p.materialize_witness(pair)
        assert stacks == []
        monkeypatch.setattr(tr_p.guards, "max_witness_worlds", n)
        assert tr_p.materialize_witness(pair).n == n
        assert stacks == [n]
        assert all(c.worlds() == c.realize().n for c in tr_p.clusters)

    def test_facts_always_inhabit_every_level(self, tr_p):
        width = len(tr_p.members)
        for depth in range(len(tr_p.cells)):
            for theta in tr_p.cells[depth]:
                levels = {b // width for b in iter_bits(theta)}
                assert levels == set(range(depth))


class TestChains:
    def test_depth_zero_chains_wrap_pairs(self, tr_p):
        assert len(tr_p.chains[0]) == len(tr_p.pairs[0])
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

    def test_table_counts_pinned(self):
        # [final, semi] cells and chains per depth, as first recorded
        chi, translator = translate(p("nu x.(p & <> x)"))
        report = translator.report(chi)
        assert report["pairs"] == [[8, 0], [37, 91], [51, 3717], [0, 20576]]
        assert report["chains"] == [[8, 0], [79, 393], [168, 66986], [0, 461188]]
        assert report["block_inputs"] == 224
        # one merged semi-final fact description per distinct (base facts,
        # excluded profiles), each built once
        facts = translator._memos["_semi_facts"]
        assert len(facts) == 118
        assert len({(base, frozenset(excluded)) for base, excluded in facts}) == 118

    def test_chain_order(self, tr_p):
        for chain in tr_p.chains[0]:
            assert tr_p.chain_order(chain, chain) == CHAIN_REFL
        one = [c for c in tr_p.chains[0]
               if all(mult != SAT for _, mult in c.root.cluster.entries)]
        for c1 in one:
            bigger = [c2 for c2 in tr_p.chains[0]
                      if tr_p.chain_order(c1, c2) == CHAIN_STRICT]
            assert bigger  # every all-one cluster embeds into its saturation


class TestMemos:
    def test_memoised_body_runs_once_per_key_and_translator(self, monkeypatch):
        calls = []
        real = sem.cluster_embeds

        def counting(c, d):
            calls.append((c, d))
            return real(c, d)
        monkeypatch.setattr(sem, "cluster_embeds", counting)
        first, second = (Translator(fm.sigma_closure(fm.prop("p"))) for _ in range(2))
        keys = [(c, d) for c in first.clusters for d in first.clusters]
        for _ in range(2):
            for c, d in keys:
                for translator in (first, second):
                    assert translator._embeds(c, d) == real(c, d)
        # once per key in each translator, the repeat pass read the memos
        assert len(calls) == 2 * len(keys)
        assert set(calls) == set(keys)
        assert len(first._memos["_embeds"]) == len(keys)
        # the memos live on the translator, so they do not keep it alive
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None


class TestStructuralFormulas:
    def test_empty_facts_formula_is_top(self, tr_p):
        assert tr_p.a_formula(0) is fm.t_top()

    def test_facts_formula_levels(self, tr_p):
        pair = next(iter(tr_p.pairs[1].values()))
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
        queries = [(n, member) for n in (0, 1) for member in sigma]
        # the tangle side is one run of all the depth formulas per model
        program = sem.compile_roots([tr_p.depth_formula(n, m) for n, m in queries])
        bad = 0
        for model in enumerate_models(["p"], 2):
            cache: dict = {}
            for (n, member), got in zip(queries, sem.eval_roots(model, program)):
                want = sem.eval_depth_modality(model, sigma, n, member, cache)
                bad += want != got
        assert bad == 0

    def test_split_detects_non_finality(self, tr_p):
        # where the depth guards hold and the split formula fires, the world
        # is not in the final part
        sigma = tr_p.sigma
        checked = 0
        roots = [tr_p.depth_formula(n) for n in (0, 1, 2, 3)]
        roots += [tr_p.split_formula(n) for n in (0, 1, 2)]
        program = sem.compile_roots(roots)
        for model in enumerate_models(["p"], 3):
            final = sem.sigma_final_part(model, sigma)
            values = sem.eval_roots(model, program)
            depth, split = values[:4], values[4:]
            for n in (0, 1, 2):
                guard = depth[n] & ~depth[n + 1]
                fired = guard & split[n]
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

    @pytest.mark.parametrize("text, distinct", [
        ("F", None), ("p", None), ("<> p", 1639), ("[] p", None),
        ("mu x.(p | <> x)", None), ("nu x.(p & <> x)", 3270),
    ])
    def test_triples_match_the_per_cell_listing(self, text, distinct):
        phi = p(text)
        translator = Translator(fm.sigma_closure(phi)).build()
        oracle = _triples_per_cell(translator, phi)
        triples = translator.eval_triples(phi)
        assert triples == list(dict.fromkeys(oracle))
        if distinct is None:
            return
        assert len(triples) == distinct < len(oracle)
        # one conjunction per listed triple, repeats included, gives the
        # same interned chi
        chi = translator.characteristic(phi)
        assert chi is fm.t_big_or([_situation(translator, *t) for t in oracle])

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

    @pytest.mark.parametrize("field", ["max_depth", "max_pairs", "max_thetas",
                                       "max_chains", "max_witness_worlds"])
    def test_negative_guard_raises(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 0, got -1$"):
            TranslationGuards(**{field: -1})
        assert getattr(TranslationGuards(**{field: 0}), field) == 0

    def test_pairs_guard_counts_cells_before_building(self):
        # depth 3 of <> p has 4,264 cells, none of them final
        with pytest.raises(TranslationGuardError) as err:
            translate(p("<> p"), TranslationGuards(max_pairs=4263))
        assert err.value.table == "pairs"
        assert "4264 pairs at depth 3, more than 4263" in str(err.value)
        # the tables built before the failure, and the lattices they fed
        assert err.value.growth == {"pairs": [[8, 0], [34, 94], [28, 1444]],
                                    "lattice": [16, 200, 733]}
        _, translator = translate(p("<> p"), TranslationGuards(max_pairs=4264))
        report = translator.report()
        assert report["pairs"] == [[8, 0], [34, 94], [28, 1444], [0, 4264]]
        assert report["lattice"] == [16, 200, 733]
        assert translator.pairs[3] == {}


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


    def test_decimal_digits_exact_beyond_str_limit(self):
        # str() of an int of more than 4,300 digits raises ValueError, so
        # the reference text is made with the limit lifted
        rng = random.Random(9)
        values = [0, 1, 9, 10, 99, 100, 10 ** 39, 10 ** 40 - 1, 10 ** 40,
                  10 ** 5000 - 1, 10 ** 5000, size_bound_exponent(p("p & p" + " & p" * 700))]
        values += [rng.getrandbits(rng.randint(1, 40000)) for _ in range(40)]
        values += [1 << k for k in range(0, 20000, 997)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = [(len(str(n)), str(n)[:40]) for n in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [decimal_digits(n) for n in values] == want


class TestDagOutput:
    def test_shared_subterms_named(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        text = format_tangle_dag(chi)
        assert text.splitlines()[-1].startswith("chi = ")
        assert "let d0 = " in text

    def test_deterministic(self, tr_p):
        chi = tr_p.characteristic(fm.prop("p"))
        assert format_tangle_dag(chi) == format_tangle_dag(chi)

    def test_one_pass_matches_per_name_printer(self):
        rng = random.Random(1515)
        for _ in range(25):
            pool = random_tangle_dag(rng, 40)
            for f in pool[-5:]:
                assert format_tangle_dag(f) == _format_dag_per_name(f)

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
        assert text_out == _format_dag_per_name(chi)


def _triples_per_cell(translator, phi):
    """The oracle of `eval_triples`: one triple per root class where phi
    holds, read cell by cell and cluster by cluster, repeats included."""
    i = translator.members.index(translator.rep_of[translator.sigma.member_of(phi)])
    triples = []

    def add(cluster, truths, chain, theta):
        for val, _ in cluster.entries:
            if truths[frozenset(val)] >> i & 1:
                triples.append((frozenset(val), chain, theta))

    for level in translator.chains:
        for c in level:
            add(c.root.cluster, c.root.truths, c, c.root.theta)
    for d in range(1, len(translator.cells)):
        for theta, recipe in translator.cells[d].items():
            sky = 0
            for pair in recipe:
                sky |= pair.sky
            for cluster in translator.clusters:
                truths, is_final, _ = translator._root_block(cluster, sky)
                if not is_final:
                    add(cluster, truths, None, theta)
    return triples


def _situation(translator, val, chain, theta):
    """The conjunction `characteristic` makes for one root situation."""
    n = chain.depth if chain else (theta.bit_length() - 1) // translator._width
    split = translator.split_formula(n)
    return fm.t_big_and([
        translator.depth_formula(n),
        fm.t_not(translator.depth_formula(n + 1)),
        fm.t_not(split) if chain else split,
        translator.tau_formula(val),
        fm.t_dot_dia(translator.delta_formula(chain)) if chain else translator.a_formula(theta),
    ])


def _format_dag_per_name(f):
    """The oracle of `format_tangle_dag`, with its own walk and its own
    naming test.  A node is named when it has two or more parents (a
    repeated tangle member counts twice) and at least three distinct nodes;
    names go in post-order, and each `let` line is the node's entry with
    its named children read as their names."""
    order: list = []
    done: set = set()
    for g in fm._post_order(f, done.__contains__):
        done.add(g)
        order.append(g)
    parents: dict = {}
    for g in order:
        for c in g.children():
            parents[c] = parents.get(c, 0) + 1
    texts: dict = {}
    lines = []
    for g in order:
        texts[g] = fm._tangle_entry(g, texts)
        if parents.get(g, 0) >= 2 and fm.tangle_dag_nodes(g) >= 3:
            name = f"d{len(lines)}"
            lines.append(f"let {name} = {texts[g][0]}")
            texts[g] = (name, fm._PREC_ATOM)
    lines.append(f"chi = {texts[f][0]}")
    return "\n".join(lines)


class TestCollectorPause:
    """The calls that build, check and print formula DAGs run with the
    cyclic garbage collector paused, and leave it as they found it.  The
    assertions name calls, not formulas: a failure report that printed chi
    would print its tree."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @staticmethod
    def _dag_calls(call):
        """<> p both ways, through translate() and phase by phase as the
        benchmark's traced pass makes the calls, then the report, the mu
        image, the fragment check and the DAG text; true iff both ways
        give the same interned chi."""
        phi = p("<> p")
        chi, translator = call(translate, phi)
        sigma = call(fm.sigma_closure, phi)
        traced = call(Translator, sigma)
        call(traced.build)
        same = call(traced.characteristic, phi) is chi
        call(translator.report, chi)
        image = call(fm.to_mu, chi)
        call(fm.in_tangle_fragment, image)
        call(format_tangle_dag, chi)
        return same

    @pytest.mark.parametrize("enabled", [True, False])
    def test_entry_points_restore_collector_state(self, enabled):
        (gc.enable if enabled else gc.disable)()
        states = []

        def call(fn, *args):
            out = fn(*args)
            states.append((fn.__qualname__, gc.isenabled()))
            return out

        assert self._dag_calls(call)
        assert len(states) == 9
        assert states == [(name, enabled) for name, _ in states]

    def test_guard_error_restores_collector(self):
        gc.enable()
        with pytest.raises(TranslationGuardError):
            translate(p("<> p"), TranslationGuards(max_pairs=1))
        assert gc.isenabled()
        translator = Translator(fm.sigma_closure(p("<> p")), TranslationGuards(max_pairs=1))
        with pytest.raises(TranslationGuardError):
            translator.build()
        assert gc.isenabled()

    def test_no_collection_starts_inside_the_dag_calls(self):
        gc.enable()
        current = [None]
        started = []

        def on_gc(phase, info):
            if phase == "start" and current[0] is not None:
                started.append((current[0], info["generation"]))

        def call(fn, *args):
            gc.collect(0)  # so that no young collection is due on the way in
            current[0] = fn.__qualname__
            try:
                return fn(*args)
            finally:
                current[0] = None

        gc.callbacks.append(on_gc)
        try:
            same = self._dag_calls(call)
        finally:
            gc.callbacks.remove(on_gc)
        assert started == []
        assert same


class TestPackageNames:
    def test_translate_names_the_submodule(self):
        # The package once re-exported the function under the submodule's
        # name, so `tanglekit.translate.Translator` raised AttributeError.
        import importlib

        import tanglekit
        module = importlib.import_module("tanglekit.translate")
        assert tanglekit.translate is module
        assert tanglekit.translate.Translator is Translator
        assert tanglekit.translate_formula is translate
        assert "translate_formula" in tanglekit.__all__
