"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them as they finish).

The heavyweight artifacts (model enumerations and translation tables) are
shared across criteria through module-scoped fixtures."""

import hashlib
import random
import time

import pytest

from tanglekit import KripkeModel
from tanglekit import formulas as fm
from tanglekit import semantics as sem
from tanglekit.models import disjoint_union, enumerate_models, random_model
from tanglekit.translate import Translator, format_tangle_dag, size_bound_ok, translate
from tests.conftest import random_formula

CHI_FORMULAS = ["F", "p", "<> p", "[] p", "nu x.(p & <> x)", "mu x.(p | <> x)"]

# Inputs that are not alternation free, with their chi's `format_tangle_dag`
# sha256 and DAG node count.
ALTERNATING = {
    "nu x. mu y. ((p & <> x) | <> y)":
        ("e928ed417d56f954cc7338f409abb1cea419a3f846e5a3fb706aeb96c8ae4fc0", 15454),
    "mu x. nu y. ((p | <> x) & <> y)":
        ("222a90044f657fab4b66105fd355c3b0f69aaba85ed33007bef0a19b89f617f6", 37634),
    "nu x. mu y. ((p & [] x) | [] y)":
        ("362ebd1d5e2a0091d545a65eec0802df5f10a22aa1ebce6d70176ef4ba554601", 8046),
    "nu x. <> mu y. ((p & x) | <> y)":
        ("ec8058a8e061bcfadd0836ee359943d9465718e5d0a0d20bf930f0823a3ad0b5", 15436),
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def cycle():
    return KripkeModel(["0", "1"], [(0, 1), (1, 0)],
                       {"e": [0], "o": [1], "p": [1], "i": [0, 1]})


@pytest.fixture(scope="module")
def models_p4():
    return list(enumerate_models(["p"], 4))


@pytest.fixture(scope="module")
def chi_translations():
    out = {}
    for text in CHI_FORMULAS:
        phi = fm.parse_mu(text)
        chi, translator = translate(phi)
        out[text] = (phi, chi, translator)
    return out


def test_criterion_1_example_fidelity(cycle):
    t0 = time.time()
    ok = sem.eval_mu(cycle, fm.parse_mu("o | <> p")) == 0b11
    ok &= sem.eval_tangle_direct(cycle, [fm.prop("e"), fm.prop("o")]) == 0b11
    ok &= sem.eval_tangle_direct(cycle, [fm.prop("o"), fm.prop("p")]) == 0
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("criterion 1 (example fidelity)", ok, f"{elapsed:.3f}s")


def test_criterion_2_tangle_duality():
    t0 = time.time()
    lits = [fm.prop("p"), fm.neg_prop("p"), fm.prop("q"), fm.neg_prop("q")]
    t_lits = [fm.t_prop("p"), fm.t_not(fm.t_prop("p")), fm.t_prop("q"), fm.t_not(fm.t_prop("q"))]
    gammas = [[i] for i in range(4)] + [[i, j] for i in range(4) for j in range(i, 4)]
    expansions = [fm.expand_tangle([lits[i] for i in g]) for g in gammas]
    # the direct side: tangle steps, read by the cluster reading
    # `_tangle_compute`; both sides are one set of roots, run once per model
    tangles = [fm.t_tangle([t_lits[i] for i in g]) for g in gammas]
    program = sem.compile_roots(expansions + tangles)
    checked = bad = 0
    for model in enumerate_models(["p", "q"], 4):
        values = sem.eval_roots(model, program)
        for unfolded, direct in zip(values[:len(gammas)], values[len(gammas):]):
            checked += 1
            bad += direct != unfolded
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 300
    _report("criterion 2 (tangle duality)", ok,
            f"{checked} checks, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_3_pruning_invariance():
    t0 = time.time()
    closures = [fm.sigma_closure(fm.parse_mu("p")),
                fm.sigma_closure(fm.parse_mu("<> p"))]
    bad = 0
    witness = None
    for seed in range(1000):
        size = 1 + seed % 8
        model = random_model(["p"], size, seed)
        for sigma in closures:
            ok, failure = sem.prune_check(model, sigma, seed=seed, samples=2)
            if not ok:
                bad += 1
                witness = witness or (seed, failure)
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 600
    _report("criterion 3 (pruning invariance)", ok,
            f"1000 models x 2 closures, {bad} violations {witness or ''}, {elapsed:.1f}s")


def test_criterion_4_depth_modality_equivalence(models_p4):
    t0 = time.time()
    sigma = fm.sigma_closure(fm.prop("p"))
    translator = Translator(sigma)
    translator.build()
    depth_formulas = {(n, member): translator.depth_formula(n, member)
                      for n in (0, 1, 2) for member in sigma}
    # the tangle side is one run of all the depth formulas per model
    program = sem.compile_roots(list(depth_formulas.values()))
    checked = bad = 0
    for model in models_p4:
        cache: dict = {}
        for (n, member), got in zip(depth_formulas, sem.eval_roots(model, program)):
            want = sem.eval_depth_modality(model, sigma, n, member, cache)
            checked += 1
            bad += want != got
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 900
    _report("criterion 4 (depth observation equivalence)", ok,
            f"{checked} checks on {len(models_p4)} models, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_5_characteristic_formula(models_p4, chi_translations):
    t0 = time.time()
    lines = []
    all_ok = True
    for text in CHI_FORMULAS:
        phi, chi, _ = chi_translations[text]
        bad = 0
        for model in models_p4:
            if sem.eval_mu(model, phi) != sem.eval_tangle(model, chi):
                bad += 1
        all_ok &= bad == 0
        lines.append(f"{text}:{bad}")
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 3600
    _report("criterion 5 (characteristic formula)", ok,
            f"mismatches per formula {{{', '.join(lines)}}} on {len(models_p4)} models, "
            f"{elapsed:.0f}s")


def test_criterion_6_output_shape(chi_translations):
    t0 = time.time()
    ok = True
    for text in CHI_FORMULAS:
        _, chi, _ = chi_translations[text]
        ok &= isinstance(chi, fm.TangleFormula)
        image = fm.to_mu(chi)
        ok &= fm.in_tangle_fragment(image)
        ok &= fm.alternation_free(image)
    elapsed = time.time() - t0
    _report("criterion 6 (output shape)", ok, f"{elapsed:.2f}s")


def test_criterion_7_size_bound(chi_translations):
    t0 = time.time()
    ok = True
    for text in CHI_FORMULAS:
        phi, chi, _ = chi_translations[text]
        ok &= size_bound_ok(phi, chi)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("criterion 7 (size bound)", ok, f"{elapsed:.3f}s")


def test_criterion_8_semantics_sanity():
    t0 = time.time()
    axiom = fm.parse_mu("~(<> <> p) | <.> p")
    bad_axiom = 0
    for seed in range(10_000):
        model = random_model(["p"], 1 + seed % 7, seed)
        if sem.eval_mu(model, axiom) != model.full_mask:
            bad_axiom += 1
    rng = random.Random(123)
    bad_bisim = 0
    formulas = [random_formula(rng, ["p", "q"], rng.randint(1, 4))
                for _ in range(100)]
    pairs = []
    for seed in range(10):
        m = random_model(["p", "q"], 4 + seed % 3, 1000 + seed)
        n = disjoint_union([m, m])
        rel = sem.bisimilar(m, n, ["p", "q"])
        assert rel is not None
        pairs.append((m, n, rel))
    for i, f in enumerate(formulas):
        m, n, rel = pairs[i % len(pairs)]
        lm = sem.eval_mu(m, f)
        rm = sem.eval_mu(n, f)
        for (u, v) in rel:
            if (lm >> u & 1) != (rm >> v & 1):
                bad_bisim += 1
                break
    elapsed = time.time() - t0
    ok = bad_axiom == 0 and bad_bisim == 0 and elapsed < 300
    _report("criterion 8 (semantics sanity)", ok,
            f"axiom violations {bad_axiom}, bisim violations {bad_bisim}, {elapsed:.1f}s")


def test_criterion_9_fixed_point_definitions():
    t0 = time.time()
    rng = random.Random(20240917)
    corpus = []
    while len(corpus) < 50:
        f = random_formula(rng, ["p", "q"], rng.randint(1, 4))
        if f.kind in (fm.MU, fm.NU) or rng.random() < 0.4:
            corpus.append(f)
    bad = 0
    models = list(enumerate_models(["p", "q"], 3))
    for f in corpus:
        for model in models:
            if sem.eval_mu(model, f) != sem.eval_mu_exact(model, f):
                bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 300
    _report("criterion 9 (fixed-point agreement)", ok,
            f"50 formulas x {len(models)} models, {bad} mismatches, {elapsed:.1f}s")


@pytest.mark.parametrize("text", ALTERNATING)
def test_alternation_collapses_through_chi(text, models_p4):
    # The paper's corollary: through chi, every formula is equivalent to an
    # alternation-free one.
    t0 = time.time()
    digest, nodes = ALTERNATING[text]
    phi = fm.parse_mu(text)
    chi, _ = translate(phi)
    image = fm.to_mu(chi)
    shape = (not fm.alternation_free(phi) and fm.in_tangle_fragment(image)
             and fm.alternation_free(image) and size_bound_ok(phi, chi))
    pinned = (hashlib.sha256(format_tangle_dag(chi).encode()).hexdigest(),
              fm.tangle_dag_nodes(chi)) == (digest, nodes)
    bad = sum(sem.eval_mu(model, phi) != sem.eval_tangle(model, chi) for model in models_p4)
    elapsed = time.time() - t0
    ok = shape and pinned and bad == 0 and len(models_p4) == 5089
    _report(f"corollary (alternation collapse) {text}", ok,
            f"shape {shape}, pinned {pinned}, {bad} mismatches on {len(models_p4)} models, "
            f"{elapsed:.1f}s")
