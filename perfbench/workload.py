"""One cold pass of a perfbench workload, in a fresh single-threaded interpreter.

    python3 perfbench/workload.py --workload translate --seed 1 --trace 0
    python3 perfbench/workload.py --workload fuzz-mu --seed 1 --setup-only

Prints one JSON record on stdout.  `ready` is the CLOCK_MONOTONIC reading
taken when the inputs are ready, so the process that spawned this one can
compute the set-up time from interpreter start.  With `--trace 1` every call
the pass makes into `formulas`, `models`, `semantics` and `translate` is
timed at the call site and aggregated per layer item.

The speed of a shared host drifts by tens of percent within minutes, so
the timed phase also samples it: a timer signal runs a fixed reference
loop every `HostClock.PERIOD_S` seconds.  `wall_s` is the pass's own time
(the loop's time taken out) at the reference speed, `REFERENCE_S` per
loop; `raw_wall_s` is the same time unscaled.

The timed phase calls the library in the order `cmd_translate` and
`cmd_fuzz` in `tanglekit/cli.py` do.  The checks that decide whether an
operation failed run outside it.  `--tiny` shrinks every workload for the
self-test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tanglekit  # noqa: E402  (set-up time includes the package import)
from tanglekit import cli  # noqa: E402,F401  (and the CLI module's import)
from tanglekit import formulas as fm  # noqa: E402
from tanglekit import semantics as sem  # noqa: E402
from tanglekit.models import enumerate_models  # noqa: E402
from tanglekit.translate import (Translator, TranslationGuards,  # noqa: E402
                                 format_tangle_dag, size_bound_exponent,
                                 size_bound_ok, translate)

# The acceptance corpus, in the order the acceptance criteria list it.
CORPUS = ("F", "p", "<> p", "[] p", "mu x.(p | <> x)", "nu x.(p & <> x)")
# The formulas whose translation dominates the corpus, and the suffix their
# per-formula metrics get.
SLOW = {"<> p": "dia_p", "[] p": "box_p", "nu x.(p & <> x)": "nu_p_dia"}
CHI_FORMULA = "mu x.(p | <> x)"
CHI_PROPS = ("p",)
FUZZ_PROPS = ("p", "q")
MAX_WORLDS = 4
SAMPLE_MODELS = 8  # per corpus formula, for the chi-against-phi check

# Models of at most n worlds over the atoms, up to isomorphism: the number of
# verdicts an exhaustive fuzz run must reach.
FAMILY_SIZE = {(("p",), 2): 40, (("p",), 4): 5089,
               (("p", "q"), 2): 144, (("p", "q"), 4): 70270}

SPANS = ("formulas.parse", "formulas.closure", "formulas.to_mu",
         "formulas.fragment_check", "translate.init", "translate.build",
         "translate.characteristic", "translate.report", "translate.size_bound",
         "translate.format_dag", "semantics.eval_mu", "semantics.eval_tangle",
         "models.enumerate")
TABLE_COUNTS = ("translate.pairs", "translate.chains", "translate.semi_chains",
                "translate.block_inputs", "translate.chi_dag_nodes",
                "formulas.closure_members")


# One reference loop takes this long at the reference speed: about its
# harmonic mean over a pass on a 2 vCPU Xeon VM with Python 3.11.7.
REFERENCE_S = 0.0045


def reference_loop() -> int:
    """Fixed interpreter work shaped like the program's: it builds a dict
    keyed by fresh tuples, as the translator's tables and the evaluators'
    caches are, so contention for the host's caches and memory slows it
    as it slows them."""
    table, acc = {}, 0
    for i in range(8000):
        key = (i & 1023, i >> 3)
        v = table.get(key)
        if v is None:
            table[key] = v = (i * 2654435761) & 0xFFFF
        acc ^= v | (acc >> 1)
    return acc


class HostClock:
    """Samples the host's speed while a pass runs: a timer signal runs
    `reference_loop` every `PERIOD_S` seconds of wall time, between the
    program's bytecodes.  The loop's own time is kept apart, in `spent`, so
    the pass's time can leave it out."""

    PERIOD_S = 0.1
    EDGE_SAMPLES = 5  # before and after the timed phase, so short passes get samples

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def measure(self) -> float:
        """Time one reference loop and keep the sample."""
        # The loop frees all it allocates.  With the collector off it cannot
        # start a collection of the program's objects in the middle.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(took)
        return took

    def tick(self, *_):
        self.spent += self.measure()

    def __enter__(self):
        for _ in range(self.EDGE_SAMPLES):
            self.measure()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(self.EDGE_SAMPLES):
            self.measure()
        return False

    def now(self) -> float:
        """A wall clock that stands still while a sample runs."""
        return time.perf_counter() - self.spent

    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran over the
        pass.  The samples are evenly spaced in wall time, and the work done
        in a slice of it goes with the speed, 1 / sample time, so the mean
        speed is the mean of the reciprocals: the harmonic mean of the
        sample times.  A sample the host stalled counts as a slice in which
        little work was done, as it was."""
        return statistics.harmonic_mean(self.samples) / REFERENCE_S


class Trace:
    """Call-site spans aggregated per layer item: total seconds and calls.
    A span leaves out the time the host clock's samples took inside it.

    Disabled, `call` only forwards, so the untraced pass runs the same code."""

    def __init__(self, on: bool):
        self.on = on
        self.clock = HostClock()
        self.seconds = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        t0 = self.clock.now()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += self.clock.now() - t0
            self.calls[name] += 1

    def models(self, props, max_worlds):
        """`enumerate_models`, timing the work done inside the generator."""
        it = enumerate_models(props, max_worlds)
        while True:
            model = self.call("models.enumerate", next, it, None)
            if model is None:
                return
            yield model

    def translate(self, phi, guards=None):
        """`translate`.  Traced, this makes the calls `translate` makes, so
        closure, table set-up, table building and assembly are timed apart;
        the output digests show that both ways give the same chi."""
        if not self.on:
            return translate(phi, guards)
        sigma = self.call("formulas.closure", fm.sigma_closure, phi)
        translator = self.call("translate.init", Translator, sigma, guards)
        self.call("translate.build", translator.build)
        return self.call("translate.characteristic", translator.characteristic, phi), translator


# ---------------------------------------------------------------------------
# inputs


def fuzz_pairs(seed: int) -> list[tuple[str, str]]:
    """Three (A, B) texts: A is a closed, guarded, alternating two-atom
    fixed-point formula and B is A with its outermost fixed point unfolded
    once, so A and B are equivalent by the fixed-point law.

    The shapes are fixed and the seed picks which atom sits where, each
    literal's polarity and the binder names.  The exhaustive family is
    closed under swapping and complementing atoms, so every seed asks the
    evaluator for the same amount of work."""
    rng = random.Random(seed)
    shapes = ("nu {x}. mu {y}. (({a} & <> {x}) | ({b} & [] {y}))",
              "mu {x}. nu {y}. (({a} | [] {x}) & ({b} | <> {y}))",
              "nu {x}. <> mu {y}. (({a} & {x}) | ({b} & <> {y}))")
    out = []
    for shape in shapes:
        atoms = list(FUZZ_PROPS)
        rng.shuffle(atoms)
        a, b = (("~" if rng.random() < 0.5 else "") + atom for atom in atoms)
        x, y = rng.sample(("x", "y", "z", "u", "v", "w"), 2)
        left = shape.format(a=a, b=b, x=x, y=y)
        body = shape.split(". ", 1)[1]
        out.append((left, body.format(a=a, b=b, x=f"({left})", y=y)))
    return out


def make_inputs(workload: str, seed: int, tiny: bool):
    if workload == "translate":
        return list(CORPUS[:2] if tiny else CORPUS)
    if workload == "check-chi":
        return "p" if tiny else CHI_FORMULA
    return fuzz_pairs(seed)


# ---------------------------------------------------------------------------
# the workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mu_dag_nodes(f) -> int:
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(g.children())
    return len(seen)


def table_counts(translator, report: dict) -> dict:
    """Table sizes of one translation.  `translate.block_inputs` counts the
    distinct (root cluster, facts true strictly above) inputs of the pairs'
    block evaluations, read from public `SatPair` fields."""
    keys = set()
    for table in translator.pairs:
        for pair in table.values():
            sky = 0
            for comp in pair.components:
                sky |= comp.sky
            keys.add((pair.cluster, sky))
    return {"translate.pairs": sum(len(t) for t in translator.pairs),
            "translate.chains": sum(len(c) for c in translator.chains),
            "translate.semi_chains": sum(n for _, n in report["chains"]),
            "translate.block_inputs": len(keys),
            "translate.chi_dag_nodes": report["dag_nodes"],
            "formulas.closure_members": len(translator.sigma),
            "translate.depth": len(translator.pairs)}


def add_counts(layers: dict, counts: dict) -> None:
    for name in TABLE_COUNTS:
        layers[name] = layers.get(name, 0) + counts[name]
    layers["translate.depth"] = max(layers.get("translate.depth", 0), counts["translate.depth"])
    pairs = layers["translate.pairs"]
    layers["translate.block_repeat_share"] = (
        1 - layers["translate.block_inputs"] / pairs if pairs else 0.0)


def run_translate(texts, tr: Trace, seed: int, size: int) -> dict:
    """Everything `cmd_translate` does, per corpus formula, with the
    library's default guards."""
    guards = TranslationGuards()
    wall, ops, layers, outputs = 0.0, [], {}, []
    for text in texts:
        op = {"text": text, "ok": False}
        ops.append(op)
        before = dict(tr.seconds)
        t0 = tr.clock.now()
        try:
            phi = tr.call("formulas.parse", fm.parse_mu, text)
            chi, translator = tr.translate(phi, guards)
            report = tr.call("translate.report", translator.report, chi)
            tr.call("translate.size_bound", size_bound_exponent, phi)
            bound_ok = tr.call("translate.size_bound", size_bound_ok, phi, chi)
            image = tr.call("formulas.to_mu", fm.to_mu, chi)
            fragment = tr.call("formulas.fragment_check", fm.in_tangle_fragment, image)
            alt_free = tr.call("formulas.fragment_check", fm.alternation_free, image)
            dag = tr.call("translate.format_dag", format_tangle_dag, chi)
        except Exception as exc:  # any exception fails this operation
            wall += tr.clock.now() - t0
            op["error"] = repr(exc)
            continue
        wall += tr.clock.now() - t0
        counts = table_counts(translator, report)
        add_counts(layers, counts)
        op.update(sha256=hashlib.sha256(dag.encode()).hexdigest(),
                  chi_dag_nodes=report["dag_nodes"],
                  pairs=counts["translate.pairs"],
                  block_inputs=counts["translate.block_inputs"],
                  checks={"size_bound_ok": bound_ok, "tangle_fragment": fragment,
                          "alternation_free": alt_free})
        outputs.append((op, phi, chi))
        if text in SLOW and tr.on:
            sfx = SLOW[text]
            # Host time here; run_pass scales the per-formula times with the
            # other spans.
            layers.update({
                f"translate.build_s.{sfx}":
                    tr.seconds["translate.build"] - before["translate.build"],
                f"translate.format_dag_s.{sfx}":
                    tr.seconds["translate.format_dag"] - before["translate.format_dag"],
                f"translate.pairs.{sfx}": counts["translate.pairs"],
                f"translate.block_inputs.{sfx}": counts["translate.block_inputs"]})
        # Free this formula's tables before the next is built, as separate
        # CLI calls would.
        del translator, image, dag
    rss = peak_rss_mb()
    # Checks, outside the timed phase: output shape, size bound, and chi
    # against phi on a seeded sample of the one-atom models.
    family = list(enumerate_models(CHI_PROPS, size))
    sample = random.Random(seed).sample(family, min(SAMPLE_MODELS, len(family)))
    for op, phi, chi in outputs:
        try:
            agree = all(sem.eval_tangle(m, chi) == sem.eval_mu(m, phi) for m in sample)
        except Exception:  # an evaluation that raises fails the check
            agree = False
        op["ok"] = agree and all(op["checks"].values())
        if not op["ok"]:
            op["error"] = "failed check: " + ", ".join(
                [k for k, v in op["checks"].items() if not v] + ([] if agree else ["chi == phi"]))
    return {"wall_s": wall, "peak_rss_mb": rss, "layers": layers,
            "attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "dag_nodes": sum(op.get("chi_dag_nodes", 0) for op in ops),
            "formulas": {op.pop("text"): op for op in ops}}


def compare_on_family(left_eval, right_eval, props, size, tr: Trace) -> tuple[int, int, int]:
    """Per-model verdicts as `cmd_fuzz` makes them, except that every
    disagreement is counted instead of stopping at the first.  Returns the
    verdict count, the failed verdicts, and how far the verdict count is
    from the family size."""
    verdicts = failures = 0
    try:
        for model in tr.models(props, size):
            try:
                failures += left_eval(model) != right_eval(model)
            except Exception:  # any exception fails this verdict
                failures += 1
            verdicts += 1
    except Exception:  # enumeration broke off: the shortfall fails below
        pass
    return verdicts, failures, abs(FAMILY_SIZE[props, size] - verdicts)


def run_check_chi(text, tr: Trace, seed: int, size: int) -> dict:
    """`fuzz-equiv TEXT --chi --exhaustive --size 4 --props p`."""
    expected = FAMILY_SIZE[CHI_PROPS, size]
    t0 = tr.clock.now()
    try:
        phi = tr.call("formulas.parse", fm.parse_mu, text)
        chi, translator = tr.translate(phi)
    except Exception as exc:  # no chi: every verdict fails
        return {"wall_s": tr.clock.now() - t0, "attempted": expected,
                "failed": expected, "error": repr(exc), "dag_nodes": 0,
                "peak_rss_mb": peak_rss_mb(), "layers": {}}
    verdicts, failures, missing = compare_on_family(
        lambda m: tr.call("semantics.eval_mu", sem.eval_mu, m, phi),
        lambda m: tr.call("semantics.eval_tangle", sem.eval_tangle, m, chi),
        CHI_PROPS, size, tr)
    wall = tr.clock.now() - t0
    layers = {"models.enumerated": verdicts}
    add_counts(layers, table_counts(translator, translator.report(chi)))
    return {"wall_s": wall, "peak_rss_mb": peak_rss_mb(), "layers": layers,
            "attempted": max(verdicts, expected), "failed": failures + missing,
            "dag_nodes": layers["translate.chi_dag_nodes"]}


def run_fuzz_mu(pairs, tr: Trace, seed: int, size: int, props=FUZZ_PROPS) -> dict:
    """`fuzz-equiv A B --exhaustive --size 4 --props p,q`, once per pair."""
    expected = FAMILY_SIZE[props, size]
    wall = 0.0
    attempted = failed = enumerated = nodes = 0
    errors = []
    for left_text, right_text in pairs:
        t0 = tr.clock.now()
        try:
            left = tr.call("formulas.parse", fm.parse_mu, left_text)
            right = tr.call("formulas.parse", fm.parse_mu, right_text)
        except Exception as exc:  # unparsable pair: every verdict fails
            wall += tr.clock.now() - t0
            attempted += expected
            failed += expected
            errors.append(repr(exc))
            continue
        verdicts, failures, missing = compare_on_family(
            lambda m: tr.call("semantics.eval_mu", sem.eval_mu, m, left),
            lambda m: tr.call("semantics.eval_mu", sem.eval_mu, m, right),
            props, size, tr)
        wall += tr.clock.now() - t0
        attempted += max(verdicts, expected)
        failed += failures + missing
        enumerated += verdicts
        nodes += mu_dag_nodes(left) + mu_dag_nodes(right)
    out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb(),
           "layers": {"models.enumerated": enumerated},
           "attempted": attempted, "failed": failed, "dag_nodes": nodes}
    if errors:
        out["error"] = errors
    return out


RUNNERS = {"translate": run_translate, "check-chi": run_check_chi,
           "fuzz-mu": run_fuzz_mu}


def run_pass(workload: str, inputs, seed: int, trace: bool, size: int) -> dict:
    """One pass.  Its times are scaled to the reference speed; the record
    keeps the unscaled wall time too."""
    tr = Trace(trace)
    with tr.clock:
        result = RUNNERS[workload](inputs, tr, seed, size)
    slowdown = tr.clock.slowdown()
    result.update(raw_wall_s=result["wall_s"], wall_s=result["wall_s"] / slowdown,
                  slowdown=slowdown, host_samples=len(tr.clock.samples))
    layers = dict.fromkeys(TABLE_COUNTS + ("translate.depth", "models.enumerated"), 0)
    layers["translate.block_repeat_share"] = 0.0
    for sfx in SLOW.values():
        for name in ("build_s", "format_dag_s", "pairs", "block_inputs"):
            layers[f"translate.{name}.{sfx}"] = 0
    layers.update(result["layers"])
    for sfx in SLOW.values():
        for name in ("build_s", "format_dag_s"):
            layers[f"translate.{name}.{sfx}"] /= slowdown
    for name in SPANS:
        layers[f"{name}_s"] = tr.seconds[name] / slowdown
    for name in ("semantics.eval_mu", "semantics.eval_tangle"):
        layers[f"{name}_calls"] = tr.calls[name]
    layers["fail_rate"] = result["failed"] / result["attempted"]
    result["layers"] = layers if trace else {}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are ready")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: 2-world families, a shorter corpus")
    args = ap.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed, args.tiny)
    record = {"ready": time.monotonic(), "tanglekit": tanglekit.__file__}
    if not args.setup_only:
        record.update(run_pass(args.workload, inputs, args.seed, bool(args.trace),
                               2 if args.tiny else MAX_WORLDS))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
