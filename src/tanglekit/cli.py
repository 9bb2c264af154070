"""Command-line front end: model checking, translation, equivalence fuzzing,
and the structural listings.  Exit codes: 0 success, 1 property violation
(with a replayable counterexample), 2 usage or validation error."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import formulas as fm
from . import semantics as sem
from .models import (ClusterEnumerationError, KripkeModel, ModelFormatError,
                     enumerate_models, iter_bits, random_model, validate_wk4)
from .translate import (TranslationGuardError, TranslationGuards,
                        decimal_digits, format_tangle_dag, size_bound_exponent,
                        size_bound_ok, translate)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _load_model(path: str) -> KripkeModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"model file is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError("model file is nested too deeply") from None
    try:
        model = KripkeModel.from_dict(data)
    except ModelFormatError as exc:
        raise UsageError(f"bad model: {exc}") from None
    bad = validate_wk4(model)
    if bad is not None:
        a, b, c = (model.labels[i] for i in bad)
        raise UsageError(
            f"model is not weakly transitive: {a} -> {b} -> {c} but not {a} -> {c}")
    return model


def _parse_formula(text: str) -> fm.MuFormula:
    try:
        return fm.parse_mu(text)
    except fm.FormulaSyntaxError as exc:
        raise UsageError(f"bad formula: {exc}") from None


def _emit(args, human: str, structured: dict) -> None:
    if args.format == "structured":
        print(json.dumps(structured, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_check(args) -> int:
    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    try:
        mask = sem.eval_mu(model, formula)
    except sem.UnboundVariableError as exc:
        raise UsageError(str(exc)) from None
    labels = sorted(model.mask_labels(mask))
    _emit(args, " ".join(labels), {"worlds": labels})
    return EXIT_OK


def cmd_translate(args) -> int:
    try:
        guards = TranslationGuards(max_depth=args.max_depth,
                                   max_pairs=args.max_pairs,
                                   max_chains=args.max_chains,
                                   max_thetas=args.max_thetas)
    except ValueError as exc:
        # "max_pairs must be ..." names the flag "--max-pairs"
        raise UsageError("--" + str(exc).replace("_", "-")) from None
    formula = _parse_formula(args.formula)
    chi, translator = translate(formula, guards)
    report = translator.report(chi)
    report["size_bound_exponent_digits"] = decimal_digits(
        size_bound_exponent(formula))[0]
    report["size_bound_ok"] = size_bound_ok(formula, chi)
    image = fm.to_mu(chi)
    report["tangle_fragment"] = fm.in_tangle_fragment(image)
    report["alternation_free"] = fm.alternation_free(image)
    dag = format_tangle_dag(chi)
    if args.format == "structured":
        print(json.dumps({"chi_dag": dag.splitlines(), "report": report},
                         indent=2, sort_keys=True))
    else:
        lines = [dag, ""]
        lines.append(f"sigma members: {report['sigma_size']}")
        for d, (satn, semin) in enumerate(report["pairs"]):
            lines.append(f"depth {d}: pairs {satn}+{semin} semi, "
                         f"chains {report['chains'][d][0]}+{report['chains'][d][1]} semi")
        lines.append(f"dag nodes: {report['dag_nodes']}")
        lines.append(f"log2 tree size: {report['log2_tree_size']}")
        lines.append(f"size bound ok: {report['size_bound_ok']}")
        lines.append(f"tangle fragment: {report['tangle_fragment']}")
        lines.append(f"alternation free: {report['alternation_free']}")
        print("\n".join(lines))
    return EXIT_OK


def _fuzz_models(args, props: list):
    if args.exhaustive:
        yield from enumerate_models(props, args.size)
    else:
        for i in range(args.models):
            yield random_model(props, args.size, args.seed + i)


def cmd_fuzz(args) -> int:
    if args.size < 1:
        raise UsageError(f"--size must be at least 1, got {args.size}")
    if args.models < 1:
        raise UsageError(f"--models must be at least 1, got {args.models}")
    left = _parse_formula(args.formula_a)
    atoms = fm.prop_names(left)
    if args.chi:
        if args.formula_b is not None:
            raise UsageError("give either a second formula or --chi, not both")
        chi, _ = translate(left)
        right_eval = lambda model: sem.eval_tangle(model, chi)
    elif args.formula_b is not None:
        right = _parse_formula(args.formula_b)
        atoms |= fm.prop_names(right)
        right_eval = lambda model: sem.eval_mu(model, right)
    else:
        raise UsageError("need a second formula or --chi")
    # each name once, stripped; with no name left, the formulas' atoms
    props = list(dict.fromkeys(filter(None, map(str.strip, args.props.split(",")))))
    checked = 0
    for model in _fuzz_models(args, props or sorted(atoms)):
        checked += 1
        lmask = sem.eval_mu(model, left)
        rmask = right_eval(model)
        if lmask != rmask:
            w = next(iter_bits(lmask ^ rmask))
            payload = {"model": model.to_dict(), "world": model.labels[w],
                       "left": sorted(model.mask_labels(lmask)),
                       "right": sorted(model.mask_labels(rmask))}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_VIOLATION
    _emit(args, f"agreed on {checked} models", {"agreed": checked})
    return EXIT_OK


def cmd_final_part(args) -> int:
    model = _load_model(args.model)
    formula = _parse_formula(args.formula)
    sigma = fm.sigma_closure(formula)
    mask = sem.sigma_final_part(model, sigma)
    labels = sorted(model.mask_labels(mask))
    _emit(args, " ".join(labels), {"worlds": labels})
    return EXIT_OK


def cmd_clusters(args) -> int:
    model = _load_model(args.model)
    lines = []
    for cluster in model.clusters():
        lines.append("{" + ",".join(sorted(model.labels[w] for w in cluster)) + "}")
    lines.sort()
    _emit(args, "\n".join(lines),
          {"clusters": [sorted(model.labels[w] for w in c) for c in model.clusters()]})
    return EXIT_OK


def cmd_stats(args) -> int:
    formula = _parse_formula(args.formula)
    sigma = fm.sigma_closure(formula)
    n = fm.size(formula)
    bound = size_bound_exponent(formula)
    digits, lead = decimal_digits(bound)
    human = (f"size: {n}\nsigma members: {len(sigma)}\n"
             f"log2 size bound: {bound if n <= 4 else lead + '...'}")
    _emit(args, human, {"size": n, "sigma_size": len(sigma),
                        "log2_size_bound_digits": digits})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglekit",
        description="mu-calculus and tangle logic over finite wK4 frames")
    parser.add_argument("--format", choices=("human", "structured"),
                        default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="worlds of a model satisfying a formula")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=cmd_check)

    guards = TranslationGuards()
    p = sub.add_parser("translate", help="characteristic tangle formula")
    p.add_argument("formula")
    p.add_argument("--max-depth", type=int, default=guards.max_depth)
    p.add_argument("--max-pairs", type=int, default=guards.max_pairs)
    p.add_argument("--max-chains", type=int, default=guards.max_chains)
    p.add_argument("--max-thetas", type=int, default=guards.max_thetas)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("fuzz-equiv", help="compare two formulas over models")
    p.add_argument("formula_a")
    p.add_argument("formula_b", nargs="?", default=None)
    p.add_argument("--chi", action="store_true",
                   help="compare against the translation of the first formula")
    p.add_argument("--models", type=int, default=200)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--props", default="")
    p.add_argument("--exhaustive", action="store_true",
                   help="all models up to --size worlds instead of sampling")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("final-part", help="final part of a model for a closure")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=cmd_final_part)

    p = sub.add_parser("clusters", help="maximal clusters of a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("stats", help="formula size, closure size, size bound")
    p.add_argument("formula")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TranslationGuardError as exc:
        print(f"error: {exc} (built: pairs {exc.growth['pairs']}, "
              f"lattice {exc.growth['lattice']})", file=sys.stderr)
        return EXIT_USAGE
    except (fm.ClosureOverflowError, fm.FreshNameClashError,
            ClusterEnumerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # Exit 1 means a counterexample, so a crash must not look like one.
        print(f"error: formula nested too deeply (Python's recursion limit of "
              f"{sys.getrecursionlimit()} was reached)", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
