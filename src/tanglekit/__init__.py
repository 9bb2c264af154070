"""Mu-calculus and tangle logic over finite weakly transitive Kripke frames:
parsing and evaluation for both languages, the finality machinery, and the
translation of arbitrary fixed-point formulas into the tangle fragment."""

from .formulas import (ClosureOverflowError, FormulaSyntaxError,
                       FreshNameClashError, MuFormula, NegationError,
                       SigmaClosure, TangleFormula, alternation_free,
                       big_and, big_or, bot, box, conj,
                       diamond, disj, dot_box, dot_diamond, expand_tangle,
                       floor, in_tangle_fragment, mu, neg_prop, negate, nu,
                       parse_mu, print_mu, prop, sigma_closure, size,
                       sub_star, to_mu, top, var)
from .models import (CanonicalCluster, KripkeModel, ModelFormatError,
                     canonical_of_cluster, cluster_le, depth, disjoint_union,
                     enumerate_canonical_clusters, enumerate_models,
                     random_model, stack, validate_wk4, weak_closure_masks)
from .semantics import (bisimilar, cluster_embeds, compile_roots,
                        eval_depth_modality, eval_mu, eval_mu_exact,
                        eval_roots, eval_tangle, eval_tangle_direct,
                        greatest_bisim, is_semifinal, prune_check,
                        restricted_bisimilar, sigma_depth, sigma_final_part,
                        sigma_truth_masks, sigma_world_depths)
from .translate import (Chain, SatPair, TranslationGuardError,
                        TranslationGuards, Translator, format_tangle_dag,
                        size_bound_exponent, size_bound_ok)
# `tanglekit.translate` is the submodule; the function is `translate_formula`.
from .translate import translate as translate_formula

__all__ = [name for name in dir() if not name.startswith("_")]
