import itertools
import random

import pytest

from tanglekit import models as km
from tanglekit.models import (ABSENT, ONE, SAT, CanonicalCluster, KripkeModel,
                              canonical_of_cluster, cluster_le, depth,
                              disjoint_union, enumerate_canonical_clusters,
                              enumerate_models, random_model, stack,
                              validate_wk4, weak_closure_masks)


class TestValidation:
    def test_cycle_is_weakly_transitive(self, cycle_model):
        assert validate_wk4(cycle_model) is None

    def test_cycle_is_not_transitive(self, cycle_model):
        # 0 -> 1 -> 0 without 0 -> 0
        assert not cycle_model.succ[0] >> 0 & 1

    def test_empty_model_ok(self):
        assert validate_wk4(KripkeModel([], [], {})) is None

    def test_counterexample_reported(self):
        bad = KripkeModel(["a", "b", "c"], [(0, 1), (1, 2)], {})
        assert validate_wk4(bad) == (0, 1, 2)


class TestClosure:
    def test_closure_produces_wk4(self):
        rng = random.Random(5)
        for seed in range(200):
            m = random_model(["p"], rng.randint(1, 6), seed)
            assert validate_wk4(m) is None

    def test_closure_idempotent(self):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(1, 5)
            succ = [rng.getrandbits(n) for _ in range(n)]
            once = weak_closure_masks(succ)
            assert weak_closure_masks(once) == once

    def test_closure_minimal_on_small_relations(self):
        # on <= 3 worlds, the closure equals the intersection of all weakly
        # transitive supersets of the input
        n = 3
        full = (1 << n) - 1

        def is_wk4(succ):
            return validate_wk4(KripkeModel([str(i) for i in range(n)],
                                            _edges(succ), {})) is None

        def _edges(succ):
            return [(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1]

        rng = random.Random(11)
        for _ in range(40):
            succ = tuple(rng.getrandbits(n) for _ in range(n))
            closed = weak_closure_masks(succ)
            meet = [full] * n
            for cand in itertools.product(range(1 << n), repeat=n):
                if all(cand[a] & succ[a] == succ[a] for a in range(n)) and is_wk4(cand):
                    meet = [meet[a] & cand[a] for a in range(n)]
            assert tuple(meet) == closed


class TestClusters:
    def test_cycle_single_cluster(self, cycle_model):
        assert cycle_model.clusters() == ((0, 1),)

    def test_chain_two_clusters_ordered(self):
        m = KripkeModel(["w", "v"], [(0, 1)], {})
        assert m.clusters() == ((0,), (1,))
        assert cluster_le(m, [0], [1]) == km.STRICT

    def test_reflexive_singleton_weak_not_strict(self):
        m = KripkeModel(["w"], [(0, 0)], {})
        assert cluster_le(m, [0], [0]) == km.WEAK

    def test_partition_property(self):
        rng = random.Random(3)
        for seed in range(100):
            m = random_model(["p"], rng.randint(1, 6), seed + 1000)
            seen = set()
            for cluster in m.clusters():
                for w in cluster:
                    assert w not in seen
                    seen.add(w)
                for u in cluster:
                    for v in cluster:
                        assert u == v or (m.succ[u] >> v & 1 and m.succ[v] >> u & 1)
            assert seen == set(range(m.n))

    def test_incomparable(self):
        m = KripkeModel(["a", "b"], [], {})
        assert cluster_le(m, [0], [1]) == km.NONE


class TestDepth:
    def test_single_cluster_zero(self, cycle_model):
        assert depth(cycle_model, [0]) == 0

    def test_three_chain(self):
        m = KripkeModel(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], {})
        assert depth(m, [0]) == 2
        assert depth(m, [1]) == 1
        assert depth(m, [2]) == 0


class TestStack:
    def test_stack_on_empty(self):
        c = CanonicalCluster(("p",), ((("p",), ONE),))
        m = stack(KripkeModel([], [], {}), c.realize())
        assert m.n == 1
        assert validate_wk4(m) is None

    def test_stack_sees_everything(self, cycle_model):
        c = CanonicalCluster((), (((), ONE),))
        stacked = stack(cycle_model, c.realize())
        assert validate_wk4(stacked) is None
        # the single lower world (index 0) sees both upper worlds
        assert stacked.succ[0] == 0b110

    def test_stack_depth_increases(self, cycle_model):
        c = CanonicalCluster((), (((), ONE),))
        stacked = stack(cycle_model, c.realize())
        assert depth(stacked, [0]) == depth(cycle_model, [0]) + 1

    def test_disjoint_union_label_collision(self, cycle_model):
        m = disjoint_union([cycle_model, cycle_model])
        assert m.n == 4
        assert len(set(m.labels)) == 4

    def test_stack_preserves_wk4_on_generated_instances(self):
        clusters = enumerate_canonical_clusters(["p"])
        for seed in range(40):
            upper = random_model(["p"], 1 + seed % 5, seed)
            lower = clusters[seed % len(clusters)].realize()
            assert validate_wk4(stack(upper, lower)) is None


class TestCanonicalClusters:
    def test_count_no_props(self):
        assert len(enumerate_canonical_clusters([])) == 2

    def test_count_one_prop(self):
        assert len(enumerate_canonical_clusters(["p"])) == 8

    def test_realizations_are_wk4_clusters(self):
        for c in enumerate_canonical_clusters(["p"]):
            m = c.realize()
            assert validate_wk4(m) is None
            assert m.clusters() == (tuple(range(m.n)),)

    def test_canonical_of_reflexive_singleton_is_saturated(self):
        m = KripkeModel(["w"], [(0, 0)], {"p": [0]})
        c = canonical_of_cluster(m, [0], ["p"])
        assert c.multiplicity(["p"]) == SAT
        assert c.multiplicity([]) == ABSENT

    def test_canonical_of_irreflexive_singleton(self):
        m = KripkeModel(["w"], [], {"p": [0]})
        c = canonical_of_cluster(m, [0], ["p"])
        assert c.multiplicity(["p"]) == ONE

    def test_cap(self):
        with pytest.raises(km.ClusterEnumerationError):
            enumerate_canonical_clusters(["a", "b", "c", "d"], cap=100)


class TestEnumeration:
    def test_single_world_no_props(self):
        ms = list(enumerate_models([], 1))
        assert len(ms) == 2  # reflexive and irreflexive point

    def test_all_emitted_models_wk4(self):
        for m in enumerate_models(["p"], 3):
            assert validate_wk4(m) is None

    def test_no_isomorphic_duplicates_small(self):
        seen = set()
        for m in enumerate_models(["p"], 2):
            key = _canonical_key(m, ["p"])
            assert key not in seen
            seen.add(key)

    def test_guard(self):
        with pytest.raises(km.ClusterEnumerationError):
            next(enumerate_models([], 9))

    def test_guard_is_five_worlds(self):
        with pytest.raises(km.ClusterEnumerationError):
            next(enumerate_models([], 6))

    @pytest.mark.parametrize("n, count", [(1, 2), (2, 10), (3, 54), (4, 359)])
    def test_frame_counts(self, n, count):
        assert len(km._wk4_canonical(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frames_match_brute_force(self, n):
        perms = list(itertools.permutations(range(n)))
        identity = tuple(range(n))
        expected = {}
        for succ in _wk4_relations(n):
            canon = min(_permuted_relation(succ, p) for p in perms)
            if canon not in expected:
                expected[canon] = {p for p in perms if p != identity
                                   and _permuted_relation(canon, p) == canon}
        got = km._wk4_canonical(n)
        assert [succ for succ, _ in got] == sorted(expected)
        for succ, tables in got:
            auts = {tuple(table[1 << w].bit_length() - 1 for w in range(n))
                    for table in tables}
            assert auts == expected[succ]

    @pytest.mark.parametrize("props, max_worlds",
                             [([], 4), (["p"], 4), (["p", "q"], 3)])
    def test_models_match_brute_force(self, props, max_worlds):
        got = [(m.succ, tuple(m.val_mask(p) for p in props))
               for m in enumerate_models(props, max_worlds)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_models(props, max_worlds)

    def test_five_worlds(self):
        # 2,902 five-world frames, checked once against the brute force
        assert sum(1 for _ in enumerate_models([], 5)) == 3327


def _permute_mask(mask, perm):
    out = 0
    for w, image in enumerate(perm):
        if mask >> w & 1:
            out |= 1 << image
    return out


def _permuted_relation(succ, perm):
    out = [0] * len(succ)
    for a, row in enumerate(succ):
        out[perm[a]] = _permute_mask(row, perm)
    return tuple(out)


def _wk4_relations(n):
    """Every weakly transitive successor-mask tuple on n labeled worlds."""
    rels = []
    for bits in range(1 << (n * n)):
        succ = tuple((bits >> (a * n)) & ((1 << n) - 1) for a in range(n))
        if validate_wk4(KripkeModel([str(i) for i in range(n)], (), _masks=(succ, {}))) is None:
            rels.append(succ)
    return rels


def _brute_force_models(props, max_worlds):
    """The least (relation, valuation) image of every labeled wK4 model."""
    out = set()
    for n in range(1, max_worlds + 1):
        perms = list(itertools.permutations(range(n)))
        for succ in _wk4_relations(n):
            # the least pair has the least relation: only its perms compete
            images = [(_permuted_relation(succ, p), p) for p in perms]
            canon = min(rel for rel, _ in images)
            best = [p for rel, p in images if rel == canon]
            for masks in itertools.product(range(1 << n), repeat=len(props)):
                out.add((canon, min(tuple(_permute_mask(m, p) for m in masks)
                                    for p in best)))
    return out


def _canonical_key(m, props):
    best = None
    for perm in itertools.permutations(range(m.n)):
        rel = _permuted_relation(m.succ, perm)
        vals = tuple(_permute_mask(m.val_mask(p), perm) for p in props)
        key = (rel, vals)
        if best is None or key < best:
            best = key
    return best


class TestRandomModels:
    def test_deterministic(self):
        a = random_model(["p", "q"], 8, 123)
        b = random_model(["p", "q"], 8, 123)
        assert a.succ == b.succ and a.val == b.val

    def test_different_seeds_differ(self):
        outs = {random_model(["p"], 8, s).succ for s in range(20)}
        assert len(outs) > 10


class TestSerialization:
    def test_roundtrip(self, cycle_model):
        data = cycle_model.to_dict()
        back = KripkeModel.from_dict(data)
        assert back.labels == cycle_model.labels
        assert back.succ == cycle_model.succ
        assert back.val == cycle_model.val

    def test_close_flag(self):
        data = {"worlds": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
                "val": {}, "close": True}
        m = KripkeModel.from_dict(data)
        assert validate_wk4(m) is None
        assert m.succ[0] >> 2 & 1

    def test_bad_edge(self):
        with pytest.raises(km.ModelFormatError):
            KripkeModel.from_dict({"worlds": ["a"], "edges": [["a", "zzz"]]})

    def test_restrict_keeps_labels(self, cycle_model):
        sub = cycle_model.restrict(0b10)
        assert sub.labels == ("1",)
        assert sub.val_mask("o") == 1
