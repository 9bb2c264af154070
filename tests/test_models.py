import hashlib
import itertools
import random
import sys
import threading

import pytest

from tanglekit import formulas as fm
from tanglekit import models as km
from tanglekit import semantics as sem
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

    def test_first_violation_matches_the_edge_list(self):
        # the least (a, b, c) in that order, read from the list of edges
        rng = random.Random(22)
        violated = 0
        for seed in range(300):
            m = random_model([], rng.randint(2, 12), seed)
            succ = list(m.succ)
            for _ in range(rng.randint(1, 3)):
                succ[rng.randrange(m.n)] ^= 1 << rng.randrange(m.n)
            edges = [(a, b) for a in range(m.n) for b in range(m.n) if succ[a] >> b & 1]
            want = next(((a, b, c) for a, b in edges for c in range(m.n)
                         if c != a and succ[b] >> c & 1 and not succ[a] >> c & 1), None)
            assert validate_wk4(KripkeModel(m.labels, (), _masks=(succ, {}))) == want
            violated += want is not None
        assert violated > 100


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
            # maximal: worlds that see each other share a cluster
            for u, v in itertools.product(range(m.n), repeat=2):
                if m.succ[u] >> v & 1 and m.succ[v] >> u & 1:
                    assert m.cluster_id(u) == m.cluster_id(v)

    def test_clusters_match_the_pairwise_definition(self):
        # on every canonical frame of 1-5 worlds and random models of 1-40
        frames = [KripkeModel([str(i) for i in range(n)], (), _masks=(succ, {}))
                  for n in range(1, 6) for succ, _ in km._wk4_canonical(n)]
        frames += [random_model(["p"], 1 + seed % 40, seed) for seed in range(400)]
        assert len(frames) == 3327 + 400
        for m in frames:
            want = _pairwise_clusters(m)
            assert m.clusters() == want
            for i, cluster in enumerate(want):
                mask = sum(1 << w for w in cluster)
                assert all(m.cluster_id(w) == i and m.cluster_mask(w) == mask
                           for w in cluster)

    def test_incomparable(self):
        m = KripkeModel(["a", "b"], [], {})
        assert cluster_le(m, [0], [1]) == km.NONE


def _pairwise_clusters(m):
    """Clusters as mutual access closed transitively, by a union-find over
    every pair of worlds, ordered by least world, each ascending."""
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u in range(m.n):
        for v in range(u + 1, m.n):
            if m.succ[u] >> v & 1 and m.succ[v] >> u & 1:
                parent[find(u)] = find(v)
    groups: dict = {}
    for w in range(m.n):
        groups.setdefault(find(w), []).append(w)
    return tuple(sorted(tuple(g) for g in groups.values()))


class TestDepth:
    def test_single_cluster_zero(self, cycle_model):
        assert depth(cycle_model, [0]) == 0

    def test_three_chain(self):
        m = KripkeModel(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], {})
        assert depth(m, [0]) == 2
        assert depth(m, [1]) == 1
        assert depth(m, [2]) == 0

    def test_heights_match_the_pairwise_longest_chain(self):
        sigmas = [fm.sigma_closure(fm.parse_mu(text)) for text in ("<> p", "nu x.(p & <> x)")]
        sizes = set()
        for seed in range(240):
            m = random_model(["p"], 1 + seed % 12, seed)
            want = _longest_chains(m, m.full_mask)
            assert [depth(m, [w]) for w in range(m.n)] == want
            for sigma in sigmas:
                depths, final = sem.sigma_world_depths(m, sigma)
                assert depths == _longest_chains(m, final)
            sizes.add((m.n, max(want)))
        assert {n for n, _ in sizes} == set(range(1, 13))
        assert all(any(h for n, h in sizes if n == size) for size in range(4, 13))
        assert max(h for _, h in sizes) >= 3


def _longest_chains(m, counted):
    """Per world u, the most clusters meeting the world set `counted` on a
    chain u < v1 < v2 < ..., where v is strictly above u when u -> v and not
    v -> u, by recursion over that pairwise relation."""
    above = [[v for v in range(m.n) if m.succ[u] >> v & 1 and not m.succ[v] >> u & 1]
             for u in range(m.n)]
    counts = [any(counted >> w & 1 for w in range(m.n)
                  if w == v or m.succ[v] >> w & 1 and m.succ[w] >> v & 1)
              for v in range(m.n)]
    memo: dict = {}

    def height(u):
        if u not in memo:
            memo[u] = max((height(v) + counts[v] for v in above[u]), default=0)
        return memo[u]

    return [height(u) for u in range(m.n)]


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

    @pytest.mark.parametrize("n, count, digest", [
        (1, 2, "e7b25b0cfaab3a769bd7aa84498f0e57ff9a18756567123129e5f64f46157a75"),
        (2, 10, "8ded636ba4d2587d1c8f8198aeb0d688403241f03f2e8773febbef3c314f2e73"),
        (3, 54, "d9be2027eb811be86a7e8f6459f0fc856771ff1a3bbfc6e2d839f0015543f1b6"),
        (4, 359, "004f9ef58d0b8580823db6011646188950e4ed0cf7396f3d63191b32a5da24a5"),
        (5, 2902, "2d27ed5d29e4b13dd7104bbc597c6bb051230f46ce9ee418be9277f331708f12"),
    ])
    def test_frame_table_is_pinned(self, n, count, digest):
        # each frame's relation and automorphism tables, in order, as the
        # least-image canonicalisation of every candidate gave them
        h = hashlib.sha256()
        for entry in km._wk4_canonical(n):
            h.update(repr(entry).encode())
        assert (len(km._wk4_canonical(n)), h.hexdigest()) == (count, digest)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_extensions_are_the_wk4_candidates(self, k):
        # every (out-mask, in-mask) pair on each canonical k-world frame,
        # kept when the relation it makes is weakly transitive
        new = 1 << k
        for base, _ in km._wk4_canonical(k):
            want = []
            for out in range(new << 1):
                for inn in range(new):
                    rel = tuple(s | new if inn >> a & 1 else s
                                for a, s in enumerate(base)) + (out,)
                    model = KripkeModel([str(i) for i in range(k + 1)], (), _masks=(rel, {}))
                    if validate_wk4(model) is None:
                        want.append(rel)
            got = list(km._wk4_extensions(base))
            assert len(got) == len(set(got))
            assert sorted(got) == sorted(want)

    @pytest.mark.parametrize("props, max_worlds",
                             [([], 4), (["p"], 4), (["p", "q"], 3)])
    def test_models_match_brute_force(self, props, max_worlds):
        got = [(m.succ, tuple(m.val_mask(p) for p in props))
               for m in enumerate_models(props, max_worlds)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_models(props, max_worlds)

    def test_repeated_atoms_count_once(self):
        want = [(m.succ, m.val, m._shift) for m in enumerate_models(["p"], 2)]
        got = [(m.succ, m.val, m._shift) for m in enumerate_models(["p", "p"], 2)]
        assert len(want) == 40
        assert got == want

    def test_five_worlds(self):
        # 2,902 five-world frames, checked once against the brute force
        assert sum(1 for _ in enumerate_models([], 5)) == 3327

    @pytest.mark.parametrize("atoms", [0, 1, 2, 3])
    def test_orbit_leaders_match_least_image_filter(self, atoms):
        # the filter that keeps a valuation unless some automorphism maps
        # it to a smaller tuple; three atoms on at most three worlds
        for n in range(1, 5 if atoms < 3 else 4):
            for _, tables in km._wk4_canonical(n):
                want = [masks for masks in itertools.product(range(1 << n), repeat=atoms)
                        if not any(tuple(map(table.__getitem__, masks)) < masks
                                   for table in tables)]
                assert km._orbit_leaders(n, atoms, tables) == want

    @pytest.mark.parametrize("props, max_worlds, count, digest", [
        (["p", "q"], 4, 70270,
         "7721ae9404b37efe703a0770a49856a18c2c317c662e919ab8c0cd8ab57c7730"),
        (["p"], 5, 79417,
         "f39035c0ee52a3852aaf48edc5ef0a942906a66c4472419caa077a71b5d0fd88"),
        (["p", "q", "r"], 3, 21248,
         "a2835c45314e29ab434f2a6e84ff57cef362a4924803aecefa5c33ebfaaacc7d"),
    ])
    def test_enumeration_order_is_pinned(self, props, max_worlds, count, digest):
        # the models and their order, as the orbit-filter enumeration gave them
        h = hashlib.sha256()
        seen = 0
        for m in enumerate_models(props, max_worlds):
            h.update(repr((m.succ, tuple(m.val_mask(p) for p in props))).encode())
            seen += 1
        assert (seen, h.hexdigest()) == (count, digest)


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

    def test_repeated_atoms_count_once(self):
        for seed in range(20):
            a, b = random_model(["p", "p"], 3, seed), random_model(["p"], 3, seed)
            assert (a.succ, a.val) == (b.succ, b.val)


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


def _row_masks(rows):
    """A batch's rows as a map from (u, v) to the mask they hold."""
    return {(u, v): mask for u, row in enumerate(rows) for v, mask in row}


def _memos_of_a_run(model, program):
    """The distinct memos handed to the algebra by one run of the program
    on the model, which holds only its own fields afterwards."""
    seen = []

    def dia(m, s, key, memo):
        seen.append(memo)
        return sem._dia_mask(m, s, key, memo)

    def box(m, s, key, memo):
        seen.append(memo)
        return sem._box_mask(m, s, key, memo)
    sem.run_program(model, program, dia, box)
    assert set(vars(model)) <= {"labels", "n", "succ", "val", "full_mask", "_batch", "_shift"}
    return list({id(memo): memo for memo in seen}.values())


class TestModalMemos:
    def test_models_of_one_frame_share_no_memo(self):
        # memos live for one run: each run on a model of a frame is handed
        # memos of its own, and none stays on the model
        f = fm.parse_mu("nu x. mu y. ((p & <> x) | [] y)")
        program = sem.compile_roots((f,))
        by_frame: dict = {}
        for m in enumerate_models(["p"], 3):
            by_frame.setdefault(m.succ, []).append(m)
        runs = [_memos_of_a_run(m, program) for models in by_frame.values() for m in models]
        assert all(len(run) == 2 for run in runs)
        memos = [memo for run in runs for memo in run]
        assert len(set(map(id, memos))) == len(memos)
        assert len(by_frame) == 2 + 10 + 54

    def test_enumerations_and_other_models_do_not_share(self):
        one = list(enumerate_models(["p"], 2))
        two = list(enumerate_models(["p"], 2))
        assert [m.succ for m in one] == [m.succ for m in two]
        m = one[-1]
        copies = [KripkeModel(m.labels, (), _masks=(m.succ, m.val)), m.close(),
                  m.restrict(m.full_mask)]
        program = sem.compile_roots((fm.parse_mu("<> [] p"),))
        memos = [memo for model in one + two + copies + [m]
                 for memo in _memos_of_a_run(model, program)]
        assert len(memos) == 2 * (len(one) + len(two) + len(copies) + 1)
        assert len(set(map(id, memos))) == len(memos)

    def test_enumerated_models_match_constructed_ones(self):
        count = 0
        for m in enumerate_models(["p", "q"], 3):
            edges = [(a, b) for a in range(m.n) for b in range(m.n) if m.succ[a] >> b & 1]
            val = {name: [w for w in range(m.n) if mask >> w & 1]
                   for name, mask in m.val.items()}
            built = KripkeModel(m.labels, edges, val)
            assert type(m) is KripkeModel
            assert m.to_dict() == built.to_dict()
            assert (m.succ, m.val, m.full_mask) == (built.succ, built.val, built.full_mask)
            assert m.clusters() == built.clusters()
            count += 1
        assert count == 2848

    def test_models_of_one_frame_are_the_copies_of_one_family(self):
        # A frame's models are consecutive copies of its batch: each copy
        # decodes to its model's own successor rows and valuation, and each
        # relation mask marks the copy as the model's frame has it.
        by_frame: dict = {}
        for m in enumerate_models(["p", "q"], 3):
            by_frame.setdefault(m.succ, []).append(m)
        for models in by_frame.values():
            batch, n, start = models[0]._batch, models[0].n, models[0]._shift
            assert models[-1]._shift + n - start == len(models) * n
            masks = dict(zip(("dia_rows", "cluster_rows", "inside_rows", "down_rows"),
                             map(_row_masks, (batch.dia_rows, *batch.tangle_rows()))))
            # the valuations are the frame's orbit leaders, in order
            leaders = km._orbit_leaders(n, 2, dict(km._wk4_canonical(n))[models[0].succ])
            assert [m.val for m in models] == [dict(zip("pq", masks)) for masks in leaders]
            for j, m in enumerate(models):
                assert m._batch is batch and m._shift == start + j * n
                base = m._shift

                def bit(name, u, v):
                    return masks[name].get((u, v), 0) >> base & 1

                assert tuple(sum(bit("dia_rows", u, v) << v for v in range(n))
                             for u in range(n)) == m.succ
                for u in range(n):
                    mates = m.cluster_mask(u)
                    for v in range(n):
                        edge, mate = m.succ[u] >> v & 1, mates >> v & 1
                        assert bit("cluster_rows", u, v) == mate
                        assert bit("inside_rows", u, v) == edge & mate
                        assert bit("down_rows", u, v) == edge | mate
                        # masks hold first bits only
                        assert all(masks[name].get((u, v), 0) >> base + 1 & m.full_mask >> 1 == 0
                                   for name in masks)
        m = models[-1]
        assert all(c._batch is None for c in (
            KripkeModel(m.labels, (), _masks=(m.succ, m.val)), m.close(),
            m.restrict(m.full_mask), KripkeModel.from_dict(m.to_dict())))

    @pytest.mark.parametrize("cap", [1, 8, 64, None])
    def test_batches_cut_between_frames_under_the_cap(self, monkeypatch, cap):
        want = [(m.succ, m.val) for m in enumerate_models(["p"], 4)]
        if cap is None:  # the module's own cap
            cap = km.BATCH_BITS
        monkeypatch.setattr(km, "BATCH_BITS", cap)
        got, batches = [], {}
        for m in enumerate_models(["p"], 4):
            got.append((m.succ, m.val))
            batches.setdefault(m._batch, {}).setdefault(m.succ, []).append(m)
        assert got == want
        last = None
        for batch, by_frame in batches.items():
            # a batch spans consecutive whole frames of one world count; a
            # frame's extent runs from its first model's shift to its last's
            (n,) = {m.n for models in by_frame.values() for m in models}
            widths = [models[-1]._shift + n - models[0]._shift
                      for models in by_frame.values()]
            offset = 0
            for models, width in zip(by_frame.values(), widths):
                assert models[0]._shift == offset
                assert len(models) * n == width
                offset += width
            assert batch.full_mask.bit_length() == offset
            assert offset <= cap or len(by_frame) == 1
            # the next frame of the same world count did not fit
            if last is not None and last[0] == n:
                assert last[1] + widths[0] > cap
            last = n, offset
        # one frame per batch only under a cap below every frame's width
        assert (max(len(f) for f in batches.values()) > 1) == (cap > 1)

    def test_full_mask_is_an_attribute(self):
        m = KripkeModel(["a", "b", "c"], [(0, 1)])
        assert m.full_mask == 0b111 == vars(m)["full_mask"]
        assert KripkeModel([], ()).full_mask == 0


def _leader_models(props, max_worlds):
    """`(succ, val)` of each model `enumerate_models` yields, in its order,
    from the frame table and the orbit leaders alone, reading no batch."""
    props = sorted(props)
    for n in range(1, max_worlds + 1):
        for succ, tables in km._wk4_canonical(n):
            for masks in km._orbit_leaders(n, len(props), tables):
                yield succ, dict(zip(props, masks))


def _fields(m):
    return m.labels, m.succ, m.val, m.full_mask, m._batch


# what each reader of a model's valuation returns, comparable across
# models (`val` itself is checked against the oracle directly)
_READERS = {
    "val_mask": lambda m: [m.val_mask(name) for name in ("p", "q", "r")],
    "to_dict": lambda m: m.to_dict(),
    "close": lambda m: _fields(m.close()),
    "restrict": lambda m: [_fields(m.restrict(mask)) for mask in range(m.full_mask + 1)],
}

_VIEW_FAMILIES = [(["p", "q"], 3), (["p"], 4)]


class TestValuationView:
    """An enumerated model reads its valuation from its copy in its batch,
    on first use; it must read as the model built from the same rows and
    the orbit leaders."""

    @pytest.mark.parametrize("props, max_worlds", _VIEW_FAMILIES)
    def test_val_is_read_on_first_use(self, props, max_worlds):
        models = list(enumerate_models(props, max_worlds))
        oracle = list(_leader_models(props, max_worlds))
        assert len(models) == len(oracle)
        assert not any("val" in vars(m) for m in models)
        for m, (succ, val) in zip(models, oracle):
            assert (m.succ, m.val) == (succ, val)
            assert vars(m)["val"] is m.val

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("props, max_worlds", _VIEW_FAMILIES)
    def test_views_read_as_built_models(self, props, max_worlds, reader):
        # each reader is the first to read the view's valuation
        read = _READERS[reader]
        count = 0
        for m, (succ, val) in zip(enumerate_models(props, max_worlds),
                                  _leader_models(props, max_worlds)):
            built = KripkeModel(m.labels, (), _masks=(succ, val))
            assert "val" not in vars(m)
            assert read(m) == read(built)
            count += 1
        assert count == {3: 2848, 4: 5089}[max_worlds]

    @pytest.mark.parametrize("props, max_worlds", _VIEW_FAMILIES)
    def test_per_model_path_matches_the_batch_value(self, props, max_worlds):
        # with an env, eval_mu runs on the model and reads its valuation;
        # without one it shifts the model's copy out of the batch's value
        f = fm.parse_mu("nu x. mu y. ((p & <> x) | (q & [] y))")
        for m in enumerate_models(props, max_worlds):
            per_model = sem.eval_mu(m, f, {})
            assert "val" in vars(m)
            assert per_model == sem.eval_mu(m, f)

    @pytest.mark.parametrize("props, max_worlds", _VIEW_FAMILIES)
    def test_threads_reading_one_view_agree(self, props, max_worlds):
        # eight threads, more than the cores, read each sampled view's
        # first valuation at once, with threads switched every microsecond
        oracle = list(_leader_models(props, max_worlds))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i, m in enumerate(enumerate_models(props, max_worlds)):
                if i % 101:
                    continue
                start = threading.Barrier(8, timeout=10)
                got = [None] * 8

                def read(k):
                    start.wait()
                    got[k] = m.val

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert got == [oracle[i][1]] * 8 and vars(m)["val"] == oracle[i][1]
        finally:
            sys.setswitchinterval(interval)
