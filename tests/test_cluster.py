import itertools
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (direct_silhouette, incremental_average_linkage,
                       naive_average_linkage)
from sprachbund.cluster import (Dendrogram, Merge, SprachbundAssignment,
                                agglomerate, cut, random_baseline, silhouette)
from sprachbund.errors import ValidationError
from sprachbund.registry import bundled_registry
from sprachbund.simmatrix import SimilarityMatrix

CODES = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]


def random_similarity(m, seed, quantum=None):
    """Random symmetric similarities; ``quantum`` rounds them to a grid so
    that many pairs, and later many cluster averages, tie exactly."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-0.5, 1.0, size=(m, m))
    if quantum is not None:
        values = np.round(values / quantum) * quantum
    upper = np.triu(values, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(tuple(CODES[:m]), values)


class TestAgglomerate:
    def test_two_languages_single_merge(self):
        mat = SimilarityMatrix(("aa", "bb"),
                               np.array([[1.0, 0.25], [0.25, 1.0]]))
        dg = agglomerate(mat)
        assert len(dg.merges) == 1
        merge = dg.merges[0]
        assert (merge.left, merge.right, merge.node_id) == (0, 1, 2)
        assert merge.distance == pytest.approx(0.75)

    def test_near_pairs_merge_first(self):
        deg = math.radians
        vectors = np.array([
            [1.0, 0.0],
            [math.cos(deg(5)), math.sin(deg(5))],
            [0.0, 1.0],
            [math.cos(deg(85)), math.sin(deg(85))],
        ])
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        values = unit @ unit.T
        upper = np.triu(values, k=1)
        values = upper + upper.T
        np.fill_diagonal(values, 1.0)
        mat = SimilarityMatrix(("aa", "bb", "cc", "dd"), values)
        dg = agglomerate(mat)
        first_two = {frozenset((m.left, m.right)) for m in dg.merges[:2]}
        assert first_two == {frozenset((0, 1)), frozenset((2, 3))}

    def test_matches_naive_oracle(self):
        # tie-heavy cases use a dyadic grid: it keeps every pair sum exact, so
        # the naive oracle's own summation order still produces the same ties
        for quantum, seed in itertools.product((None, 0.125), range(10)):
            mat = random_similarity(10, seed, quantum)
            dg = agglomerate(mat)
            expected, _ = naive_average_linkage(1.0 - mat.values)
            got = [(m.left, m.right, m.node_id) for m in dg.merges]
            assert got == [(a, b, nid) for a, b, _, nid in expected]
            for merge, (_, _, d, _) in zip(dg.merges, expected):
                assert merge.distance == pytest.approx(d, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           quantum=st.sampled_from([None, 0.1]))
    def test_bit_identical_to_incremental_oracle(self, m, seed, quantum):
        mat = random_similarity(m, seed, quantum)
        self.assert_bit_identical(mat)

    def test_bit_identical_to_incremental_oracle_m200(self):
        self.assert_bit_identical(random_similarity(200, 2024, 0.1))

    @staticmethod
    def assert_bit_identical(mat):
        merges = incremental_average_linkage(1.0 - mat.values)
        dg = agglomerate(mat)
        assert dg == Dendrogram(mat.languages,
                                tuple(Merge(*mg) for mg in merges))
        assert ([m.distance.hex() for m in dg.merges]
                == [d.hex() for _, _, d, _ in merges])

    def test_merge_distances_monotone(self):
        for seed in range(5):
            dg = agglomerate(random_similarity(12, seed + 100))
            dists = [m.distance for m in dg.merges]
            assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_permutation_equivariance(self):
        mat = random_similarity(9, 77)
        rng = np.random.default_rng(78)
        perm = rng.permutation(9)
        permuted = SimilarityMatrix(
            tuple(mat.languages[i] for i in perm),
            mat.values[np.ix_(perm, perm)])
        for k in range(1, 10):
            a = {frozenset(c) for c in cut(agglomerate(mat), k).members}
            b = {frozenset(c) for c in cut(agglomerate(permuted), k).members}
            assert a == b

    def test_single_language_rejected(self):
        mat = SimilarityMatrix(("aa",), np.array([[1.0]]))
        with pytest.raises(ValidationError, match="at least 2"):
            agglomerate(mat)


class TestCut:
    def test_k_one_is_everything(self):
        mat = random_similarity(6, 1)
        assignment = cut(agglomerate(mat), 1)
        assert assignment.k == 1
        assert set(assignment.members[0]) == set(mat.languages)

    def test_k_equals_m_is_singletons(self):
        mat = random_similarity(6, 2)
        assignment = cut(agglomerate(mat), 6)
        assert assignment.members == tuple(
            (c,) for c in sorted(mat.languages))

    def test_k_out_of_range(self):
        dg = agglomerate(random_similarity(5, 3))
        for k in (0, 6, -1):
            with pytest.raises(ValidationError, match="k must be in"):
                cut(dg, k)

    def test_every_cut_partitions(self):
        mat = random_similarity(11, 4)
        dg = agglomerate(mat)
        for k in range(1, 12):
            assignment = cut(dg, k)
            assert assignment.k == k
            assert assignment.languages == frozenset(mat.languages)
            assert sum(len(c) for c in assignment.members) == 11

    def test_cuts_are_nested_refinements(self):
        mat = random_similarity(12, 5)
        dg = agglomerate(mat)
        for k in range(2, 13):
            fine = cut(dg, k)
            coarse = cut(dg, k - 1)
            for cluster in fine.members:
                assert any(set(cluster) <= set(big) for big in coarse.members)

    def test_clusters_ordered_by_smallest_member(self):
        assignment = cut(agglomerate(random_similarity(9, 6)), 4)
        firsts = [c[0] for c in assignment.members]
        assert firsts == sorted(firsts)


class TestDendrogramSerialization:
    def test_round_trip(self):
        dg = agglomerate(random_similarity(7, 8))
        back = Dendrogram.from_json(dg.to_json())
        assert back == dg

    @pytest.mark.parametrize("distance", [math.nan, math.inf, -0.5])
    def test_distance_must_be_finite_and_non_negative(self, distance):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            Dendrogram(("aa", "bb"), (Merge(0, 1, distance, 2),))


class TestRandomBaseline:
    def test_reference_cluster_sizes(self):
        codes = bundled_registry().codes
        assignment = random_baseline(codes, (36, 22, 30, 20), seed=17)
        assert [len(c) for c in assignment.members] == [36, 22, 30, 20]
        assert assignment.languages == frozenset(codes)

    def test_single_cluster(self):
        assignment = random_baseline(["aa", "bb", "cc"], (3,), seed=0)
        assert assignment.members == (("aa", "bb", "cc"),)

    def test_deterministic_per_seed(self):
        codes = bundled_registry().codes
        a = random_baseline(codes, (36, 22, 30, 20), seed=5)
        b = random_baseline(codes, (36, 22, 30, 20), seed=5)
        assert a == b
        c = random_baseline(codes, (36, 22, 30, 20), seed=6)
        assert a != c

    def test_size_sum_mismatch(self):
        with pytest.raises(ValidationError, match="sum"):
            random_baseline(["aa", "bb", "cc"], (2, 2), seed=0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            random_baseline(["aa", "bb"], (2, 0), seed=0)


class TestSilhouette:
    def tight_pairs_matrix(self):
        # two tight pairs: within-pair similarity ~0.999, across ~0.01
        values = np.array([
            [1.0, 0.999, 0.01, 0.02],
            [0.999, 1.0, 0.015, 0.01],
            [0.01, 0.015, 1.0, 0.998],
            [0.02, 0.01, 0.998, 1.0],
        ])
        return SimilarityMatrix(("aa", "bb", "cc", "dd"), values)

    def test_separated_pairs_score_high(self):
        mat = self.tight_pairs_matrix()
        assignment = SprachbundAssignment(2, (("aa", "bb"), ("cc", "dd")))
        score = silhouette(mat, assignment)
        assert score > 0.9
        idx = {c: i for i, c in enumerate(mat.languages)}
        clusters = [[idx[c] for c in cl] for cl in assignment.members]
        assert score == pytest.approx(
            direct_silhouette(1.0 - mat.values, clusters), abs=1e-12)

    def test_identical_points_score_zero(self):
        values = np.ones((4, 4))
        mat = SimilarityMatrix(("aa", "bb", "cc", "dd"), values)
        assignment = SprachbundAssignment(2, (("aa", "bb"), ("cc", "dd")))
        assert silhouette(mat, assignment) == 0.0

    def test_singleton_contributes_zero(self):
        mat = self.tight_pairs_matrix()
        assignment = SprachbundAssignment(2, (("aa",), ("bb", "cc", "dd")))
        idx = {c: i for i, c in enumerate(mat.languages)}
        clusters = [[idx[c] for c in cl] for cl in assignment.members]
        assert silhouette(mat, assignment) == pytest.approx(
            direct_silhouette(1.0 - mat.values, clusters), abs=1e-12)

    def test_k_below_two_rejected(self):
        mat = self.tight_pairs_matrix()
        assignment = SprachbundAssignment(1, (("aa", "bb", "cc", "dd"),))
        with pytest.raises(ValidationError, match="at least 2"):
            silhouette(mat, assignment)


class TestAssignmentValidation:
    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ValidationError, match="more than one"):
            SprachbundAssignment(2, (("aa", "bb"), ("bb", "cc")))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            SprachbundAssignment(2, (("aa",), ()))

    def test_json_round_trip(self):
        assignment = SprachbundAssignment(2, (("aa", "bb"), ("cc",)))
        doc = assignment.to_json()
        assert doc == {"k": 2, "clusters": [{"members": ["aa", "bb"]},
                                            {"members": ["cc"]}]}
        assert SprachbundAssignment.from_json(doc) == assignment
        for cluster in doc["clusters"]:
            cluster["pivot"] = None  # written by earlier versions
        assert SprachbundAssignment.from_json(doc) == assignment
