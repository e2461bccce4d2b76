import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import loop_select_pivot
from sprachbund.cluster import SprachbundAssignment, agglomerate
from sprachbund.embedding import LanguageRepresentation
from sprachbund.errors import ValidationError
from sprachbund.partition import build_manifest, select_pivot, sweep
from sprachbund.registry import bundled_registry, write_json
from sprachbund.simmatrix import SimilarityMatrix, build_matrix

CODES = [a + b for a in "abcdefghij" for b in "abcdefghij"]


def random_similarity(m, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-0.5, 1.0, size=(m, m))
    upper = np.triu(values, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(tuple(CODES[:m]), values)


def full_shard_index(codes):
    return {code: [f"{code}.txt"] for code in codes}


class TestSelectPivot:
    def test_singleton(self):
        mat = random_similarity(4, 0)
        assert select_pivot({"ab"}, mat) == "ab"

    def test_matches_brute_force(self):
        mat = random_similarity(6, 1)
        members = ["aa", "ac", "ae"]
        expected = max(
            sorted(members),
            key=lambda c: sum(mat.get(c, other) for other in members))
        assert select_pivot(members, mat) == expected

    def test_tie_breaks_lexicographically(self):
        # two members with identical rows tie exactly
        values = np.array([
            [1.0, 1.0, 0.3],
            [1.0, 1.0, 0.3],
            [0.3, 0.3, 1.0],
        ])
        mat = SimilarityMatrix(("bb", "aa", "cc"), values)
        assert select_pivot(["bb", "aa"], mat) == "aa"

    def test_member_missing_from_matrix(self):
        mat = random_similarity(3, 2)
        with pytest.raises(ValidationError, match="'zz'"):
            select_pivot(["aa", "zz"], mat)

    def test_empty_cluster(self):
        mat = random_similarity(3, 3)
        with pytest.raises(ValidationError, match="empty"):
            select_pivot([], mat)

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((6, 8)).astype(np.float32)
        reps = [LanguageRepresentation(CODES[i], vectors[i], 1)
                for i in range(6)]
        scaled = [LanguageRepresentation(CODES[i], 37.0 * vectors[i], 1)
                  for i in range(6)]
        members = [CODES[i] for i in (0, 2, 4, 5)]
        assert (select_pivot(members, build_matrix(reps))
                == select_pivot(members, build_matrix(scaled)))


def grid_similarity(m, seed, steps):
    """A matrix over ``m`` codes in shuffled order whose entries are
    multiples of 1 / ``steps`` in [-1, 1]: with few steps, many members'
    sums tie exactly; with many, the sums are not exact in binary."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-steps, steps + 1, (m, m)) / steps, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    codes = [f"{a}{b}{c}" for a in "abcdefg" for b in "hijklmn"
             for c in "opqrstu"]
    return SimilarityMatrix(tuple(rng.permutation(codes[:m])), values)


class TestSelectPivotOracle:
    """The row sums of the cluster's submatrix against the loop over
    members in ``reference.py``: the same pivot, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           steps=st.sampled_from([1, 2, 3, 10, 1000]),
           share=st.floats(0.0, 1.0))
    def test_same_pivot_as_the_loop(self, m, seed, steps, share):
        mat = grid_similarity(m, seed, steps)
        rng = np.random.default_rng(seed)
        members = [c for c in mat.languages if rng.random() < share]
        members = members or [mat.languages[0]]
        assert select_pivot(members, mat) == loop_select_pivot(members, mat)

    @pytest.mark.parametrize("steps", [1, 3, 1000])
    def test_same_pivot_on_clusters_past_a_pairwise_block(self, steps):
        """Above 128 members numpy sums a row in pairwise blocks."""
        mat = grid_similarity(300, steps, steps)
        for size in (129, 200, 300):
            members = mat.languages[:size]
            assert select_pivot(members, mat) == \
                loop_select_pivot(members, mat)


class TestBuildManifest:
    def test_pivots_and_disjoint_shards(self):
        mat = random_similarity(8, 5)
        assignment = SprachbundAssignment(
            3, (("aa", "ab", "ac"), ("ad", "ae"), ("af", "ag", "ah")))
        manifest = build_manifest(assignment, mat,
                                  full_shard_index(mat.languages))
        assert manifest.k == 3
        seen_shards = set()
        for cluster in manifest.clusters:
            assert cluster.pivot in cluster.members
            assert not seen_shards & set(cluster.shards)
            seen_shards |= set(cluster.shards)
        assert manifest.languages == frozenset(mat.languages)

    def test_missing_shards_are_named(self):
        mat = random_similarity(4, 6)
        assignment = SprachbundAssignment(2, (("aa", "ab"), ("ac", "ad")))
        index = full_shard_index(["aa", "ab", "ac"])
        with pytest.raises(ValidationError, match="ad"):
            build_manifest(assignment, mat, index)

    def test_allow_missing(self):
        mat = random_similarity(4, 7)
        assignment = SprachbundAssignment(2, (("aa", "ab"), ("ac", "ad")))
        index = full_shard_index(["aa", "ab", "ac"])
        manifest = build_manifest(assignment, mat, index,
                                  allow_missing=["ad"])
        assert manifest.clusters[1].shards == ("ac.txt",)

    def test_shard_outside_assignment_rejected(self):
        mat = random_similarity(4, 8)
        assignment = SprachbundAssignment(2, (("aa", "ab"), ("ac", "ad")))
        index = full_shard_index(["aa", "ab", "ac", "ad", "zz"])
        with pytest.raises(ValidationError, match="zz"):
            build_manifest(assignment, mat, index)

    def test_k_one_holds_every_shard(self):
        mat = random_similarity(5, 9)
        assignment = SprachbundAssignment(1, (tuple(sorted(mat.languages)),))
        manifest = build_manifest(assignment, mat,
                                  full_shard_index(mat.languages))
        assert len(manifest.clusters) == 1
        assert set(manifest.clusters[0].shards) == {
            f"{c}.txt" for c in mat.languages}

    def test_provenance_recorded(self):
        mat = random_similarity(4, 10)
        assignment = SprachbundAssignment(2, (("aa", "ab"), ("ac", "ad")))
        manifest = build_manifest(
            assignment, mat, full_shard_index(mat.languages),
            provenance={"seed": 9, "embedding_source": "file:x.jsonl"})
        assert manifest.provenance["seed"] == 9
        assert manifest.provenance["linkage"] == "average"
        assert manifest.provenance["tool_version"]

    def test_json_round_trip(self, tmp_path):
        mat = random_similarity(4, 11)
        assignment = SprachbundAssignment(2, (("aa", "ab"), ("ac", "ad")))
        manifest = build_manifest(assignment, mat,
                                  full_shard_index(mat.languages),
                                  provenance={"seed": 1})
        path = tmp_path / "manifest.json"
        write_json(path, manifest.to_json())
        doc = json.loads(path.read_text())
        assert doc == manifest.to_json()
        assert "fallback" not in doc


class TestSweep:
    def test_one_manifest_per_k(self):
        mat = random_similarity(10, 12)
        manifests = sweep(agglomerate(mat), mat, (1, 2, 4, 8),
                          full_shard_index(mat.languages))
        assert [m.k for m in manifests] == [1, 2, 4, 8]

    def test_single_k_trivial_manifest(self):
        mat = random_similarity(5, 13)
        manifests = sweep(agglomerate(mat), mat, (1,),
                          full_shard_index(mat.languages))
        assert len(manifests) == 1
        assert len(manifests[0].clusters[0].members) == 5

    def test_k_out_of_range(self):
        mat = random_similarity(5, 14)
        with pytest.raises(ValidationError, match=r"k must be in \[1, 5\], got 6"):
            sweep(agglomerate(mat), mat, (1, 6),
                  full_shard_index(mat.languages))

    def test_empty_ks_rejected(self):
        mat = random_similarity(5, 15)
        with pytest.raises(ValidationError, match="at least one"):
            sweep(agglomerate(mat), mat, (), full_shard_index(mat.languages))

    def test_nested_refinement_across_sweep(self):
        mat = random_similarity(10, 16)
        manifests = sweep(agglomerate(mat), mat, (2, 4, 8),
                          full_shard_index(mat.languages))
        for coarse, fine in zip(manifests, manifests[1:]):
            coarse_sets = [set(c.members) for c in coarse.clusters]
            for cluster in fine.clusters:
                assert any(set(cluster.members) <= big for big in coarse_sets)

    def test_partition_soundness_on_full_registry(self):
        codes = bundled_registry().codes
        rng = np.random.default_rng(17)
        reps = [LanguageRepresentation(c, rng.standard_normal(16).astype(np.float32), 1)
                for c in codes]
        mat = build_matrix(reps)
        manifests = sweep(agglomerate(mat), mat, (1, 2, 4, 8),
                          full_shard_index(codes))
        for manifest in manifests:
            sizes = sum(len(c.members) for c in manifest.clusters)
            assert sizes == 108
            assert manifest.languages == frozenset(codes)
            for cluster in manifest.clusters:
                assert cluster.pivot in cluster.members
