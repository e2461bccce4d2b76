import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (direct_cosine, direct_pearson,
                       loop_paired_similarity_vectors,
                       unit_vectors_with_cosines)
from sprachbund.embedding import LanguageRepresentation
from sprachbund.errors import ValidationError
from sprachbund.registry import (LexicalSimilarityTable, bundled_lexical_table,
                                 write_json)
from sprachbund.simmatrix import (SimilarityMatrix, build_matrix,
                                  bundled_embedding_similarity, cosine_matrix,
                                  load_matrix, paired_similarity_vectors,
                                  pearson)


def make_reps(vectors, codes=None):
    vectors = np.asarray(vectors, dtype=np.float32)
    codes = codes or [f"l{chr(ord('a') + i)}" for i in range(len(vectors))]
    return [LanguageRepresentation(language=c, vector=v, sample_count=1)
            for c, v in zip(codes, vectors)]


class TestCosine:
    """Properties of the one cosine path, ``cosine_matrix``."""

    def test_self_similarity_is_one(self):
        v = [0.3, -1.2, 4.5]
        values = cosine_matrix([v, v, [1.0, 0.0, 0.0]])
        assert np.all(np.diag(values) == 1.0)
        assert values[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert np.array_equal(cosine_matrix(np.eye(3)), np.eye(3))

    def test_forty_five_degrees(self):
        values = cosine_matrix([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert values[0, 1] == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_names_argument(self):
        with pytest.raises(ValidationError, match="row 0 has zero norm"):
            cosine_matrix([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="row 1 has zero norm"):
            cosine_matrix([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="'zz' has zero norm"):
            cosine_matrix([[1.0, 0.0], [0.0, 0.0]], names=["aa", "zz"])

    def test_symmetric_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = cosine_matrix(rng.standard_normal((5, 6)))
            assert np.array_equal(values, values.T)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        vectors = rng.standard_normal((4, 8))
        base = cosine_matrix(vectors)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = vectors.copy()
            scaled[0] *= c
            assert np.allclose(cosine_matrix(scaled), base, rtol=0, atol=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.standard_normal((2, 5))
            assert cosine_matrix([a, b])[0, 1] == pytest.approx(
                direct_cosine(a.tolist(), b.tolist()), abs=1e-12)


class TestBuildMatrix:
    def test_identical_reps_fully_similar(self):
        reps = make_reps([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        mat = build_matrix(reps)
        assert mat.values[0, 1] == 1.0

    def test_orthogonal_reps_identity_matrix(self):
        reps = make_reps(np.eye(3))
        mat = build_matrix(reps)
        assert np.array_equal(mat.values, np.eye(3))

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((8, 12))
        mat = build_matrix(make_reps(vectors))
        f32 = vectors.astype(np.float32).astype(np.float64)
        for i in range(8):
            for j in range(8):
                expected = 1.0 if i == j else direct_cosine(f32[i], f32[j])
                assert mat.values[i, j] == pytest.approx(expected, abs=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(9)
        mat = build_matrix(make_reps(rng.standard_normal((10, 6))))
        assert np.array_equal(mat.values, mat.values.T)
        assert np.all(np.diag(mat.values) == 1.0)
        assert np.all(np.abs(mat.values) <= 1.0 + 1e-9)

    def test_zero_norm_names_language(self):
        reps = make_reps([[1.0, 0.0], [0.0, 0.0]], codes=["aa", "zz"])
        with pytest.raises(ValidationError, match="'zz'"):
            build_matrix(reps)

    def test_needs_two_reps(self):
        with pytest.raises(ValidationError, match="at least 2"):
            build_matrix(make_reps([[1.0, 0.0]]))

    def test_reconstructs_known_cosine_structure(self):
        # synthetic construction: factor the bundled 8-language matrix into
        # unit vectors, rebuild, and compare entrywise
        bundled = bundled_embedding_similarity()
        vectors = unit_vectors_with_cosines(bundled.values)
        mat = build_matrix(make_reps(vectors, codes=list(bundled.languages)))
        assert np.max(np.abs(mat.values - bundled.values)) < 1e-6


class TestMatrixSerialization:
    def test_json_round_trip(self):
        mat = bundled_embedding_similarity()
        back = SimilarityMatrix.from_json(mat.to_json())
        assert back.languages == mat.languages
        assert np.array_equal(back.values, mat.values)

    def test_file_round_trip(self, tmp_path):
        mat = bundled_embedding_similarity()
        write_json(tmp_path / "matrix.json", mat.to_json())
        back = load_matrix(tmp_path / "matrix.json")
        assert back.languages == mat.languages
        assert np.array_equal(back.values, mat.values)

    def test_asymmetric_values_rejected(self):
        values = np.eye(2)
        values[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            SimilarityMatrix(("aa", "bb"), values)

    def test_rounding_error_past_one_is_clamped(self):
        values = np.array([[1.0, 1.0000000001, -1.0000000001],
                           [1.0000000001, 1.0, 0.5],
                           [-1.0000000001, 0.5, 1.0]])
        mat = SimilarityMatrix(("aa", "bb", "cc"), values)
        assert mat.values[0, 1] == 1.0 and mat.values[0, 2] == -1.0
        assert values[0, 1] == 1.0000000001  # the caller's array is kept

    def test_value_past_one_names_the_first_pair(self):
        values = np.eye(3)
        values[1, 2] = values[2, 1] = -1.5
        values[0, 2] = values[2, 0] = 1.01
        with pytest.raises(ValidationError,
                           match=r"\('aa', 'cc'\) is 1\.01, outside \[-1, 1\]"):
            SimilarityMatrix(("aa", "bb", "cc"), values)


class TestPearson:
    def test_identical_sequences(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_known_value(self):
        assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 5.0]) == pytest.approx(-0.5)

    def test_exact_anticorrelation(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_constant_sequences_rejected(self):
        with pytest.raises(ValidationError, match="first sequence"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="second sequence"):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="at least 3"):
            pearson([1.0, 2.0], [2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal-length"):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            xs = rng.standard_normal(15)
            ys = rng.standard_normal(15)
            assert pearson(xs, ys) == pytest.approx(
                direct_pearson(xs.tolist(), ys.tolist()), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(20)
        ys = rng.standard_normal(20)
        base = pearson(xs, ys)
        assert pearson(3.5 * xs + 2.0, ys) == pytest.approx(base, abs=1e-9)
        assert pearson(xs, 0.01 * ys - 7.0) == pytest.approx(base, abs=1e-9)


class TestPairedVectors:
    def test_bundled_fixture_has_15_common_pairs(self):
        xs, ys = paired_similarity_vectors(bundled_embedding_similarity(),
                                           bundled_lexical_table())
        assert len(xs) == len(ys) == 15

    def test_no_overlap_is_an_error(self):
        mat = bundled_embedding_similarity()
        table = LexicalSimilarityTable({("qq", "zz"): 0.5})
        with pytest.raises(ValidationError, match="at least 3"):
            paired_similarity_vectors(mat, table)

    def test_two_language_matrix_is_too_small(self):
        mat = SimilarityMatrix(("aa", "bb"),
                               np.array([[1.0, 0.5], [0.5, 1.0]]))
        table = LexicalSimilarityTable({("aa", "bb"): 0.4})
        with pytest.raises(ValidationError, match="at least 3"):
            paired_similarity_vectors(mat, table)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
           share=st.floats(0.0, 1.0), outside=st.integers(0, 4))
    def test_same_pairs_as_the_loop(self, m, seed, share, outside):
        """A table over the matrix's codes, some codes it lacks and
        self-pairs, its pairs given in random order and orientation."""
        rng = np.random.default_rng(seed)
        codes = [f"{a}{b}" for a in "abcdefgh" for b in "ijklmnop"]
        rng.shuffle(codes)
        vectors = rng.standard_normal((m, 4))
        mat = SimilarityMatrix(codes[:m], cosine_matrix(vectors))
        known = codes[:m + outside]
        entries = {}
        for i, a in enumerate(known):
            if rng.random() < share:
                entries[(a, a)] = 1.0
            for b in known[i + 1:]:
                if rng.random() < share:
                    pair = (a, b) if rng.random() < 0.5 else (b, a)
                    entries[pair] = float(rng.integers(0, 5)) / 4
        keys = list(entries)
        rng.shuffle(keys)
        table = LexicalSimilarityTable({k: entries[k] for k in keys})
        want = loop_paired_similarity_vectors(mat, table)
        if len(want[0]) < 3:
            with pytest.raises(ValidationError, match="at least 3"):
                paired_similarity_vectors(mat, table)
        else:
            assert paired_similarity_vectors(mat, table) == want
