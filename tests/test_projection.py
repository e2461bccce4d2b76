import math

import numpy as np
import pytest

from reference import entropy_bits
from sprachbund.embedding import LanguageRepresentation
from sprachbund.errors import ValidationError
from sprachbund.projection import (Projection2D, TsneParams,
                                   conditional_affinities, emit_plot,
                                   joint_affinities, minmax_normalize,
                                   project, tsne)
from sprachbund.registry import LanguageRecord, Registry, bundled_registry
from sprachbund.simmatrix import build_matrix, cosine_matrix

CODES = [a + b for a in "abcdefghijklmnopqrst" for b in "abcdefghijklmnopqrst"]


def make_matrix(vectors):
    """The similarity matrix of float32 representations of ``vectors``."""
    return build_matrix(
        [LanguageRepresentation(CODES[i], np.asarray(v, np.float32), 1)
         for i, v in enumerate(vectors)])


def random_distances(m, seed, dim=10):
    rng = np.random.default_rng(seed)
    return 1.0 - cosine_matrix(rng.standard_normal((m, dim)))


class TestConditionalAffinities:
    def test_every_row_hits_target_entropy(self):
        distances = random_distances(30, 0)
        perplexity = 8.0
        cond = conditional_affinities(distances, perplexity)
        for i in range(30):
            assert cond[i, i] == 0.0
            assert entropy_bits(cond[i]) == pytest.approx(
                math.log2(perplexity), abs=1e-4)

    def test_rows_are_distributions(self):
        cond = conditional_affinities(random_distances(20, 1), 5.0)
        assert np.all(cond >= 0)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_perplexity_bounds(self):
        distances = random_distances(10, 2)
        with pytest.raises(ValidationError, match="perplexity"):
            conditional_affinities(distances, 0.5)
        with pytest.raises(ValidationError, match="perplexity"):
            conditional_affinities(distances, 10.0)


class TestJointAffinities:
    def test_symmetric_nonnegative_sums_to_one(self):
        cond = conditional_affinities(random_distances(25, 3), 6.0)
        joint = joint_affinities(cond)
        assert np.array_equal(joint, joint.T)
        assert np.all(joint >= 0)
        assert abs(joint.sum() - 1.0) < 1e-9

    def test_coincident_points_dominate_their_row(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((8, 6))
        vectors[5] = vectors[2]  # coincident pair
        joint = joint_affinities(
            conditional_affinities(1.0 - cosine_matrix(vectors), 2.0))
        assert np.argmax(joint[2]) == 5
        assert np.argmax(joint[5]) == 2


class TestTsneParams:
    @pytest.mark.parametrize("key", [
        k for k in TsneParams.__dataclass_fields__ if k != "seed"])
    def test_nan_fails_every_rule(self, key):
        with pytest.raises(ValidationError, match=f"tsne.{key} must be .*nan"):
            TsneParams(**{key: math.nan})


class TestTsne:
    def test_fixed_seed_is_bitwise_deterministic(self):
        matrix = make_matrix(np.random.default_rng(5).standard_normal((12, 8)))
        params = TsneParams(perplexity=3.0, iterations=120, seed=42)
        a = tsne(matrix, params)
        b = tsne(matrix, params)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        matrix = make_matrix(np.random.default_rng(6).standard_normal((12, 8)))
        a = tsne(matrix, TsneParams(perplexity=3.0, iterations=60, seed=1))
        b = tsne(matrix, TsneParams(perplexity=3.0, iterations=60, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_kl_final_not_above_exaggeration_end(self):
        matrix = make_matrix(np.random.default_rng(7).standard_normal((20, 10)))
        params = TsneParams(perplexity=4.0, iterations=500,
                            exaggeration_iters=100, seed=3)
        result = tsne(matrix, params)
        trace = dict(result.kl_trace)
        assert trace[500] <= trace[100] + 1e-6

    def test_duplicates_land_closest(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((10, 12))
        vectors[7] = vectors[1]
        result = tsne(make_matrix(vectors),
                      TsneParams(perplexity=2.5, iterations=600, seed=9))
        points = result.points
        dup_gap = np.linalg.norm(points[1] - points[7])
        for j in range(10):
            if j in (1, 7):
                continue
            assert dup_gap < np.linalg.norm(points[1] - points[j])
            assert dup_gap < np.linalg.norm(points[7] - points[j])

    def test_too_few_points(self):
        matrix = make_matrix(np.eye(3))
        with pytest.raises(ValidationError, match="at least 4"):
            tsne(matrix, TsneParams(perplexity=2.0))

    def test_perplexity_too_large(self):
        matrix = make_matrix(np.random.default_rng(10).standard_normal((9, 4)))
        with pytest.raises(ValidationError, match="too large"):
            tsne(matrix, TsneParams(perplexity=3.0))  # needs < (9-1)/3

    def test_degenerate_identical_inputs(self):
        matrix = make_matrix(np.tile([1.0, 2.0, 3.0], (8, 1)))
        with pytest.raises(ValidationError, match="identical"):
            tsne(matrix, TsneParams(perplexity=2.0))


class TestProjection2D:
    def test_nan_point_says_tsne_diverged(self):
        points = np.array([[0.0, 0.0], [math.nan, 0.5], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="t-SNE diverged"):
            Projection2D(languages=("aa", "bb", "cc"), points=points)


class TestMinmaxNormalize:
    def test_forced_arithmetic(self):
        points = np.array([[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]])
        out = minmax_normalize(points)
        assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])

    def test_single_point_maps_to_center(self):
        out = minmax_normalize(np.array([[3.0, -7.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_range_attained(self):
        rng = np.random.default_rng(11)
        out = minmax_normalize(rng.standard_normal((40, 2)) * 17.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        for axis in range(2):
            assert out[:, axis].min() == 0.0
            assert out[:, axis].max() == 1.0

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(12)
        once = minmax_normalize(rng.standard_normal((15, 2)))
        assert np.array_equal(minmax_normalize(once), once)


class TestEmitPlot:
    def projection_for(self, registry, codes=None):
        codes = tuple(codes if codes is not None else registry.codes)
        rng = np.random.default_rng(13)
        points = minmax_normalize(rng.standard_normal((len(codes), 2)))
        return Projection2D(languages=codes, points=points,
                            params={"seed": 13})

    def test_family_coloring_has_22_legend_entries(self):
        registry = bundled_registry()
        projection = self.projection_for(registry)
        svg, data = emit_plot(projection, registry, "family")
        assert len(data["categories"]) == 22
        assert svg.count("<circle") == 108

    def test_unlabeled_syntax_rendered_gray(self, toy_registry):
        projection = self.projection_for(toy_registry)
        svg, data = emit_plot(projection, toy_registry, "word_order")
        assert "#999999" in svg  # dd and ee carry no word_order label
        assert data["categories"] == ["SOV", "SVO"]

    def test_fully_unlabeled_attribute_is_all_gray(self, toy_registry):
        projection = self.projection_for(toy_registry)
        svg, data = emit_plot(projection, toy_registry, "adposition_position")
        assert data["categories"] == []
        assert svg.count("#999999") == len(toy_registry)

    def test_unknown_attribute_rejected(self, toy_registry):
        projection = self.projection_for(toy_registry)
        with pytest.raises(ValidationError, match="unknown color_by"):
            emit_plot(projection, toy_registry, "tonality")

    def test_unregistered_language_rejected(self, toy_registry):
        projection = Projection2D(languages=("zz", "aa"),
                                  points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValidationError, match="'zz'"):
            emit_plot(projection, toy_registry, "family")

    def test_output_bytes_deterministic(self, toy_registry):
        projection = self.projection_for(toy_registry)
        svg1, data1 = emit_plot(projection, toy_registry, "family")
        svg2, data2 = emit_plot(projection, toy_registry, "family")
        assert svg1 == svg2
        assert data1 == data2


class TestProject:
    def test_projection_is_normalized_with_params(self):
        matrix = make_matrix(np.random.default_rng(14).standard_normal((10, 6)))
        projection = project(matrix, TsneParams(perplexity=2.0, iterations=80,
                                                seed=4))
        assert projection.languages == matrix.languages
        assert projection.points.shape == (10, 2)
        assert projection.points.min() >= 0.0
        assert projection.points.max() <= 1.0
        assert projection.params["perplexity"] == 2.0
        assert projection.params["seed"] == 4
