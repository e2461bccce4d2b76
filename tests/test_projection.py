import math
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (clamped_gradient, clamped_student_t, clamped_tsne,
                       diag_gradient, diag_tsne, entropy_bits,
                       gather_kl_divergence, loop_conditional_affinities,
                       unconverged_rows)
from sprachbund import projection
from sprachbund.embedding import LanguageRepresentation
from sprachbund.errors import ValidationError
from sprachbund.projection import (Projection2D, TsneParams, _Buffers,
                                   _gradient, _kl_divergence, _q, _student_t,
                                   conditional_affinities,
                                   emit_plot, joint_affinities,
                                   minmax_normalize, project, tsne)
from sprachbund.registry import LanguageRecord, Registry, bundled_registry
from sprachbund.simmatrix import (SimilarityMatrix, build_matrix,
                                  cosine_matrix)

CODES = [a + b for a in "abcdefghijklmnopqrst" for b in "abcdefghijklmnopqrst"]


def make_matrix(vectors):
    """The similarity matrix of float32 representations of ``vectors``."""
    return build_matrix(
        [LanguageRepresentation(CODES[i], np.asarray(v, np.float32), 1)
         for i, v in enumerate(vectors)])


def cosine_input(vectors):
    """The similarity matrix of float64 ``vectors``, for the bandwidth
    search."""
    return SimilarityMatrix(CODES[:len(vectors)], cosine_matrix(vectors))


def random_input(m, seed, dim=10):
    return cosine_input(np.random.default_rng(seed).standard_normal((m, dim)))


def search_vectors(m, seed, dim, rounded, coincident, lonely=0):
    """Random vectors; ``rounded`` snaps them to integer coordinates (many
    tied distances), rows 1..coincident repeat row 0, and the last
    ``lonely`` rows are orthogonal to every other row: all their distances
    are 1, so their search never reaches a perplexity below M - 1."""
    vectors = np.random.default_rng(seed).standard_normal((m, dim))
    if rounded:
        vectors = np.round(vectors)
        vectors[~vectors.any(axis=1), 0] = 1.0
    vectors[1:1 + coincident] = vectors[0]
    if lonely:
        vectors = np.hstack([vectors, np.zeros((m, lonely))])
        vectors[m - lonely:] = np.eye(lonely, dim + lonely, dim)
    return vectors


def search_input(m, seed, dim, rounded, coincident):
    """The similarity matrix of :func:`search_vectors`."""
    return cosine_input(search_vectors(m, seed, dim, rounded, coincident))


class TestConditionalAffinities:
    def test_every_row_hits_target_entropy(self):
        perplexity = 8.0
        cond, _ = conditional_affinities(random_input(30, 0), perplexity)
        for i in range(30):
            assert cond[i, i] == 0.0
            assert entropy_bits(cond[i]) == pytest.approx(
                math.log2(perplexity), abs=1e-4)
        assert unconverged_rows(cond, perplexity) == 0

    def test_rows_are_distributions(self):
        cond, _ = conditional_affinities(random_input(20, 1), 5.0)
        assert np.all(cond >= 0)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_perplexity_bounds(self):
        matrix = random_input(10, 2)
        with pytest.raises(ValidationError, match="perplexity"):
            conditional_affinities(matrix, 0.5)
        with pytest.raises(ValidationError, match="perplexity"):
            conditional_affinities(matrix, 10.0)


class TestBandwidthSearchOracle:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(5, 80), seed=st.integers(0, 2**32 - 1),
           dim=st.integers(2, 12), rounded=st.booleans(),
           coincident=st.integers(0, 3), lonely=st.integers(0, 3),
           where=st.floats(0.0, 1.0), rows=st.sampled_from([1, 7, "M"]))
    def test_bit_equal_to_the_row_loop(self, m, seed, dim, rounded,
                                       coincident, lonely, where, rows):
        """Searched ``rows`` rows at a time: P to the bit, and the count of
        rows that miss the target, ``lonely`` rows among them."""
        matrix = cosine_input(
            search_vectors(m, seed, dim, rounded, coincident, lonely))
        perplexity = 1.01 + where * ((m - 1) / 3 - 1.01)
        want = loop_conditional_affinities(1.0 - matrix.values, perplexity)
        block = (m if rows == "M" else rows) * m
        with mock.patch.object(projection, "_SEARCH_BLOCK", block):
            got, misses = conditional_affinities(matrix, perplexity)
        assert np.array_equal(got, want)
        assert misses == unconverged_rows(want, perplexity) >= lonely

    def test_step_cap_counts_rows_that_miss_after_the_last_step(self):
        """Under each cap, some rows reach the target at the last step
        allowed: the count checks them once more."""
        matrix = random_input(12, 5)
        counts = []
        for max_steps in range(40):
            got, misses = conditional_affinities(matrix, 3.0,
                                                 max_steps=max_steps)
            want = loop_conditional_affinities(1.0 - matrix.values, 3.0,
                                               max_steps=max_steps)
            assert np.array_equal(got, want)
            assert misses == unconverged_rows(want, 3.0)
            counts.append(misses)
        assert counts[0] == 12 and counts[-1] == 0

    def test_fit_reports_the_count_of_the_search(self):
        matrix = make_matrix(search_vectors(30, 2, 6, False, 0, lonely=4))
        fit = tsne(matrix, TsneParams(perplexity=5.0, iterations=1))
        want = loop_conditional_affinities(1.0 - matrix.values, 5.0)
        assert fit.unconverged_rows == unconverged_rows(want, 5.0) == 4

    def test_bit_equal_where_entries_underflow(self):
        matrix = search_input(12, 4, 3, rounded=True, coincident=0)
        cond, _ = conditional_affinities(matrix, 1.05)
        assert np.count_nonzero(cond == 0.0) > 12  # more than the diagonal
        assert np.array_equal(
            cond, loop_conditional_affinities(1.0 - matrix.values, 1.05))

    def test_equidistant_rows_cannot_reach_the_target(self):
        cond, _ = conditional_affinities(cosine_input(np.eye(8)), 2.0)
        # every row stays uniform over 7 points: 2.81 bits against 1.00
        assert entropy_bits(cond[0]) == pytest.approx(math.log2(7))
        assert unconverged_rows(cond, 2.0) == 8

    def test_coincident_triple_misses_the_target(self):
        vectors = np.random.default_rng(1).standard_normal((8, 6))
        vectors[1] = vectors[2] = vectors[0]
        cond, _ = conditional_affinities(cosine_input(vectors), 1.5)
        # two exact neighbours hold each triple row at 1 bit, against 0.585
        for i in range(3):
            assert entropy_bits(cond[i]) == pytest.approx(1.0)
        assert unconverged_rows(cond, 1.5) == 3


class TestJointAffinities:
    def test_symmetric_nonnegative_sums_to_one(self):
        cond, _ = conditional_affinities(random_input(25, 3), 6.0)
        joint = joint_affinities(cond)
        assert np.array_equal(joint, joint.T)
        assert np.all(joint >= 0)
        assert abs(joint.sum() - 1.0) < 1e-9

    def test_coincident_points_dominate_their_row(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((8, 6))
        vectors[5] = vectors[2]  # coincident pair
        joint = joint_affinities(
            conditional_affinities(cosine_input(vectors), 2.0)[0])
        assert np.argmax(joint[2]) == 5
        assert np.argmax(joint[5]) == 2


class TestTsneParams:
    @pytest.mark.parametrize("key", [
        k for k in TsneParams.__dataclass_fields__ if k != "seed"])
    def test_nan_fails_every_rule(self, key):
        with pytest.raises(ValidationError, match=f"tsne.{key} must be .*nan"):
            TsneParams(**{key: math.nan})

    @pytest.mark.parametrize("key", [
        "perplexity", "learning_rate", "early_exaggeration",
        "initial_momentum", "final_momentum", "init_scale", "min_gain"])
    def test_infinity_fails_every_float_rule(self, key):
        """A caller of the API gets finiteness too: +inf passes a rule such
        as > 0, and would let t-SNE diverge late."""
        with pytest.raises(ValidationError,
                           match=f"^tsne.{key} must be finite, got inf$"):
            TsneParams(**{key: math.inf})


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
        """A shorter run is the start of a longer one, so the final KL of
        a run that stops where exaggeration ends is the longer run's KL
        there."""
        matrix = make_matrix(np.random.default_rng(7).standard_normal((20, 10)))
        kl = {}
        for iterations in (100, 500):
            params = TsneParams(perplexity=4.0, iterations=iterations,
                                exaggeration_iters=100, seed=3)
            kl[iterations] = tsne(matrix, params).kl_trace
        assert kl[100][0][0] == 100 and kl[500][0][0] == 500
        assert kl[500][0][1] <= kl[100][0][1] + 1e-6

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

    @pytest.mark.parametrize("seed, scale", [(0, 1e-4), (1, 1.0), (2, 10.0),
                                             (3, 1e-4), (4, 1.0), (5, 10.0)])
    def test_gradient_matches_the_diag_formula(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 120))
        y = rng.standard_normal((m, 2)) * scale
        p = rng.random((m, m))
        p += p.T
        np.fill_diagonal(p, 0.0)
        p /= p.sum()
        b = _Buffers(m)
        total, clamp = _student_t(y, b)
        want_grad, want_q = diag_gradient(p, y)
        np.testing.assert_allclose(_q(b.num, total, True, b.w), want_q,
                                   rtol=1e-12)
        grad = _gradient(p, y, b, total, clamp, 1.0)
        # an entry whose terms cancel toward 0 keeps an error on the scale of
        # the largest entry, not of its own
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_grad).max())

    def test_final_kl_tracks_the_diag_descent(self):
        new, old = [], []
        for seed in range(8):
            matrix = make_matrix(
                np.random.default_rng(100 + seed).standard_normal((40, 10)))
            params = TsneParams(perplexity=5.0, seed=seed)
            new.append(tsne(matrix, params).kl_trace[-1][1])
            old.append(diag_tsne(matrix, params)[1])
        assert abs(np.median(new) - np.median(old)) <= 0.1 * np.median(old)

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

    def test_descent_holds_no_distances_or_conditional_p(self):
        """At M = 200, the peak was 9.3 M x M float64 arrays while the
        distances and the conditional P lived through the descent, 7.2
        while it held an exaggerated copy of P, and 6.2 while the final KL
        gathered P and Q over their support. The descent holds the joint P
        and two buffers; an exaggerated step scales P in the pass that
        forms W, and the final KL adds the support mask and one gather:
        4.3."""
        m = 200
        matrix = make_matrix(
            np.random.default_rng(0).standard_normal((m, 16)))
        tracemalloc.start()
        try:
            tsne(matrix, TsneParams(perplexity=10.0, iterations=60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * m * m * 8, peak / (m * m * 8)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _descent_input(m, seed, scale, far):
    """Points at ``scale`` with ``far`` of them ~1e7 away, where Q's clamp
    changes entries, and a random symmetric P."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((m, 2)) * scale
    y[:far] += rng.standard_normal((far, 2)) * 1e7
    p = rng.random((m, m))
    p += p.T
    np.fill_diagonal(p, 0.0)
    return y, p / p.sum()


class TestKlDivergence:
    """The final KL worked out in Q's buffer against the KL of P and Q
    gathered over P's support (``gather_kl_divergence`` in reference.py):
    equal to the bit."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 1.0), subnormal=st.floats(0.0, 0.5),
           clamped=st.floats(0.0, 1.0))
    def test_bit_equal_to_the_gathered_kl(self, m, seed, zeros, subnormal,
                                          clamped):
        """P with zeros beyond the diagonal and entries that underflowed to
        subnormals; Q with entries at the clamp."""
        rng = np.random.default_rng(seed)
        p = rng.random((m, m))
        p[rng.random((m, m)) < subnormal] *= 1e-310
        p[rng.random((m, m)) < zeros] = 0.0
        np.fill_diagonal(p, 0.0)
        q = rng.random((m, m))
        q[rng.random((m, m)) < clamped] = 1e-12
        want = gather_kl_divergence(p, q)
        assert _bits(np.array([_kl_divergence(p, q)])) == \
            _bits(np.array([want]))

    def test_bit_equal_where_affinities_underflow(self):
        matrix = search_input(12, 4, 3, rounded=True, coincident=0)
        p = joint_affinities(conditional_affinities(matrix, 1.05)[0])
        assert np.count_nonzero(p == 0.0) > 12  # more than the diagonal
        y = np.random.default_rng(3).standard_normal((12, 2))
        b = _Buffers(12)
        total, clamp = _student_t(y, b)
        q = _q(b.num, total, True, b.w)
        want = gather_kl_divergence(p, q)
        assert _bits(np.array([_kl_divergence(p, q)])) == \
            _bits(np.array([want]))


class TestDescentOracle:
    """The descent step and the whole descent against the step that clamps
    Q every time, makes every pass over the whole buffers and takes each
    entry of W y and W 1 as one dot product of two vectors
    (``clamped_student_t``, ``clamped_gradient`` and ``clamped_tsne`` in
    reference.py): kernel, its sum, gradient, KL, points and final KL
    equal to the bit."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(4, 160), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-4, 1.0, 40.0, 1e6]),
           far=st.integers(0, 3),
           exaggeration=st.sampled_from([1.0, 4.5, 12.0]))
    def test_step_matches_the_clamped_step(self, m, seed, scale, far,
                                           exaggeration):
        y, p = _descent_input(m, seed, scale, min(far, m - 2))
        want_num, want_q = np.empty((m, m)), np.empty((m, m))
        want_total = clamped_student_t(y, want_num, want_q)
        want_kl = gather_kl_divergence(p, want_q)
        want_grad = clamped_gradient(p, y, want_num, want_total,
                                     exaggeration)

        b = _Buffers(m)
        total, clamp = _student_t(y, b)
        assert np.array_equal(_bits(b.num), _bits(want_num))
        assert total == want_total
        assert _kl_divergence(p, _q(b.num, total, clamp, b.w)) == want_kl
        grad = _gradient(p, y, b, total, clamp, exaggeration)
        assert np.array_equal(_bits(grad), _bits(want_grad))

    def test_far_points_are_clamped(self):
        y, p = _descent_input(40, 1, 1.0, 2)
        b = _Buffers(40)
        total, clamp = _student_t(y, b)
        assert clamp
        unclamped = b.num * (1.0 / total)
        assert (unclamped[~np.eye(40, dtype=bool)] < 1e-12).any()

    def test_spread_points_skip_the_clamp(self):
        y, _ = _descent_input(40, 1, 1e6, 0)
        _, clamp = _student_t(y, _Buffers(40))
        assert not clamp

    @pytest.mark.parametrize("eps", [1e-12, 1e-3])
    def test_descent_matches_the_clamped_descent(self, eps):
        """A run with Q's clamp skipped by the bound, and one with a floor
        high enough that it clamps entries at most steps."""
        matrix = make_matrix(
            np.random.default_rng(7).standard_normal((26, 6)))
        params = TsneParams(perplexity=4.0, iterations=160,
                            exaggeration_iters=60, momentum_switch_iter=60,
                            seed=5)
        clamps = []

        def spy(y, b):
            out = real(y, b)
            clamps.append(out[1])
            return out

        real = projection._student_t
        with mock.patch.object(projection, "_EPS", eps), \
                mock.patch.object(projection, "_student_t", spy):
            result = tsne(matrix, params)
        points, trace = clamped_tsne(matrix, params, eps)
        assert np.array_equal(_bits(result.points), _bits(points))
        assert result.kl_trace == trace[-1:]
        assert any(clamps) == (eps > 1e-12)


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

    @pytest.mark.parametrize("color_by", ["family", "word_order"])
    def test_labels_are_escaped(self, color_by):
        registry = Registry([
            LanguageRecord("aa", family="Khoe & Kwadi",
                           syntax={"word_order": "V2 & SOV"}),
            LanguageRecord("bb", family="<Isolate>",
                           syntax={"word_order": "<free>"})])
        svg, data = emit_plot(self.projection_for(registry), registry,
                              color_by)
        texts = [t.text for t in ET.fromstring(svg).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert set(data["categories"]) <= set(texts)

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
