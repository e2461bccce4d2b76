"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and instance counts are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from reference import entropy_bits, naive_average_linkage
from sprachbund import cli, data
from sprachbund.cluster import agglomerate, cut, random_baseline
from sprachbund.corpus import CorpusShard, SamplingPolicy, sample
from sprachbund.embedding import (LanguageRepresentation, StoreWriter, centroid,
                                  write_embeddings)
from sprachbund.partition import select_pivot, sweep
from sprachbund.projection import (TsneParams, conditional_affinities,
                                   joint_affinities, tsne)
from sprachbund.registry import bundled_registry
from sprachbund.simmatrix import SimilarityMatrix, build_matrix

CODES = [a + b for a in "abcdefghijkl" for b in "abcdefghijkl"]


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_similarity(m, rng):
    values = rng.uniform(-0.5, 1.0, size=(m, m))
    upper = np.triu(values, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(tuple(CODES[:m]), values)


def test_lexical_correlation_via_analyze(tmp_path):
    """Pearson r = 0.83 +/- 0.03 over the 15 shared pairs, in under 1 s."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "matrix": str(data.path("embedding_similarity.json")),
        "out": str(tmp_path / "ws"),
    }), encoding="utf-8")
    start = time.perf_counter()
    rc = cli.main(["simmat", "--config", str(cfg)]) or \
        cli.main(["analyze", "--config", str(cfg)])
    elapsed = time.perf_counter() - start
    doc = json.loads((tmp_path / "ws" / "analysis.json").read_text())
    result = doc["report"]["pearson_lexical"]
    ok = (rc == 0 and result["pair_count"] == 15
          and abs(result["r"] - 0.83) <= 0.03 and elapsed < 1.0)
    report("lexical-correlation", ok,
           f"r={result['r']:.4f} (target 0.83 +/- 0.03), "
           f"pairs={result['pair_count']}, {elapsed:.2f}s")


def test_clustering_matches_naive_oracle():
    """100 random instances (M <= 12): identical merge sequence and K-cuts."""
    start = time.perf_counter()
    instances = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        matrix = random_similarity(m, rng)
        dendrogram = agglomerate(matrix)
        merges, snapshots = naive_average_linkage(1.0 - matrix.values)
        got = [(mg.left, mg.right, mg.node_id) for mg in dendrogram.merges]
        expected = [(a, b, nid) for a, b, _, nid in merges]
        assert got == expected, f"merge sequence diverged at seed {seed}"
        index = {code: i for i, code in enumerate(matrix.languages)}
        for k in range(1, m + 1):
            ours = {frozenset(index[c] for c in cluster)
                    for cluster in cut(dendrogram, k).members}
            assert ours == snapshots[k], f"k={k} cut diverged at seed {seed}"
        instances += 1
    elapsed = time.perf_counter() - start
    report("clustering-oracle-equivalence", instances == 100 and elapsed < 10.0,
           f"{instances} instances exact, {elapsed:.2f}s (limit 10s)")


def test_partition_soundness_on_108_languages():
    """K in {1,2,4,8} over the full registry: disjoint, exhaustive, pivots
    are members, cuts nest."""
    codes = bundled_registry().codes
    rng = np.random.default_rng(2024)
    reps = [LanguageRepresentation(c, rng.standard_normal(24).astype(np.float32), 1)
            for c in codes]
    matrix = build_matrix(reps)
    shard_index = {c: [f"{c}.txt"] for c in codes}
    manifests = sweep(agglomerate(matrix), matrix, (1, 2, 4, 8), shard_index)
    violations = []
    for manifest in manifests:
        members = [set(c.members) for c in manifest.clusters]
        if sum(len(s) for s in members) != 108:
            violations.append(f"k={manifest.k}: clusters overlap or drop")
        if set().union(*members) != set(codes):
            violations.append(f"k={manifest.k}: not exhaustive")
        for cluster in manifest.clusters:
            if cluster.pivot not in cluster.members:
                violations.append(f"k={manifest.k}: pivot outside cluster")
    for coarse, fine in zip(manifests, manifests[1:]):
        coarse_sets = [set(c.members) for c in coarse.clusters]
        for cluster in fine.clusters:
            if not any(set(cluster.members) <= big for big in coarse_sets):
                violations.append(
                    f"k={fine.k} not nested in k={coarse.k}")
    report("partition-soundness", not violations,
           f"K in (1,2,4,8) over 108 languages, "
           f"{len(violations)} violations" + (f": {violations[:3]}" if violations else ""))


def test_pivot_matches_brute_force():
    """1000 random matrices (M <= 10): argmax of row sums, lexicographic ties."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        matrix = random_similarity(m, rng)
        size = int(rng.integers(1, m + 1))
        members = sorted(
            list(np.random.default_rng(rng.integers(1 << 30))
                 .choice(matrix.languages, size=size, replace=False)))
        expected = max(
            members,
            key=lambda c: (sum(matrix.get(c, o) for o in members), ))
        # max() keeps the first (smallest) code on exact ties
        assert select_pivot(members, matrix) == expected
    # constructed exact tie resolves lexicographically
    values = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    tie_matrix = SimilarityMatrix(("bb", "aa", "cc"), values)
    assert select_pivot(["aa", "bb"], tie_matrix) == "aa"
    elapsed = time.perf_counter() - start
    report("pivot-correctness", elapsed < 5.0,
           f"1000 instances exact + tie case, {elapsed:.2f}s (limit 5s)")


def test_centroid_against_float64_oracle(tmp_path):
    """1000 random sets (<= 1e4 vectors, dim 768): within 1e-6 of the
    64-bit accumulate-then-divide oracle; linearity within 1e-6. The sets
    are runs of rows of one store."""
    rng = np.random.default_rng(11)
    pool = rng.standard_normal((10_000, 768)).astype(np.float32)
    store = tmp_path / "pool.npy"
    with StoreWriter(store) as writer:
        writer.write(0, pool)
        write_embeddings([writer.stored("xx", 768, range(10_000), 0)], store,
                         writer=writer)
    max_err = 0.0
    max_lin_err = 0.0
    sizes = [1, 10_000] + [
        int(min(10_000, round(math.exp(u * math.log(10_000)))))
        for u in rng.random(998)
    ]
    for trial, size in enumerate(sizes):
        start = int(rng.integers(0, 10_000 - size + 1))
        matrix = pool[start:start + size]
        emb = writer.stored("xx", 768, range(size), start)
        ours = centroid(emb).vector.astype(np.float64)
        oracle = matrix.astype(np.float64).sum(axis=0) / size
        max_err = max(max_err, float(np.max(np.abs(ours - oracle))))
        if trial % 10 == 0 and size >= 2:
            half = size // 2
            ca = centroid(writer.stored(
                "xx", 768, range(half), start)).vector
            cb = centroid(writer.stored(
                "xx", 768, range(size - half), start + half)).vector
            combined = (half * ca.astype(np.float64)
                        + (size - half) * cb.astype(np.float64)) / size
            max_lin_err = max(max_lin_err,
                              float(np.max(np.abs(ours - combined))))
    ok = max_err < 1e-6 and max_lin_err < 1e-6
    report("centroid-numerics", ok,
           f"1000 sets, max |centroid - oracle| = {max_err:.2e}, "
           f"max linearity error = {max_lin_err:.2e} (limit 1e-6)")


def test_tsne_calibration():
    """50-point matrix: every row's entropy = log2(perplexity) +/- 1e-4;
    P symmetric, non-negative, sums to 1 +/- 1e-9; bitwise-identical runs."""
    rng = np.random.default_rng(13)
    vectors = rng.standard_normal((50, 24))
    reps = [LanguageRepresentation(CODES[i], vectors[i].astype(np.float32), 1)
            for i in range(50)]
    matrix = build_matrix(reps)
    perplexity = 10.0
    cond, _ = conditional_affinities(matrix, perplexity)
    worst = max(abs(entropy_bits(cond[i]) - math.log2(perplexity))
                for i in range(50))
    joint = joint_affinities(cond)
    sum_err = abs(float(joint.sum()) - 1.0)
    symmetric = bool(np.array_equal(joint, joint.T))
    nonneg = bool(np.all(joint >= 0.0))

    params = TsneParams(perplexity=perplexity, seed=21)
    bitwise = bool(np.array_equal(tsne(matrix, params).points,
                                  tsne(matrix, params).points))
    ok = worst <= 1e-4 and sum_err <= 1e-9 and symmetric and nonneg and bitwise
    report("tsne-calibration", ok,
           f"max entropy error {worst:.2e} bits (limit 1e-4), "
           f"|sum P - 1| = {sum_err:.1e}, symmetric={symmetric}, "
           f"bitwise-identical={bitwise}")


def test_random_baseline_sizes():
    """Sizes (36, 22, 30, 20) over the 108 codes, deterministic per seed."""
    codes = bundled_registry().codes
    sizes = (36, 22, 30, 20)
    a = random_baseline(codes, sizes, seed=3)
    b = random_baseline(codes, sizes, seed=3)
    exact = [len(c) for c in a.members] == list(sizes)
    exhaustive = a.languages == frozenset(codes)
    report("random-baseline-fidelity",
           exact and exhaustive and a == b,
           f"sizes={[len(c) for c in a.members]}, deterministic={a == b}")


def test_reservoir_inclusion_frequency():
    """Per-sentence inclusion frequency = cap/n +/- 0.01 over 1e4 seeds;
    under-cap input passes through unchanged."""
    n, cap, trials = 1000, 100, 10_000
    shard = CorpusShard(
        language="xx", sentences=tuple((i, f"s{i}") for i in range(n)))
    counts = np.zeros(n, dtype=np.int64)
    for seed in range(trials):
        out = sample(shard, SamplingPolicy(cap=cap, seed=seed))
        for i, _ in out.sentences:
            counts[i] += 1
    freq = counts / trials
    max_dev = float(np.max(np.abs(freq - cap / n)))

    small = CorpusShard(
        language="xx", sentences=tuple((i, f"s{i}") for i in range(100)))
    passthrough = sample(small, SamplingPolicy(cap=200, seed=0)) == small
    ok = max_dev <= 0.01 and passthrough
    report("sampling-inclusion-frequency", ok,
           f"n={n} cap={cap} seeds={trials}: max |freq - {cap / n}| = "
           f"{max_dev:.4f} (limit 0.01), under-cap passthrough={passthrough}")
