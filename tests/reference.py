"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes from first principles (explicit member lists,
fresh means from the original matrix, direct formula evaluation) and shares
no code with the library paths it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from sprachbund.corpus import CorpusShard, SamplingPolicy
from sprachbund.embedding import LanguageRepresentation
from sprachbund.errors import ValidationError
from sprachbund.registry import Registry


def naive_average_linkage(dist: np.ndarray):
    """O(n^3) agglomeration that recomputes every inter-cluster mean from
    scratch each step. Returns (merge list, partition snapshots by k).

    Merge entries are (left id, right id, distance, new id); ties break on
    the smallest (min id, max id) pair. Snapshots map k -> set of frozensets
    of leaf indices.
    """
    m = len(dist)
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    merges = []
    snapshots = {m: {frozenset(v) for v in members.values()}}
    next_id = m
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a >= b:
                    continue
                total = 0.0
                for x in members[a]:
                    for y in members[b]:
                        total += dist[x][y]
                avg = total / (len(members[a]) * len(members[b]))
                key = (avg, a, b)
                if best is None or key < best:
                    best = key
        avg, a, b = best
        merges.append((a, b, avg, next_id))
        members[next_id] = members.pop(a) + members.pop(b)
        snapshots[len(members)] = {frozenset(v) for v in members.values()}
        next_id += 1
    return merges, snapshots


def incremental_average_linkage(dist: np.ndarray):
    """Dict-based incremental average linkage: one dict entry per cluster
    pair holding the exact pairwise-distance sum, a full scan of every active
    pair per step. O(n^3), but with the same float64 sums and divisions as
    the library, so its merges must agree to the bit.

    Returns the merge list [(left id, right id, distance, new id)]; ties
    break on the smallest (min id, max id) pair.
    """
    m = len(dist)
    sums: dict[tuple[int, int], float] = {}
    sizes: dict[int, int] = {i: 1 for i in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            sums[(i, j)] = float(dist[i, j])

    active = list(range(m))
    merges = []
    next_id = m
    while len(active) > 1:
        best_key = None
        for ai in range(len(active)):
            a = active[ai]
            for bi in range(ai + 1, len(active)):
                b = active[bi]
                avg = sums[(a, b)] / (sizes[a] * sizes[b])
                key = (avg, a, b)
                if best_key is None or key < best_key:
                    best_key = key
        avg, a, b = best_key
        merges.append((a, b, avg, next_id))
        sizes[next_id] = sizes[a] + sizes[b]
        for o in active:
            if o == a or o == b:
                continue
            sums[(min(o, next_id), max(o, next_id))] = (
                sums[(min(a, o), max(a, o))] + sums[(min(b, o), max(b, o))])
        active.remove(a)
        active.remove(b)
        active.append(next_id)
        next_id += 1
    return merges


def direct_pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = sum((x - mx) ** 2 for x in xs)
    dy = sum((y - my) ** 2 for y in ys)
    return num / math.sqrt(dx * dy)


def direct_cosine(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return num / (na * nb)


def direct_silhouette(dist: np.ndarray, clusters: list[list[int]]) -> float:
    scores = []
    for ci, own in enumerate(clusters):
        for i in own:
            if len(own) == 1:
                scores.append(0.0)
                continue
            a = sum(dist[i][j] for j in own if j != i) / (len(own) - 1)
            b = min(
                sum(dist[i][j] for j in other) / len(other)
                for cj, other in enumerate(clusters) if cj != ci
            )
            top = max(a, b)
            scores.append(0.0 if top == 0.0 else (b - a) / top)
    return sum(scores) / len(scores)


def entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def unit_vectors_with_cosines(sim: np.ndarray) -> np.ndarray:
    """Rows whose pairwise cosines equal the given PSD unit-diagonal matrix."""
    w, v = np.linalg.eigh(sim)
    x = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _loop_entropy_and_row(dist_row: np.ndarray,
                          beta: float) -> tuple[float, np.ndarray]:
    """Shannon entropy (bits) and the conditional distribution for one bandwidth."""
    logits = -dist_row * beta
    logits -= logits.max()
    p = np.exp(logits)
    total = p.sum()
    p /= total
    nz = p > 0
    entropy_nats = -float(np.sum(p[nz] * np.log(p[nz])))
    return entropy_nats / math.log(2.0), p


def loop_conditional_affinities(distances: np.ndarray, perplexity: float, *,
                                tol: float = 1e-6,
                                max_steps: int = 200) -> np.ndarray:
    """One row at a time, the Gaussian bandwidth bisection that
    ``projection.conditional_affinities`` runs on all rows at once; its
    result must agree to the bit."""
    d = np.asarray(distances, dtype=np.float64)
    m = d.shape[0]
    target_bits = math.log2(perplexity)
    p = np.zeros((m, m), dtype=np.float64)
    others = np.arange(m)
    for i in range(m):
        row = d[i, others != i]
        beta, beta_lo, beta_hi = 1.0, 0.0, math.inf
        entropy, cond = _loop_entropy_and_row(row, beta)
        for _ in range(max_steps):
            diff = entropy - target_bits
            if abs(diff) <= tol:
                break
            if diff > 0:  # too flat: sharpen
                beta_lo = beta
                beta = beta * 2.0 if math.isinf(beta_hi) else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = (beta + beta_lo) / 2.0
            entropy, cond = _loop_entropy_and_row(row, beta)
        p[i, others != i] = cond
    return p


def diag_gradient(p: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The t-SNE gradient of KL(P || Q) at ``y`` written out as
    4 (diag(W 1) - W) y with W = (P - Q) * num, and the clamped Q.

    Every M x M intermediate is built afresh: no shared buffers, no GEMM
    for the squared distances.
    """
    sq = np.sum(np.square(y), axis=1)
    num = 1.0 / (1.0 + np.add(np.add(-2.0 * (y @ y.T), sq).T, sq))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), 1e-12)
    grad_coeff = (p - q) * num
    grad = 4.0 * (np.diag(grad_coeff.sum(axis=1)) - grad_coeff) @ y
    return grad, q


def diag_tsne(matrix, params) -> tuple[np.ndarray, float]:
    """Exact t-SNE built on :func:`loop_conditional_affinities` and
    :func:`diag_gradient`, with the library's schedule: early exaggeration,
    momentum switch, per-coordinate gains. Returns (points, final KL)."""
    m = len(matrix)
    cond = loop_conditional_affinities(1.0 - matrix.values, params.perplexity)
    p_true = (cond + cond.T) / (2.0 * m)
    rng = np.random.default_rng(params.seed)
    y = rng.standard_normal((m, 2)) * params.init_scale
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    for it in range(params.iterations):
        exaggerating = it < params.exaggeration_iters
        p = p_true * params.early_exaggeration if exaggerating else p_true
        grad, q = diag_gradient(p, y)
        momentum = (params.initial_momentum
                    if it < params.momentum_switch_iter
                    else params.final_momentum)
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, params.min_gain, out=gains)
        velocity = momentum * velocity - params.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    mask = p_true > 0
    kl = float(np.sum(p_true[mask] * np.log(p_true[mask] / q[mask])))
    return y, kl


def loop_ingest_shard(path: str | Path, language: str,
                      registry: Registry) -> CorpusShard:
    """Corpus ingest as one Python loop over the lines, keeping a line when
    ``line.strip()`` is non-empty; ids run 0, 1, 2, ... over the kept lines.
    """
    if language not in registry:
        raise ValidationError(f"language {language!r} is not in the registry")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    sentences = []
    for line in text.splitlines():
        if line.strip():
            sentences.append((len(sentences), line))
    return CorpusShard(language=language, sentences=tuple(sentences))


def _child_seed(seed: int, language: str) -> int:
    digest = hashlib.sha256(f"{seed}:{language}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def randrange_sample(shard: CorpusShard, policy: SamplingPolicy) -> CorpusShard:
    """Algorithm R drawing each index with ``random.Random.randrange``, from
    the same per-(seed, language) SHA-256 child seed."""
    n = len(shard)
    cap = policy.cap
    if n <= cap:
        return shard
    rng = random.Random(_child_seed(policy.seed, shard.language))
    chosen = list(range(cap))
    for i in range(cap, n):
        j = rng.randrange(i + 1)
        if j < cap:
            chosen[j] = i
    chosen.sort()
    return CorpusShard(language=shard.language,
                       sentences=tuple(shard.sentences[i] for i in chosen))


def json_write_representations(reps, path: str | Path) -> None:
    """Centroids as indented JSON text, one list of Python floats per
    language: ``{"v": 1, "representations": [{"lang", "vec",
    "sample_count"}]}``."""
    doc = {"v": 1, "representations": [
        {"lang": r.language, "vec": [float(x) for x in r.vector],
         "sample_count": r.sample_count} for r in reps]}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def json_load_representations(path: str | Path) -> list[LanguageRepresentation]:
    """Parse :func:`json_write_representations`'s text back to float32."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [LanguageRepresentation(language=r["lang"],
                                   vector=np.asarray(r["vec"], dtype=np.float32),
                                   sample_count=int(r["sample_count"]))
            for r in doc["representations"]]
