"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes from first principles (explicit member lists,
fresh means from the original matrix, direct formula evaluation) and shares
no code with the library paths it checks.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

from sprachbund.corpus import CorpusShard, SamplingPolicy
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
