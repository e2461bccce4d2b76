"""Agglomerative average-linkage clustering of languages under cosine distance.

Languages start as singleton clusters over the distance d(i, j) = 1 - sim.
At every step the two clusters with the smallest average pairwise distance
merge; exact ties go to the pair with the smallest (min node id, max node id).
Leaves are numbered 0..M-1 in matrix order and merged nodes M..2M-2, so the
whole dendrogram is reproducible on any platform.

Inter-cluster averages are maintained as exact pairwise-distance sums divided
by member-count products, which keeps the incremental update mathematically
identical to recomputing the mean from scratch. The sums live in an M x M
float64 array indexed by slot; a merge adds one row into the other and gives
that slot the new node id.

Each live cluster caches its nearest neighbour (Müllner's "generic"
algorithm, arXiv:1109.2378), so a step reads M cached minima instead of
scanning all pairs. After a merge only rows whose neighbour was one of the
merged clusters are rescanned; every other row compares its pair with the
new cluster against its cached minimum. A strict comparison suffices: the
new cluster has the largest id, so it loses every exact tie. The result is
the merge order, node ids and float distances of a full scan, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .registry import check_document, naming
from .simmatrix import SimilarityMatrix


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    distance: float
    node_id: int


@dataclass(frozen=True)
class Dendrogram:
    """Full merge history over the matrix's languages (leaves in matrix order)."""

    document = {"languages": list[str], "merges": list[
        {"left": int, "right": int, "distance": float, "id": int}]}

    languages: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        m = len(self.languages)
        if len(self.merges) != m - 1:
            raise ValidationError(
                f"{m} leaves require {m - 1} merges, got {len(self.merges)}")
        live = set(range(m))  # leaves and merged nodes not yet merged again
        for i, mg in enumerate(self.merges):
            if mg.node_id != m + i:
                raise ValidationError("merge node ids must run M..2M-2 in order")
            if mg.left == mg.right or not {mg.left, mg.right} <= live:
                raise ValidationError(
                    f"merge {mg.node_id} must join two distinct unmerged "
                    f"nodes, got {mg.left} and {mg.right}")
            if not 0 <= mg.distance < float("inf"):  # NaN fails it too
                raise ValidationError(
                    "merge distances must be finite and non-negative")
            live -= {mg.left, mg.right}
            live.add(mg.node_id)

    def to_json(self) -> dict:
        return {
            "languages": list(self.languages),
            "merges": [
                {"left": m.left, "right": m.right,
                 "distance": m.distance, "id": m.node_id}
                for m in self.merges
            ],
        }

    @classmethod
    def from_json(cls, doc: dict,
                  source: str | Path = "dendrogram JSON") -> "Dendrogram":
        """Parse dendrogram.json, declared by :attr:`document`; ``source``
        names the document in error messages."""
        check_document(doc, cls.document, source)
        with naming(source):
            return cls(tuple(doc["languages"]), tuple(
                Merge(m["left"], m["right"], float(m["distance"]), m["id"])
                for m in doc["merges"]))


@dataclass(frozen=True)
class SprachbundAssignment:
    """A k-way partition of the language set into disjoint clusters."""

    document = {"k": int, "clusters": list[{"members": list[str]}]}

    k: int
    members: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.k != len(self.members):
            raise ValidationError(
                f"k={self.k} but {len(self.members)} clusters given")
        seen: set[str] = set()
        for cluster in self.members:
            if not cluster:
                raise ValidationError("clusters must be non-empty")
            for code in cluster:
                if code in seen:
                    raise ValidationError(
                        f"language {code!r} appears in more than one cluster")
                seen.add(code)

    @property
    def languages(self) -> frozenset[str]:
        return frozenset(c for cluster in self.members for c in cluster)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "clusters": [{"members": list(c)} for c in self.members],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SprachbundAssignment":
        """Parse ``{"k": K, "clusters": [{"members": [...]}]}``, checked
        against :attr:`document`."""
        check_document(doc, cls.document)
        return cls(doc["k"], tuple(tuple(c["members"])
                                   for c in doc["clusters"]))


def agglomerate(matrix: SimilarityMatrix) -> Dendrogram:
    """Average-linkage agglomeration on d = 1 - similarity."""
    m = len(matrix)
    if m < 2:
        raise ValidationError("clustering needs at least 2 languages")
    # slot-indexed state: sums[s, t] holds the total pairwise distance between
    # the members of the clusters in slots s and t. A merge folds one slot
    # into the other, which takes the new node id.
    sums = 1.0 - matrix.values
    sizes = np.ones(m, dtype=np.int64)
    ids = np.arange(m)
    alive = np.ones(m, dtype=bool)
    # cached nearest neighbour per slot: its average distance and its slot,
    # ties going to the smallest partner id
    row_min = np.empty(m)
    partner = np.empty(m, dtype=np.int64)

    def nearest(s: int) -> None:
        avg = sums[s] / (sizes[s] * sizes)
        avg[~alive] = np.inf
        avg[s] = np.inf
        best = avg.min()
        ties = np.flatnonzero(avg == best)
        row_min[s] = best
        partner[s] = ties[np.argmin(ids[ties])]

    for s in range(m):
        nearest(s)

    merges: list[Merge] = []
    for node_id in range(m, 2 * m - 1):
        best = row_min.min()
        lo, hi, s = min(
            (min(ids[r], ids[partner[r]]), max(ids[r], ids[partner[r]]), r)
            for r in np.flatnonzero(row_min == best))
        t = partner[s]
        merges.append(Merge(int(lo), int(hi), float(best), node_id))
        sums[s] += sums[t]
        sums[:, s] = sums[s]
        sizes[s] += sizes[t]
        ids[s] = node_id
        alive[t] = False
        row_min[t] = np.inf
        # rows that pointed at either merged cluster (s itself among them)
        # rescan; every other row only compares its pair with the new cluster,
        # which loses exact ties because its id is the largest
        stale = np.flatnonzero(alive & ((partner == s) | (partner == t)))
        avg = sums[s] / (sizes[s] * sizes)
        closer = alive & (avg < row_min)
        row_min[closer] = avg[closer]
        partner[closer] = s
        for r in stale:
            nearest(r)
    return Dendrogram(matrix.languages, tuple(merges))


def cut(dendrogram: Dendrogram, k: int) -> SprachbundAssignment:
    """Undo the last k-1 merges; the k remaining subtrees are the clusters.

    Clusters are sorted by their smallest member code, members sorted within.
    """
    m = len(dendrogram.languages)
    if not 1 <= k <= m:
        raise ValidationError(f"k must be in [1, {m}], got {k}")
    groups: dict[int, list[str]] = {i: [dendrogram.languages[i]]
                                    for i in range(m)}
    for merge in dendrogram.merges[:m - k]:
        groups[merge.node_id] = groups.pop(merge.left) + groups.pop(merge.right)
    clusters = sorted((tuple(sorted(g)) for g in groups.values()),
                      key=lambda c: c[0])
    return SprachbundAssignment(k=k, members=tuple(clusters))


def random_baseline(languages: Sequence[str], sizes: Sequence[int],
                    seed: int) -> SprachbundAssignment:
    """Random clusters with prescribed sizes: seeded shuffle, then split.

    Cluster order follows ``sizes``; members are sorted within each cluster.
    """
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValidationError("all cluster sizes must be >= 1")
    if sum(sizes) != len(languages):
        raise ValidationError(
            f"sizes sum to {sum(sizes)} but there are {len(languages)} languages")
    pool = list(languages)
    rng = random.Random(seed)
    rng.shuffle(pool)
    clusters = []
    start = 0
    for size in sizes:
        clusters.append(tuple(sorted(pool[start:start + size])))
        start += size
    return SprachbundAssignment(k=len(sizes), members=tuple(clusters))


def silhouette(matrix: SimilarityMatrix,
               assignment: SprachbundAssignment) -> float:
    """Mean silhouette score of the assignment under d = 1 - sim.

    Singleton clusters contribute 0; so do points with a = b = 0.
    """
    if assignment.k < 2:
        raise ValidationError("silhouette needs at least 2 clusters")
    dist = 1.0 - matrix.values
    cluster_idx = [
        np.asarray([matrix.index(code) for code in cluster])
        for cluster in assignment.members
    ]
    scores = []
    for ci, own in enumerate(cluster_idx):
        for i in own:
            if len(own) == 1:
                scores.append(0.0)
                continue
            a = float(dist[i, own].sum() / (len(own) - 1))
            b = min(float(dist[i, other].mean())
                    for cj, other in enumerate(cluster_idx) if cj != ci)
            denom = max(a, b)
            scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))
