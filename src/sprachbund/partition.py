"""Pivot selection and corpus-partition manifests.

A manifest tells an external pretraining job exactly which corpus shards
belong to which language cluster, which member serves as the pivot language,
and enough provenance (seed, linkage, embedding source, tool version) to
attribute the run to one specific clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .cluster import Dendrogram, SprachbundAssignment, cut
from .errors import ValidationError
from .simmatrix import SimilarityMatrix


def select_pivot(cluster: Iterable[str], matrix: SimilarityMatrix) -> str:
    """The member with the largest summed similarity to all cluster members.

    The sum runs over the whole cluster including the candidate itself (a
    constant +1 that never changes the argmax). Ties go to the
    lexicographically smallest code.
    """
    members = sorted(cluster)
    if not members:
        raise ValidationError("cannot select a pivot from an empty cluster")
    rows = [matrix.index(code) for code in members]
    best_code: str | None = None
    best_sum = float("-inf")
    for code, i in zip(members, rows):
        total = float(matrix.values[i, rows].sum())
        if total > best_sum:
            best_code, best_sum = code, total
    return best_code


@dataclass(frozen=True)
class ManifestCluster:
    members: tuple[str, ...]
    pivot: str
    shards: tuple[str, ...]

    def __post_init__(self):
        if self.pivot not in self.members:
            raise ValidationError(
                f"pivot {self.pivot!r} is not a member of its cluster")


@dataclass(frozen=True)
class PartitionManifest:
    k: int
    clusters: tuple[ManifestCluster, ...]
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.k != len(self.clusters):
            raise ValidationError(
                f"k={self.k} but {len(self.clusters)} clusters given")
        seen: set[str] = set()
        for cluster in self.clusters:
            for code in cluster.members:
                if code in seen:
                    raise ValidationError(
                        f"language {code!r} appears in more than one cluster")
                seen.add(code)
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def languages(self) -> frozenset[str]:
        return frozenset(c for cl in self.clusters for c in cl.members)

    def to_json(self) -> dict:
        return {
            "v": 1,
            "k": self.k,
            "clusters": [
                {"members": list(c.members), "pivot": c.pivot,
                 "shards": list(c.shards)}
                for c in self.clusters
            ],
            "provenance": dict(self.provenance),
        }



def build_manifest(assignment: SprachbundAssignment,
                   matrix: SimilarityMatrix,
                   shard_index: Mapping[str, Sequence[str]], *,
                   allow_missing: Iterable[str] = (),
                   provenance: Mapping[str, object] | None = None
                   ) -> PartitionManifest:
    """Attach pivots and shard paths to an assignment.

    ``shard_index`` maps language codes to corpus file paths (relative to the
    corpus root). Every assigned language must have shards unless it is
    allow-listed; shards for unassigned languages are an error.
    """
    assigned = assignment.languages
    allow = set(allow_missing)
    missing = sorted(code for code in assigned
                     if code not in shard_index and code not in allow)
    if missing:
        raise ValidationError(
            f"no corpus shards for assigned language(s): {', '.join(missing)}")
    outside = sorted(set(shard_index) - assigned)
    if outside:
        raise ValidationError(
            f"shard index contains language(s) outside the assignment: "
            f"{', '.join(outside)}")
    prov = {
        "tool_version": _tool_version(),
        "linkage": "average",
        "distance": "1 - cosine",
    }
    if provenance:
        prov.update(provenance)
    clusters = []
    for members in assignment.members:
        shards: list[str] = []
        for code in members:
            shards.extend(sorted(str(p) for p in shard_index.get(code, ())))
        clusters.append(ManifestCluster(
            members=members,
            pivot=select_pivot(members, matrix),
            shards=tuple(shards),
        ))
    return PartitionManifest(k=assignment.k, clusters=tuple(clusters),
                             provenance=prov)


def sweep(dendrogram: Dendrogram, matrix: SimilarityMatrix, ks: Sequence[int],
          shard_index: Mapping[str, Sequence[str]], *,
          allow_missing: Iterable[str] = (),
          provenance: Mapping[str, object] | None = None
          ) -> list[PartitionManifest]:
    """One manifest per requested K, each a cut of ``dendrogram``.

    Because every cut comes from the same merge history, the manifests are
    nested refinements of one another.
    """
    if not ks:
        raise ValidationError("sweep needs at least one K")
    return [
        build_manifest(cut(dendrogram, k), matrix, shard_index,
                       allow_missing=allow_missing, provenance=provenance)
        for k in ks
    ]


def _tool_version() -> str:
    from . import __version__
    return __version__
