"""Agglomerative clustering, pivot languages, and partition manifests.

Builds the demo similarity matrix, walks the average-linkage merge history,
cuts it at several K, and turns the K=2 assignment into a corpus-partition
manifest. A random baseline with matched cluster sizes shows how much
structure the similarity-driven clusters carry (compare the silhouettes).
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sprachbund import (StoreWriter, agglomerate, build_manifest,
                        build_matrix, bundled_registry, centroid_all, cut,
                        data, ingest_shard, load_embeddings, random_baseline,
                        select_pivot, silhouette, sweep, write_embeddings)

registry = bundled_registry()
shards = [ingest_shard(data.path(f"demo/corpus/{code}.txt"), code, registry)
          for code in ("ca", "en", "fr", "de", "pt", "ro", "ru", "es")]
with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "embeddings.npy"
    with StoreWriter(store) as writer:
        sets = load_embeddings(data.path("demo/embeddings.jsonl"), shards,
                               writer=writer)
        write_embeddings(sets, store, writer=writer)
    reps = centroid_all(sets)
matrix = build_matrix(reps)

dendrogram = agglomerate(matrix)
print("merge history (average linkage on 1 - cosine):")
names = {i: code for i, code in enumerate(matrix.languages)}
for merge in dendrogram.merges:
    left = names.pop(merge.left)
    right = names.pop(merge.right)
    names[merge.node_id] = f"({left} {right})"
    print(f"  d={merge.distance:.3f}  {left} + {right}")

for k in (2, 3, 4):
    assignment = cut(dendrogram, k)
    clusters = ["{" + " ".join(c) + "}" for c in assignment.members]
    print(f"k={k}: " + "  ".join(clusters)
          + f"   silhouette={silhouette(matrix, assignment):.3f}")

assignment = cut(dendrogram, 2)
sizes = [len(c) for c in assignment.members]
baseline = random_baseline(matrix.languages, sizes, seed=1)
print(f"\nrandom baseline with matched sizes {sizes}: "
      f"silhouette={silhouette(matrix, baseline):.3f} "
      f"(vs {silhouette(matrix, assignment):.3f} for the real clustering)")

for members in assignment.members:
    print(f"pivot of {{{' '.join(members)}}} -> "
          f"{select_pivot(members, matrix)}")

shard_index = {code: [f"{code}.txt"] for code in matrix.languages}
manifest = build_manifest(assignment, matrix, shard_index,
                          provenance={"seed": 1, "embedding_source":
                                      "file:demo/embeddings.jsonl"})
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
path = out / "manifest_k2.json"
path.write_text(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
print(f"\nwrote {path}")

print("\nsweep K in (1, 2, 4) from one dendrogram (nested refinements):")
for m in sweep(dendrogram, matrix, (1, 2, 4), shard_index):
    print(f"  k={m.k}: " + "  ".join("{" + " ".join(c.members) + "}"
                                     for c in m.clusters))
