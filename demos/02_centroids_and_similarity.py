"""From sentence embeddings to a language similarity matrix.

Reads the demo embeddings (8 languages x 12 sentences, dim 8) of every line
of the demo corpus into a store, averages each language into its centroid
representation, and builds the cosine similarity matrix. The most and least
similar pairs fall where you'd expect: the Romance languages cluster
tightly, English sits far from all of them.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sprachbund import (StoreWriter, build_matrix, bundled_registry,
                        centroid_all, data, ingest_shard, load_embeddings,
                        write_embeddings)

registry = bundled_registry()
shards = [ingest_shard(data.path(f"demo/corpus/{code}.txt"), code, registry)
          for code in ("ca", "en", "fr", "de", "pt", "ro", "ru", "es")]
with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "embeddings.npy"
    with StoreWriter(store) as writer:
        sets = load_embeddings(data.path("demo/embeddings.jsonl"), shards,
                               writer=writer)
        write_embeddings(sets, store, writer=writer)
    print(f"loaded {len(sets)} embedding sets, dim {sets[0].dim}, "
          f"{len(sets[0])} sentences each")
    reps = centroid_all(sets)
for rep in reps[:3]:
    head = ", ".join(f"{x:+.3f}" for x in rep.vector[:4])
    print(f"  {rep.language}: centroid[{head}, ...] "
          f"from {rep.sample_count} sentences")

matrix = build_matrix(reps)
print(f"\nsimilarity matrix over {list(matrix.languages)}:")
header = "     " + " ".join(f"{c:>6s}" for c in matrix.languages)
print(header)
for code, row in zip(matrix.languages, matrix.values):
    print(f"  {code:3s}" + " ".join(f"{v:6.2f}" for v in row))

pairs = [(matrix.languages[i], matrix.languages[j], matrix.values[i, j])
         for i in range(len(matrix))
         for j in range(i + 1, len(matrix))]
pairs.sort(key=lambda p: -p[2])
print("\nclosest pairs: ", ", ".join(f"{a}-{b} {s:.2f}" for a, b, s in pairs[:3]))
print("farthest pairs:", ", ".join(f"{a}-{b} {s:.2f}" for a, b, s in pairs[-3:]))
