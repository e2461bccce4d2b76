"""t-SNE projection of the similarity matrix to the unit square.

Builds the cosine similarity matrix of the demo centroids, runs exact t-SNE
on it (distances 1 - similarity, seeded, so the output is reproducible),
min-max normalizes to [0, 1]^2, and renders the labeled SVG scatter colored
by language family.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sprachbund import (StoreWriter, TsneParams, build_matrix,
                        bundled_registry, centroid_all, data, emit_plot,
                        ingest_shard, load_embeddings, project,
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
    matrix = build_matrix(centroid_all(sets))

# 8 points: perplexity must stay below (M - 1) / 3
params = TsneParams(perplexity=2.0, iterations=500, seed=3)
projection = project(matrix, params)
print("normalized 2-D coordinates:")
for code, (x, y) in zip(projection.languages, projection.points):
    print(f"  {code}: ({x:.3f}, {y:.3f})")

svg, plot_data = emit_plot(projection, registry, "family")
out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
(out / "projection.svg").write_text(svg, encoding="utf-8")
(out / "projection.json").write_text(
    json.dumps(plot_data, indent=2, sort_keys=True), encoding="utf-8")
print(f"\nlegend: {plot_data['categories']}")
print(f"wrote {out / 'projection.svg'} and {out / 'projection.json'}")

# the Romance block should land together; check pairwise distances
import numpy as np
idx = {c: i for i, c in enumerate(projection.languages)}
romance = ["ca", "es", "fr", "pt", "ro"]
inner = max(np.linalg.norm(projection.points[idx[a]] - projection.points[idx[b]])
            for a in romance for b in romance)
to_en = min(np.linalg.norm(projection.points[idx[a]] - projection.points[idx["en"]])
            for a in romance)
print(f"romance spread {inner:.3f} vs closest romance-to-en {to_en:.3f}")
