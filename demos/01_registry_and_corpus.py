"""Registry, lexical table, and capped corpus sampling.

The toolkit ships a 108-language registry (22 families) and an 8-language
lexical similarity table; both load with zero downloads. This script walks
through lookups, the missing-data convention, and what capped sampling
does to an over-cap shard: a uniform subset of ``cap`` sentences, drawn
with Floyd's algorithm and kept in corpus order.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sprachbund import (SamplingPolicy, bundled_lexical_table,
                        bundled_registry, corpus_stats, data, ingest_shard,
                        sample, validate_feature_labels)

registry = bundled_registry()
print(f"registry holds {len(registry)} languages "
      f"across {len(registry.families)} families")
for code in ("sw", "ja", "wuu", "ckb"):
    print(f"  {code:4s} -> {registry.get(code).family}")

table = bundled_lexical_table()
print(f"\nlexical table: {len(table)} pairs with data")
print(f"  (ca, es) = {table.get('ca', 'es')}   (order-insensitive: "
      f"(es, ca) = {table.get('es', 'ca')})")
print(f"  (en, es) = {table.get('en', 'es')}   <- no datum, not zero")

report = validate_feature_labels(registry)
missing_wo = len(report.get("word_order", []))
print(f"\nsyntax labels are user-supplied; bundled registry has none: "
      f"{missing_wo}/108 lack word_order")

# ingest one of the demo shards and sample it down
shard = ingest_shard(data.path("demo/corpus/fr.txt"), "fr", registry)
print(f"\ningested fr shard: {len(shard)} sentences, ids "
      f"{shard.sentences[0][0]}..{shard.sentences[-1][0]}")

policy = SamplingPolicy(cap=5, seed=42)
sampled = sample(shard, policy)
print(f"sampled with cap={policy.cap} seed={policy.seed}: kept ids "
      f"{[i for i, _ in sampled.sentences]} (original order preserved)")
again = sample(shard, policy)
print(f"same policy again -> same selection: {sampled == again}")

all_shards = [ingest_shard(data.path(f"demo/corpus/{c}.txt"), c, registry)
              for c in ("ca", "de", "en", "es", "fr", "pt", "ro", "ru")]
stats = corpus_stats(all_shards)
print("\ndemo corpus stats:")
for row in stats["per_language"]:
    print(f"  {row['language']}: {row['sentences']} sentences, "
          f"{row['bytes']} bytes")
print(f"  total: {stats['total']['sentences']} sentences, "
      f"{stats['total']['bytes']} bytes")
