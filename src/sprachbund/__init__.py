"""Language centroid representations, similarity clustering, and corpus
partition manifests.

The pipeline: sample per-language corpora, embed the sentences, average each
language into a centroid vector, build the cosine similarity matrix, cluster
languages by average linkage, pick pivot languages, and emit non-overlapping
corpus-partition manifests for per-cluster pretraining. Companion analyses
relate the similarity structure to lexical similarity, language families,
and syntax features, and project the representations to 2-D for plotting.
"""

import os

# numpy's OpenBLAS starts one pool thread per CPU when numpy is first
# imported. No result depends on the thread count; the pin is for speed: on
# a 2-vCPU Xeon VM, 300 t-SNE steps at M = 1000 took the same wall time on
# one thread as on two, and 0.55-0.6 of the CPU. This must run before any
# submodule imports numpy; a value the user has set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from importlib import import_module

__version__ = "0.1.0"

# Each public name's home module. A name is imported from its home on first
# access (PEP 562), so `import sprachbund` loads no numpy and no submodule.
_HOMES = {
    "analysis": ("AnalysisReport", "build_report", "family_purity",
                 "lexical_correlation", "syntax_agreement"),
    "cluster": ("Dendrogram", "SprachbundAssignment", "agglomerate", "cut",
                "random_baseline", "silhouette"),
    "corpus": ("CorpusShard", "SamplingPolicy", "corpus_stats",
               "ingest_shard", "sample"),
    "embedding": ("FetchStats", "LanguageRepresentation",
                  "StoredEmbeddingSet", "StoreWriter", "centroid",
                  "centroid_all", "fetch_embeddings", "load_embeddings",
                  "load_representations", "write_embeddings",
                  "write_representations"),
    "errors": ("PartialEmbeddingError", "ServiceError", "SprachbundError",
               "UsageError", "ValidationError"),
    "partition": ("PartitionManifest", "build_manifest", "select_pivot",
                  "sweep"),
    "projection": ("Projection2D", "TsneParams", "TsneResult",
                   "conditional_affinities", "emit_plot", "joint_affinities",
                   "minmax_normalize", "project", "tsne"),
    "registry": ("LanguageRecord", "LexicalSimilarityTable", "Registry",
                 "bundled_lexical_table", "bundled_registry",
                 "load_lexical_table", "load_registry",
                 "validate_feature_labels"),
    "simmatrix": ("SimilarityMatrix", "build_matrix",
                  "bundled_embedding_similarity", "load_matrix",
                  "paired_similarity_vectors", "pearson"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
