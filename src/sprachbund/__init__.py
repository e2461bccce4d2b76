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

from .analysis import (AnalysisReport, build_report, family_purity,
                       lexical_correlation, syntax_agreement)
from .cluster import (Dendrogram, SprachbundAssignment, agglomerate, cut,
                      random_baseline, silhouette)
from .corpus import CorpusShard, SamplingPolicy, corpus_stats, ingest_shard, sample
from .embedding import (FetchStats, LanguageRepresentation,
                        StoredEmbeddingSet, StoreWriter, centroid,
                        centroid_all, fetch_embeddings, load_embeddings,
                        load_representations, write_embeddings,
                        write_representations)
from .errors import (PartialEmbeddingError, ServiceError, SprachbundError,
                     UsageError, ValidationError)
from .partition import PartitionManifest, build_manifest, select_pivot, sweep
from .projection import (Projection2D, TsneParams, TsneResult,
                         conditional_affinities, emit_plot, joint_affinities,
                         minmax_normalize, project, tsne)
from .registry import (LanguageRecord, LexicalSimilarityTable, Registry,
                       bundled_lexical_table, bundled_registry, load_lexical_table,
                       load_registry, validate_feature_labels)
from .simmatrix import (SimilarityMatrix, build_matrix,
                        bundled_embedding_similarity, load_matrix,
                        paired_similarity_vectors, pearson)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CorpusShard", "Dendrogram", "FetchStats", "LanguageRecord",
    "LanguageRepresentation", "LexicalSimilarityTable", "PartialEmbeddingError",
    "PartitionManifest", "Projection2D", "Registry", "SamplingPolicy",
    "ServiceError", "SimilarityMatrix",
    "SprachbundAssignment", "SprachbundError", "StoreWriter",
    "StoredEmbeddingSet", "TsneParams", "TsneResult",
    "UsageError", "ValidationError", "agglomerate", "build_manifest",
    "build_matrix", "build_report", "bundled_embedding_similarity",
    "bundled_lexical_table", "bundled_registry", "centroid", "centroid_all",
    "conditional_affinities", "corpus_stats", "cut", "emit_plot", "family_purity", "fetch_embeddings", "ingest_shard",
    "joint_affinities", "lexical_correlation", "load_embeddings",
    "load_lexical_table", "load_matrix", "load_registry",
    "load_representations", "minmax_normalize", "paired_similarity_vectors",
    "pearson", "project",
    "random_baseline", "sample",
    "select_pivot", "silhouette", "sweep", "syntax_agreement", "tsne",
    "validate_feature_labels", "write_embeddings", "write_representations",
]
