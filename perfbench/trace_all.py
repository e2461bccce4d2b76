"""Run ``sprachbund.cli.main`` in this process with spans around module calls.

Wrappers are installed on the names the callers look up (``cli.agglomerate``
for the cluster stage, ``partition.agglomerate`` inside ``sweep``, and so on),
so nothing inside the package changes. Spans are kept in memory and written
as JSON when the run ends:

    python3 perfbench/trace_all.py SPANS.json all --config CFG --out WS

Each span records its name, start, end, parent index and the item counts
that crossed the boundary. A name the package no longer has is listed under
``"missing"`` instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()


def _size(path) -> int:
    return os.path.getsize(path)


def _vectors(sets) -> int:
    return sum(len(s) for s in sets)


def _files(ws: Path) -> dict[str, tuple[int, int]]:
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(ws) if e.is_file()}


# (module, attribute, span name, counts(args, result) -> dict)
WRAPPED = [
    ("cli", "load_registry", "registry.load", None),
    ("cli", "bundled_registry", "registry.load", None),
    ("cli", "ingest_shard", "corpus.ingest",
     lambda a, r: {"sentences_in": len(r), "bytes_in": _size(a[0])}),
    ("cli", "sample", "corpus.sample", lambda a, r: {"sentences_out": len(r)}),
    ("cli", "load_embeddings", "embedding.load",
     lambda a, r: {"vectors": _vectors(r), "bytes": _size(a[0])}),
    ("cli", "write_embeddings", "embedding.write",
     lambda a, r: {"vectors": _vectors(a[0]), "bytes": _size(a[1])}),
    ("cli", "fetch_embeddings", "embedding.fetch",
     lambda a, r: {"vectors": len(r)}),
    ("cli", "centroid_all", "embedding.centroid",
     lambda a, r: {"vectors": _vectors(a[0])}),
    ("cli", "build_matrix", "simmatrix.build", None),
    ("cli", "agglomerate", "cluster.agglomerate", None),
    ("partition", "agglomerate", "cluster.agglomerate", None),
    ("cli", "cut", "cluster.cut", None),
    ("partition", "cut", "cluster.cut", None),
    ("cli", "sweep", "partition.sweep", lambda a, r: {"manifests": len(r)}),
    ("partition", "select_pivot", "partition.select_pivot", None),
    ("cli", "build_report", "analysis.report", None),
    ("projection", "conditional_affinities", "projection.affinities", None),
    ("projection", "tsne", "projection.tsne",
     lambda a, r: {"iterations": r.kl_trace[-1][0], "final_kl": r.kl_trace[-1][1]}),
    ("cli", "emit_plot", "projection.plot", None),
]


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counts is not None:
            span["counts"].update(counts(args, result))
        return result
    return traced


def _wrap_stage(tracer: Tracer, fn, stage: str):
    @functools.wraps(fn)
    def traced(cfg, ws):
        before = _files(ws)
        span = tracer.open(f"cli.{stage}")
        try:
            fn(cfg, ws)
        finally:
            tracer.close(span)
        after = _files(ws)
        span["counts"] = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bytes_out": sum(size for name, (size, mtime) in after.items()
                             if before.get(name) != (size, mtime)),
        }
    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed name that exists; return the names not found."""
    import sprachbund.cli as cli
    import sprachbund.partition as partition
    import sprachbund.projection as projection
    modules = {"cli": cli, "partition": partition, "projection": projection}
    missing = []
    for mod, attr, name, counts in WRAPPED:
        fn = getattr(modules[mod], attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        setattr(modules[mod], attr, _wrap(tracer, fn, name, counts))
    stages = getattr(cli, "_STAGES", {})
    for stage in getattr(cli, "STAGE_ORDER", ()):
        if stage in stages:
            stages[stage] = _wrap_stage(tracer, stages[stage], stage)
        else:
            missing.append(f"cli._STAGES[{stage}]")
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    import sprachbund.cli as cli
    rc = cli.main(cli_args)
    spans_path.write_text(json.dumps({
        "rc": rc, "missing": missing, "spans": tracer.spans}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
