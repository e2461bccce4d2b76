"""The benchmark's traced run still works against the package.

``perfbench/trace_all.py`` wraps package functions by name and applies
count lambdas to what they return (``len(r)`` of ``cli.ingest_shard``,
``r.kl_trace[-1]`` of ``projection.tsne``), so a changed signature or return
type breaks the traced benchmark run while every other test passes. A name
the package stops calling breaks it too: ``perfbench/run.py`` then reports
no metric for that layer, and its result lacks a name ``BENCHMARK.json``
lists.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from sprachbund import cli, data, partition, projection

ROOT = Path(__file__).resolve().parents[1]
# per-layer names that run.py measures itself rather than from the spans
RUNNER_METRICS = ("setup.", "all_wall_s", "all_cpu_s", "calibration_s",
                  "trace.")


def span_metric_names() -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer"]
            if not m["name"].startswith(RUNNER_METRICS)}


def perfbench_module(name: str):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def layer_metrics(trace: dict, source: str) -> dict:
    """``perfbench/run.py``'s per-layer metrics of a run whose embeddings
    come from ``source`` ("file" or "http")."""
    return perfbench_module("run").layer_metrics(trace, source, None, None)


def traced_all(tmp_path: Path, config: dict) -> dict:
    """The spans of ``trace_all.py ... all`` on ``config``; it must exit 0."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_all.py"),
         str(spans_path), "all", "--config", str(cfg),
         "--out", str(tmp_path / "ws")],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    assert doc["rc"] == 0
    names = [span["name"] for span in doc["spans"]]
    for stage in cli.STAGE_ORDER:
        assert names.count(f"cli.{stage}") == 1, stage
    return doc


def test_traced_all_covers_every_stage(tmp_path):
    doc = traced_all(tmp_path, {
        "corpus_root": str(data.path("demo/corpus")),
        "embeddings": str(data.path("demo/embeddings.jsonl")),
        "k": 2, "seed": 7,
        "tsne": {"perplexity": 2.0, "iterations": 300},
    })
    names = [span["name"] for span in doc["spans"]]
    assert names.count("projection.tsne") == 1
    missing = span_metric_names() - set(layer_metrics(doc, "file"))
    assert not missing, f"no span feeds BENCHMARK.json metrics {sorted(missing)}"


def test_traced_http_all_nests_every_span(tmp_path, embedding_server):
    # the fetch runs on a pool of threads while `sample` draws the shards,
    # but every traced call is made on the main thread: the tracer keeps
    # one stack, so a span opened on another thread would break the nesting
    server = embedding_server(dim=6)
    doc = traced_all(tmp_path, {
        "corpus_root": str(data.path("demo/corpus")),
        "endpoint": server.endpoint, "batch": 4, "k": 2, "seed": 7,
        "tsne": {"perplexity": 2.0, "iterations": 300},
    })
    spans = doc["spans"]
    assert all(span["end"] is not None for span in spans)
    open_spans = []  # the stack of spans enclosing the current one
    for i, span in enumerate(spans):  # in the order they were opened
        while open_spans and spans[open_spans[-1]]["end"] <= span["start"]:
            open_spans.pop()
        assert span["parent"] == (open_spans[-1] if open_spans else None), span
        if open_spans:
            assert span["end"] <= spans[open_spans[-1]]["end"], span
        open_spans.append(i)
    names = [span["name"] for span in spans]
    assert names.count("embedding.fetch") == 1
    assert names.count("corpus.ingest") == names.count("corpus.sample") == 8
    missing = span_metric_names() - set(layer_metrics(doc, "http"))
    assert not missing, f"no span feeds BENCHMARK.json metrics {sorted(missing)}"


def test_traced_names_are_called_on_the_main_thread(tmp_path, embedding_server,
                                                   monkeypatch):
    trace_all = perfbench_module("trace_all")
    modules = {"cli": cli, "partition": partition, "projection": projection}
    for mod, attr, _, _ in trace_all.WRAPPED:  # put back when the test ends
        if hasattr(modules[mod], attr):
            monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    for stage in cli.STAGE_ORDER:
        monkeypatch.setitem(cli._STAGES, stage, cli._STAGES[stage])
    calls = []

    class Recorder(trace_all.Tracer):
        def open(self, name):
            calls.append((name, threading.current_thread().name))
            return super().open(name)

    trace_all.install(Recorder())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "corpus_root": str(data.path("demo/corpus")),
        "endpoint": embedding_server(dim=6).endpoint, "batch": 4, "k": 2,
        "tsne": {"perplexity": 2.0, "iterations": 300},
        "out": str(tmp_path / "ws"),
    }), encoding="utf-8")
    assert cli.main(["all", "--config", str(cfg)]) == 0
    assert {name for name, _ in calls} >= {"corpus.ingest", "embedding.fetch"}
    assert {thread for _, thread in calls} == {threading.main_thread().name}
