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
from pathlib import Path

from sprachbund import cli, data

ROOT = Path(__file__).resolve().parents[1]
# per-layer names that run.py measures itself rather than from the spans
RUNNER_METRICS = ("setup.", "all_wall_s", "all_cpu_s", "calibration_s",
                  "trace.")


def span_metric_names() -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer"]
            if not m["name"].startswith(RUNNER_METRICS)}


def layer_metrics(trace: dict) -> dict:
    """``perfbench/run.py``'s per-layer metrics of a file-source run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return run.layer_metrics(trace, "file", None, None)


def test_traced_all_covers_every_stage(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "corpus_root": str(data.path("demo/corpus")),
        "embeddings": str(data.path("demo/embeddings.jsonl")),
        "k": 2, "seed": 7,
        "tsne": {"perplexity": 2.0, "iterations": 300},
    }), encoding="utf-8")
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
    assert names.count("projection.tsne") == 1
    missing = span_metric_names() - set(layer_metrics(doc))
    assert not missing, f"no span feeds BENCHMARK.json metrics {sorted(missing)}"
