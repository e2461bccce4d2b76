"""Seeded synthetic inputs for the benchmark workloads.

Every workload plants G well-separated groups of language centroids, so the
K=G cut of the average-linkage dendrogram has a known answer. Sentence
vectors are a language centroid plus noise; the same seed always gives the
same files, byte for byte.

Run ``python3 perfbench/generate.py <workload> <seed> <dir>`` to write one
workload's inputs by hand.
"""

from __future__ import annotations

import hashlib
import json
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

# Why each workload exists: each stresses a different layer, and each layer
# change has one workload where the prediction is "no change". The "why"
# strings are copied into BENCHMARK.json.
WORKLOADS = {
    "paper-http": {
        "why": "108 languages x 10k lines through a stub HTTP service: "
               "corpus ingest, sampling and HTTP fetch dominate; the only "
               "embedding file I/O is writing and re-reading 768-dim vectors",
        "languages": "bundled", "groups": 8, "dim": 768, "lines": 10000,
        "cap": 16, "batch": 16, "sweep": [1, 2, 4, 8], "source": "http",
    },
    "stress-languages": {
        "why": "240 synthetic languages x 16 lines x 64 dims: the O(M^3) "
               "agglomeration (run twice) and exact t-SNE dominate; "
               "embedding I/O stays small",
        "languages": 240, "groups": 16, "dim": 64, "lines": 16,
        "cap": 16, "sweep": [1, 2, 4, 8, 16], "source": "file",
    },
}

# Sentence vectors are quantized to a seeded alphabet of float32 values that
# keep all their digits, so the files cost the program as much to parse as
# real embeddings while the generator formats each value only once.
_ALPHABET = 4096
_LANG_SPREAD = 0.6
_SENTENCE_NOISE = 1.5
_FILLER_WORDS = (
    "river stone market bread window winter garden letter mountain "
    "village silver morning harbor lantern orchard meadow thunder candle "
    "forest island kettle ribbon saddle tunnel valley whistle"
).split()


def _rng(seed: int, *salt: str) -> np.random.Generator:
    digest = hashlib.sha256(":".join((str(seed),) + salt).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _bundled_codes(src: Path) -> list[str]:
    doc = json.loads((src / "sprachbund" / "data" / "registry.json")
                     .read_text(encoding="utf-8"))
    return sorted(entry["code"] for entry in doc["languages"])


def _synthetic_codes(seed: int, count: int) -> list[str]:
    rng = _rng(seed, "codes")
    picks = rng.choice(26 ** 3, size=count, replace=False)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return sorted(letters[p // 676] + letters[p // 26 % 26] + letters[p % 26]
                  for p in picks.tolist())


def plan(workload: str, seed: int, src: Path) -> dict:
    """Languages, planted groups and language centroids for one workload."""
    spec = WORKLOADS[workload]
    codes = (_bundled_codes(src) if spec["languages"] == "bundled"
             else _synthetic_codes(seed, spec["languages"]))
    rng = _rng(seed, workload, "plan")
    g, dim = spec["groups"], spec["dim"]
    order = rng.permutation(len(codes))
    group_of = {codes[i]: rank % g for rank, i in enumerate(order.tolist())}
    centers = rng.standard_normal((g, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centroids = {}
    for code in codes:
        offset = rng.standard_normal(dim) * (_LANG_SPREAD / np.sqrt(dim))
        centroids[code] = centers[group_of[code]] + offset
    groups = [sorted(c for c in codes if group_of[c] == j) for j in range(g)]
    return {"spec": spec, "codes": codes, "groups": sorted(groups),
            "group_of": group_of, "centroids": centroids, "dim": dim}


class VectorText:
    """Formats sentence vectors as JSON arrays through a seeded alphabet."""

    def __init__(self, seed: int, dim: int):
        scale = np.sqrt(1.0 + _SENTENCE_NOISE ** 2) / np.sqrt(dim)
        rng = _rng(seed, "alphabet")
        values = np.unique(
            (rng.standard_normal(_ALPHABET * 2) * 2.5 * scale).astype(np.float32))
        self.values = values
        self.text = [repr(float(v)) for v in values.tolist()]

    def rows(self, matrix: np.ndarray) -> list[str]:
        """One ``[v, v, ...]`` string per row of ``matrix``."""
        idx = np.searchsorted(self.values, matrix.astype(np.float32))
        np.clip(idx, 0, len(self.values) - 1, out=idx)
        pick = [itemgetter(*row) for row in idx.tolist()]
        return ["[" + ", ".join(get(self.text)) + "]" for get in pick]


def sentence_vectors(plan_: dict, seed: int, code: str, count: int) -> np.ndarray:
    """``count`` noisy sentence vectors around one language's centroid."""
    dim = plan_["dim"]
    rng = _rng(seed, "sentences", code)
    noise = rng.standard_normal((count, dim)) * (_SENTENCE_NOISE / np.sqrt(dim))
    return plan_["centroids"][code] + noise


def _filler(seed: int) -> list[str]:
    rng = _rng(seed, "filler")
    words = np.array(_FILLER_WORDS)
    return [" ".join(words[rng.integers(0, len(words), 4)]) for _ in range(257)]


def sentence_text(code: str, index: int, filler: list[str]) -> str:
    """Corpus line: the code and line number lead, so a service can parse them."""
    return f"{code} {index} {filler[(index * 7 + len(code)) % len(filler)]}"


def generate(workload: str, seed: int, out: Path, src: Path,
             endpoint: str | None = None) -> dict:
    """Write corpora, registry, embeddings and config; return the plan."""
    p = plan(workload, seed, src)
    spec = p["spec"]
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus"
    corpus.mkdir(exist_ok=True)
    filler = _filler(seed)
    for code in p["codes"]:
        lines = [sentence_text(code, i, filler) for i in range(spec["lines"])]
        (corpus / f"{code}.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    config = {"corpus_root": str(corpus), "cap": spec["cap"],
              "seed": seed % 2 ** 32, "k": spec["groups"],
              "sweep": spec["sweep"]}
    if spec["source"] == "file":
        config["embeddings"] = str(out / "embeddings.jsonl")
        _write_embeddings(p, seed, out / "embeddings.jsonl")
    else:
        config["endpoint"] = endpoint
        config["batch"] = spec["batch"]
    if spec["languages"] != "bundled":
        config["registry"] = str(out / "registry.json")
        config["lexical_table"] = str(out / "lexical.json")
        _write_registry(p, seed, out)
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                     encoding="utf-8")
    p["config"] = out / "config.json"
    return p


def _write_embeddings(p: dict, seed: int, path: Path) -> None:
    text = VectorText(seed, p["dim"])
    lines = [json.dumps({"v": 1, "dim": p["dim"]}) + "\n"]
    for code in p["codes"]:
        vecs = sentence_vectors(p, seed, code, p["spec"]["lines"])
        for i, row in enumerate(text.rows(vecs)):
            lines.append(f'{{"id": {i}, "lang": "{code}", "vec": {row}}}\n')
    path.write_text("".join(lines), encoding="utf-8")


def _write_registry(p: dict, seed: int, out: Path) -> None:
    rng = _rng(seed, "registry")
    features = {"word_order": ["SVO", "SOV", "VSO"],
                "adjective_position": ["AN", "NA"],
                "adposition_position": ["Pre", "Post"]}
    languages = []
    for code in p["codes"]:
        syntax = {name: values[int(rng.integers(len(values)))]
                  for name, values in features.items() if rng.random() < 0.8}
        languages.append({"code": code,
                          "family": f"fam{p['group_of'][code]:02d}",
                          "syntax": syntax})
    (out / "registry.json").write_text(
        json.dumps({"v": 1, "languages": languages}) + "\n", encoding="utf-8")
    pairs = {}
    codes = p["codes"]
    for a in codes:
        for b in rng.choice(codes, size=3, replace=False).tolist():
            if a == b:
                continue
            same = p["group_of"][a] == p["group_of"][b]
            sim = round(float(rng.uniform(0.5, 0.9) if same
                              else rng.uniform(0.0, 0.4)), 3)
            pairs[(min(a, b), max(a, b))] = sim
    (out / "lexical.json").write_text(json.dumps({"v": 1, "pairs": [
        {"a": a, "b": b, "sim": s} for (a, b), s in sorted(pairs.items())
    ]}) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: generate.py {{{','.join(WORKLOADS)}}} SEED DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path("src"),
             endpoint="http://127.0.0.1:0")
