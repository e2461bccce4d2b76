"""Corpus shards and capped random sampling.

A shard is one language's sentences, one per input line. Sampling keeps
everything when a language is under the cap and otherwise draws a uniform
subset with reservoir sampling (Algorithm R), preserving original order.

The PRNG is CPython's Mersenne Twister (``random.Random``), seeded per
(seed, language) through SHA-256, so a fixed policy reproduces the same
selection for the same language on any platform while different languages
draw independent streams.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .registry import Registry


@dataclass(frozen=True)
class CorpusShard:
    """Sentences of one language: (sentence id, text) pairs in corpus order."""

    language: str
    sentences: tuple[tuple[int, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "sentences", tuple((int(i), t) for i, t in self.sentences))
        ids = [i for i, _ in self.sentences]
        if len(set(ids)) != len(ids):
            raise ValidationError(
                f"shard for {self.language!r} has duplicate sentence ids")
        for i, text in self.sentences:
            if not text.strip():
                raise ValidationError(
                    f"shard for {self.language!r}: sentence {i} is blank")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class SamplingPolicy:
    """Per-language sentence cap plus the seed that fixes the selection."""

    cap: int
    seed: int = 0

    def __post_init__(self):
        if self.cap < 1:
            raise ValidationError(f"sampling cap must be >= 1, got {self.cap}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be an unsigned 64-bit integer")


def ingest_shard(path: str | Path, language: str, registry: Registry) -> CorpusShard:
    """Read one sentence per line; blank lines are skipped.

    Sentence ids run 0, 1, 2, ... over the kept lines.
    """
    if language not in registry:
        raise ValidationError(f"language {language!r} is not in the registry")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    sentences = []
    for line in text.splitlines():
        if line.strip():
            sentences.append((len(sentences), line))
    return CorpusShard(language=language, sentences=tuple(sentences))


def _child_seed(seed: int, language: str) -> int:
    digest = hashlib.sha256(f"{seed}:{language}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample(shard: CorpusShard, policy: SamplingPolicy) -> CorpusShard:
    """Uniform sample of at most ``policy.cap`` sentences, original order kept.

    Under-cap shards pass through unchanged. Above the cap, Algorithm R picks
    each sentence with probability cap/n; the result is deterministic for a
    given (shard, policy).
    """
    n = len(shard)
    cap = policy.cap
    if n <= cap:
        return shard
    rng = random.Random(_child_seed(policy.seed, shard.language))
    chosen = list(range(cap))
    for i in range(cap, n):
        j = rng.randrange(i + 1)
        if j < cap:
            chosen[j] = i
    chosen.sort()
    return CorpusShard(language=shard.language,
                       sentences=tuple(shard.sentences[i] for i in chosen))


def corpus_stats(shards: Iterable[CorpusShard]) -> dict:
    """Sentence and UTF-8 byte counts per language, plus a grand total."""
    rows = []
    total_sentences = 0
    total_bytes = 0
    for shard in sorted(shards, key=lambda s: s.language):
        nbytes = sum(len(t.encode("utf-8")) for _, t in shard.sentences)
        rows.append({"language": shard.language,
                     "sentences": len(shard), "bytes": nbytes})
        total_sentences += len(shard)
        total_bytes += nbytes
    return {"per_language": rows,
            "total": {"sentences": total_sentences, "bytes": total_bytes}}
