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
from itertools import filterfalse
from operator import itemgetter
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
        # Each check is one pass in C over the whole shard; only a failed
        # check walks the pairs in Python, to name what failed.
        sentences = tuple(self.sentences)
        if not ({tuple} >= set(map(type, sentences))
                and {2} >= set(map(len, sentences))
                and {int} >= set(map(type, map(itemgetter(0), sentences)))):
            # a list for a pair, or an id that is not an exact int
            sentences = tuple((int(i), t) for i, t in sentences)
        object.__setattr__(self, "sentences", sentences)
        if len(set(map(itemgetter(0), sentences))) != len(sentences):
            raise ValidationError(
                f"shard for {self.language!r} has duplicate sentence ids")
        texts = tuple(map(itemgetter(1), sentences))
        if not ({str} >= set(map(type, texts)) and all(texts)
                and not any(map(str.isspace, texts))):
            for i, text in sentences:
                if not isinstance(text, str):
                    raise ValidationError(
                        f"shard for {self.language!r}: sentence {i} is not "
                        f"a string")
                if not text or text.isspace():
                    raise ValidationError(
                        f"shard for {self.language!r}: sentence {i} is blank")

    @classmethod
    def _unchecked(cls, language: str,
                   sentences: tuple[tuple[int, str], ...]) -> "CorpusShard":
        """A shard of pairs that are valid by construction: (int, str)
        tuples, unique ids, no blank text. ``__post_init__`` is skipped, as
        its checks could not fail."""
        shard = object.__new__(cls)
        object.__setattr__(shard, "language", language)
        object.__setattr__(shard, "sentences", sentences)
        return shard

    @classmethod
    def _of_lines(cls, language: str, lines: tuple[str, ...]) -> "CorpusShard":
        """The shard of ``enumerate(lines)`` for lines that are not blank.

        Its pairs are built when ``sentences`` is first read, so a shard
        that is only sampled builds just the pairs :func:`sample` keeps.
        """
        shard = object.__new__(cls)
        object.__setattr__(shard, "language", language)
        object.__setattr__(shard, "_lines", lines)
        return shard

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the pairs of a
        # shard from _of_lines, on their first read
        lines = self.__dict__.get("_lines")
        if name != "sentences" or lines is None:
            raise AttributeError(name)
        sentences = tuple(enumerate(lines))
        object.__setattr__(self, "sentences", sentences)
        return sentences

    def _at(self, positions: list[int]) -> tuple[tuple[int, str], ...]:
        """The pairs at ``positions``, in that order."""
        lines = self.__dict__.get("_lines")
        if lines is None:
            return tuple(map(self.sentences.__getitem__, positions))
        return tuple(zip(positions, map(lines.__getitem__, positions)))

    def __len__(self) -> int:
        lines = self.__dict__.get("_lines")
        return len(self.sentences) if lines is None else len(lines)


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

    Lines are split as ``str.splitlines`` splits them, and a line is blank
    when it is empty or all whitespace (``str.isspace``, the set ``strip``
    removes). Sentence ids run 0, 1, 2, ... over the kept lines. The
    (id, line) pairs are built on their first read, so :func:`sample`
    builds only those of the lines it keeps.
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
    lines = filterfalse(str.isspace, filter(None, text.splitlines()))
    return CorpusShard._of_lines(language, tuple(lines))


def _child_seed(seed: int, language: str) -> int:
    digest = hashlib.sha256(f"{seed}:{language}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample(shard: CorpusShard, policy: SamplingPolicy) -> CorpusShard:
    """Uniform sample of at most ``policy.cap`` sentences, original order kept.

    Under-cap shards pass through unchanged. Above the cap, Algorithm R picks
    each sentence with probability cap/n; the result is deterministic for a
    given (shard, policy). The picks depend only on the shard's length and
    the policy, and only the picked pairs are built.

    Sentence ``m - 1`` replaces slot ``j`` for a draw ``j`` in [0, m) below
    the cap. That draw is ``rng.randrange(m)`` written out as CPython's
    ``Random._randbelow_with_getrandbits`` (3.10 to 3.13): take
    ``m.bit_length()`` bits, and draw again while the value is ``>= m``. It
    consumes the same Mersenne Twister words, so the selection is the one
    ``randrange`` makes, without its per-call argument checks.
    """
    n = len(shard)
    cap = policy.cap
    if n <= cap:
        return shard
    getrandbits = random.Random(
        _child_seed(policy.seed, shard.language)).getrandbits
    chosen = list(range(cap))
    for m in range(cap + 1, n + 1):
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        if j < cap:
            chosen[j] = m - 1
    chosen.sort()
    return CorpusShard._unchecked(shard.language, shard._at(chosen))


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
