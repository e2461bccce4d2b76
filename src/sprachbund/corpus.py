"""Corpus shards and capped random sampling.

A shard is one language's sentences, one per input line. Ingest indexes the
lines of a file's bytes at C speed and decodes a line only when it is read.
Sampling keeps everything when a language is under the cap and otherwise
draws a uniform ``cap``-subset of positions with Floyd's algorithm, exactly
``cap`` draws whatever the shard's length, and keeps original order.

The PRNG is CPython's Mersenne Twister (``random.Random``), seeded per
(seed, language) through SHA-256, so a fixed policy reproduces the same
selection for the same language on any platform while different languages
draw independent streams.
"""

from __future__ import annotations

import codecs
import hashlib
import random
from dataclasses import dataclass
from itertools import filterfalse
from operator import itemgetter
from pathlib import Path
from typing import Annotated, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .registry import Registry, check_document

# Every separator ``str.splitlines`` breaks on but ``\n``: six control
# bytes, and three characters outside ASCII. A file without them, but for
# the ``\r`` of ``\r\n`` pairs, splits at its ``\n`` bytes.
_RARE_CONTROLS = np.zeros(32, dtype=bool)
_RARE_CONTROLS[list(b"\r\x0b\x0c\x1c\x1d\x1e")] = True
_WIDE_BREAKS = "\x85\u2028\u2029"
# The first UTF-8 byte of each character ``str.isspace`` accepts: a line
# that starts with any other byte is not blank.
_SPACE_LEAD = np.zeros(256, dtype=bool)
_SPACE_LEAD[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \xc2\xe1\xe2\xe3")] = True
# Bytes per pass of the UTF-8 check and the line-break search, so neither
# builds a temporary the size of the file.
_CHUNK = 1 << 20


class _Lines:
    """The lines ``raw[starts[i]:ends[i]]`` of a UTF-8 buffer, each decoded
    when it is read."""

    __slots__ = ("_raw", "_starts", "_ends")

    def __init__(self, raw: bytes, starts: np.ndarray, ends: np.ndarray):
        self._raw, self._starts, self._ends = raw, starts, ends

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i: int) -> str:
        return self._raw[self._starts[i]:self._ends[i]].decode("utf-8")

    def __iter__(self):
        raw = self._raw
        for start, end in zip(self._starts.tolist(), self._ends.tolist()):
            yield raw[start:end].decode("utf-8")


@dataclass(frozen=True)
class CorpusShard:
    """Sentences of one language: (sentence id, text) pairs in corpus order."""

    # a shard in sampled.json (see registry.check_document)
    document = {"language": str, "sentences": list[tuple[int, str]]}

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
    def _of_lines(cls, language: str, lines: Sequence[str]) -> "CorpusShard":
        """The shard of ``enumerate(lines)`` for a sequence of lines that are
        not blank.

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

    cap: Annotated[int, ">= 1"]
    seed: Annotated[int, "in [0, 2**64)"] = 0

    def __post_init__(self):
        check_document(vars(self), SamplingPolicy)


def _wide_breaks(raw: bytes, path: str | Path) -> bool:
    """Whether ``raw`` holds a line break outside ASCII. Raise the
    ValidationError that names the byte offset of the first invalid UTF-8
    sequence. An ASCII file is not decoded, and any other at most
    ``_CHUNK`` bytes at a time, so no decoded copy of the file is kept."""
    if raw.isascii():
        return False
    view = memoryview(raw)
    done = 0
    found = False
    while done < len(raw):
        try:  # a sequence cut by the chunk's end is left for the next one
            text, used = codecs.utf_8_decode(view[done:done + _CHUNK],
                                             "strict",
                                             done + _CHUNK >= len(raw))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: invalid UTF-8 at byte offset "
                                  f"{done + exc.start}") from None
        done += used
        found = found or any(c in text for c in _WIDE_BREAKS)
    return found


def _line_bounds(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Start and end offsets of the lines of ``raw`` that are not blank,
    for valid UTF-8 without a line break outside ASCII; None if ``raw``
    holds a line break other than ``\\n`` and ``\\r\\n``.

    One pass finds the control bytes, among them the breaks. A ``\\r`` is
    part of a ``\\r\\n`` break when the next byte, in this chunk or the
    next, is ``\\n``; a line then ends before its ``\\r``. Only a line
    whose first byte can start a whitespace character is decoded, to ask
    ``str.isspace``.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    edges = [np.array([-1])]  # the break before the first line
    crlf = False
    for at in range(0, len(buf), _CHUNK):
        chunk = buf[at:at + _CHUNK]
        controls = np.flatnonzero(chunk < 32)
        kinds = chunk[controls]
        rare = kinds[_RARE_CONTROLS[kinds]]
        if rare.size:
            returns = controls[kinds == 13] + at + 1  # must each hold a \n
            if (rare.size != returns.size or returns[-1] == len(buf)
                    or (buf[returns] != 10).any()):
                return None
            crlf = True
        edges.append(controls[kinds == 10] + at)
    if raw and raw[-1] != 10:  # the last line has no break of its own
        edges.append(np.array([len(buf)]))
    edges = np.concatenate(edges)
    starts, ends = edges[:-1] + 1, edges[1:]
    if crlf:  # a line before a \r\n ends at its \r
        ends = ends - (buf[np.maximum(ends - 1, 0)] == 13)
    keep = starts < ends
    maybe = np.flatnonzero(keep & _SPACE_LEAD[buf[starts]])
    for i, start, end in zip(maybe.tolist(), starts[maybe].tolist(),
                             ends[maybe].tolist()):
        keep[i] = not raw[start:end].decode("utf-8").isspace()
    if keep.all():
        return starts, ends
    return starts[keep], ends[keep]


def ingest_shard(path: str | Path, language: str, registry: Registry) -> CorpusShard:
    """Read one sentence per line; blank lines are skipped.

    Lines are split as ``str.splitlines`` splits them, and a line is blank
    when it is empty or all whitespace (``str.isspace``, the set ``strip``
    removes). Sentence ids run 0, 1, 2, ... over the kept lines. An invalid
    UTF-8 file fails with the byte offset of its first bad sequence.

    A file whose only line breaks are ``\\n`` and ``\\r\\n`` is indexed in
    C: its kept lines are byte offsets into the file, and a line is decoded
    only when it is read, so :func:`sample` decodes just the lines it
    keeps. A file with any other separator ``str.splitlines`` knows (a
    ``\\r`` not followed by ``\\n``, ``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029) is decoded and split
    whole.
    """
    if language not in registry:
        raise ValidationError(f"language {language!r} is not in the registry")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    bounds = None if _wide_breaks(raw, path) else _line_bounds(raw)
    if bounds is None:
        lines = tuple(filterfalse(
            str.isspace, filter(None, raw.decode("utf-8").splitlines())))
    else:
        lines = _Lines(raw, *bounds)
    return CorpusShard._of_lines(language, lines)


def _child_seed(seed: int, language: str) -> int:
    digest = hashlib.sha256(f"{seed}:{language}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample(shard: CorpusShard, policy: SamplingPolicy) -> CorpusShard:
    """Uniform sample of at most ``policy.cap`` sentences, original order kept.

    Under-cap shards pass through unchanged. Above the cap, Floyd's
    algorithm (Bentley & Floyd 1987) draws a uniform ``cap``-subset of the
    n positions with exactly ``cap`` draws: for m = n - cap + 1, ..., n it
    draws j in [0, m) and adds j, or m - 1 if j is already chosen. The
    result is deterministic for a given (shard, policy); the picks depend
    only on the shard's length and the policy, and only the picked pairs
    are built.

    Each draw is ``rng.randrange(m)`` written out as CPython's
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
    chosen = set()
    for m in range(n - cap + 1, n + 1):
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        chosen.add(m - 1 if j in chosen else j)
    return CorpusShard._unchecked(shard.language, shard._at(sorted(chosen)))


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
