"""Language registry: codes, family labels, syntax features, lexical similarity.

The registry is the canonical store of which languages exist, which family
each belongs to, and (optionally) categorical syntax feature labels. A
separate table holds pairwise lexical similarity values; pairs without data
are simply absent, never imputed as zero.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError

CODE_PATTERN = re.compile(r"^[a-z]{2,4}$")

# the three categorical syntax features the analysis suite understands
SYNTAX_FEATURES = ("word_order", "adjective_position", "adposition_position")


@dataclass(frozen=True)
class LanguageRecord:
    """One language: lowercase code, optional family, optional syntax labels."""

    code: str
    family: str | None = None
    syntax: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not CODE_PATTERN.match(self.code):
            raise ValidationError(
                f"language code {self.code!r} does not match [a-z]{{2,4}}")
        object.__setattr__(self, "syntax", dict(self.syntax))


class Registry:
    """Immutable collection of :class:`LanguageRecord`, indexed by code."""

    def __init__(self, records: Iterable[LanguageRecord]):
        self._by_code: dict[str, LanguageRecord] = {}
        for rec in records:
            if rec.code in self._by_code:
                raise ValidationError(f"duplicate language code {rec.code!r}")
            self._by_code[rec.code] = rec

    def __len__(self) -> int:
        return len(self._by_code)

    def __iter__(self) -> Iterator[LanguageRecord]:
        return iter(self._by_code.values())

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def get(self, code: str) -> LanguageRecord | None:
        return self._by_code.get(code)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self._by_code)

    @property
    def families(self) -> tuple[str, ...]:
        """Sorted set of family names present in the registry."""
        return tuple(sorted({r.family for r in self if r.family is not None}))

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Known syntax features plus any extra ones the records carry."""
        observed = {name for r in self for name in r.syntax}
        extra = sorted(observed - set(SYNTAX_FEATURES))
        return SYNTAX_FEATURES + tuple(extra)

    def labels(self, codes: Iterable[str],
               attribute: str) -> dict[str, str | None]:
        """Each code's label under ``attribute``: its family for
        ``"family"``, else its value of that syntax feature; ``None`` where
        the language has no such label. Unregistered codes are an error."""
        out: dict[str, str | None] = {}
        for code in codes:
            record = self._by_code.get(code)
            if record is None:
                raise ValidationError(
                    f"language {code!r} is not in the registry")
            out[code] = (record.family if attribute == "family"
                         else record.syntax.get(attribute))
        return out


def read_json(path: str | Path) -> dict:
    """The JSON object in a UTF-8 file. A missing or unreadable file, bytes
    that are not UTF-8, malformed JSON and a top-level value that is not an
    object raise :class:`ValidationError` naming ``path``."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{path}: not found") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_json(path: str | Path) -> dict:
    """:func:`read_json` of a versioned document, one with ``"v": 1``."""
    doc = read_json(path)
    if doc.get("v") != 1:
        raise ValidationError(f"{path}: unsupported or missing schema version 'v'")
    return doc


@contextmanager
def artifact_keys(path: str | Path) -> Iterator[None]:
    """Report a parsed document's missing key or ill-typed field as bad data.

    Wrap the code that picks fields out of a document read from ``path``: a
    ``KeyError`` becomes ``<path>: missing key '<k>'`` and a ``TypeError`` or
    ``ValueError`` becomes ``<path>: malformed: <message>``, both as
    :class:`ValidationError`; a :class:`ValidationError` gains the prefix
    ``<path>: ``.
    """
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed: {exc}") from None


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator:
    """Open a new file that replaces ``path`` only once it is fully written.

    The caller writes to a temporary file beside ``path``; when the block
    ends without an exception it is moved over ``path`` with ``os.replace``.
    If the block raises, or the process dies inside it, ``path`` keeps its
    previous bytes; on an exception the temporary file is removed. ``mode``
    is ``"w"`` (UTF-8 text) or ``"wb"``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# a list or dict whose items all have one of these exact types is written
# by the C encoder as json.dump writes it, given the same separators
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _scalar_text(value) -> str | None:
    """``value`` as :mod:`json` writes a str, None, bool, int or float
    (``ensure_ascii`` off, ``allow_nan`` on); None for any other type."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


class _Writer:
    """``json.dump(doc, fh, indent=2, sort_keys=True, ensure_ascii=False)``
    in as few pieces of text as that layout allows.

    The standard library's indented encoder is pure Python and yields a
    piece per item. Here a list or dict whose items are all exact str, int,
    float, bool or None goes to the C encoder in one call, with an item
    separator that carries the newline and indent, and a float array that
    is symmetric to the bit formats each mirrored entry once. Errors are
    ``json.dump``'s: an unsupported value or key type is a ``TypeError``, a
    container inside itself a ``ValueError``.
    """

    def __init__(self, write):
        self._write = write
        self._encoders: dict[int, json.JSONEncoder] = {}
        self._open: set[int] = set()  # ids of the containers being written

    def value(self, value, level: int = 0) -> None:
        text = _scalar_text(value)
        if text is not None:
            self._write(text)
        elif isinstance(value, (list, tuple)):
            self._container(value, level, "[", "]")
        elif isinstance(value, dict):
            self._container(value, level, "{", "}")
        elif isinstance(value, np.ndarray):
            self._array(value, level)
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")

    def _container(self, value, level: int, left: str, right: str) -> None:
        if not value:
            self._write(left + right)
            return
        inner = "\n" + "  " * (level + 1)
        keyed = left == "{"
        if _SCALARS.issuperset(map(type, value.values() if keyed else value)):
            encoder = self._encoders.get(level)
            if encoder is None:
                encoder = self._encoders[level] = json.JSONEncoder(
                    ensure_ascii=False, sort_keys=True,
                    separators=("," + inner, ": "))
            self._write(left + inner + encoder.encode(value)[1:-1]
                        + "\n" + "  " * level + right)
            return
        if id(value) in self._open:
            raise ValueError("Circular reference detected")
        self._open.add(id(value))
        self._write(left)
        for n, item in enumerate(sorted(value.items()) if keyed else value):
            self._write(("," if n else "") + inner)
            if keyed:
                key, item = item
                text = _scalar_text(key)
                if text is None:
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                self._write((text if isinstance(key, str)
                             else encode_basestring(text)) + ": ")
            self.value(item, level + 1)
        self._write("\n" + "  " * level + right)
        self._open.discard(id(value))

    def _array(self, array: np.ndarray, level: int) -> None:
        """An array, as ``json.dump`` writes its ``tolist()``."""
        m = len(array) if array.ndim else 0
        if not (m and array.dtype == np.float64 and array.shape == (m, m)
                and np.isfinite(array).all()
                and np.array_equal(array.view(np.uint64),
                                   array.T.view(np.uint64))):
            self.value(array.tolist(), level)
            return
        # row i formats its entries from the diagonal on, and each stands
        # for its mirror in a later row too: the mirror has the same bits,
        # which 0.0 == -0.0 would not promise
        text = np.empty((m, m), dtype=object)
        row = "\n" + "  " * (level + 1)
        entry = "\n" + "  " * (level + 2)
        self._write("[")
        for i in range(m):
            text[i, i:] = text[i:, i] = list(
                map(float.__repr__, array[i, i:].tolist()))
            self._write(("," if i else "") + row + "[" + entry
                        + ("," + entry).join(text[i].tolist()) + row + "]")
            text[i] = None  # written; a mirror lives on in its own row
        self._write("\n" + "  " * level + "]")


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as indented, key-sorted UTF-8 JSON plus a newline.

    The bytes are those of ``json.dump(doc, fh, indent=2, sort_keys=True,
    ensure_ascii=False)`` and a newline; a NumPy array in ``doc`` is written
    as its ``tolist()`` would be. The text is streamed into a temporary file
    rather than joined into one string first, so a large document is never
    held twice in memory; see :func:`replacing` for how it then takes the
    place of ``path``.
    """
    with replacing(path) as fh:
        _Writer(fh.write).value(doc)
        fh.write("\n")


def load_registry(path: str | Path) -> Registry:
    """Parse a registry file: ``{"v": 1, "languages": [{code, family, syntax}]}``."""
    doc = load_json(path)
    entries = doc.get("languages")
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: 'languages' must be a list")
    records = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "code" not in entry:
            raise ValidationError(f"{path}: languages[{i}] lacks a 'code'")
        syntax = entry.get("syntax") or {}
        if not isinstance(syntax, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in syntax.items()):
            raise ValidationError(
                f"{path}: languages[{i}].syntax must map feature names to strings")
        records.append(LanguageRecord(
            code=entry["code"], family=entry.get("family"), syntax=syntax))
    return Registry(records)


class LexicalSimilarityTable:
    """Unordered-pair map of lexical similarity values in [0, 1].

    Lookups are order-insensitive; pairs with no datum return ``None``.
    """

    def __init__(self, entries: Mapping[tuple[str, str], float]):
        self._entries: dict[tuple[str, str], float] = {}
        for (a, b), sim in entries.items():
            key = (a, b) if a <= b else (b, a)
            if not 0.0 <= sim <= 1.0:
                raise ValidationError(
                    f"lexical similarity for ({a}, {b}) is {sim}, outside [0, 1]")
            if a == b and sim != 1.0:
                raise ValidationError(
                    f"self-pair ({a}, {a}) must be 1.0, got {sim}")
            prior = self._entries.get(key)
            if prior is not None and prior != sim:
                raise ValidationError(
                    f"asymmetric lexical similarity for ({a}, {b}): "
                    f"{prior} vs {sim}")
            self._entries[key] = sim

    def get(self, a: str, b: str) -> float | None:
        return self._entries.get((a, b) if a <= b else (b, a))

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted({c for key in self._entries for c in key}))

    def __len__(self) -> int:
        return len(self._entries)


def load_lexical_table(path: str | Path) -> LexicalSimilarityTable:
    """Parse a lexical table file: ``{"v": 1, "pairs": [{a, b, sim}]}``."""
    doc = load_json(path)
    pairs = doc.get("pairs")
    if not isinstance(pairs, list):
        raise ValidationError(f"{path}: 'pairs' must be a list")
    entries: dict[tuple[str, str], float] = {}
    for i, p in enumerate(pairs):
        try:
            a, b, sim = p["a"], p["b"], p["sim"]
        except (TypeError, KeyError):
            raise ValidationError(f"{path}: pairs[{i}] needs keys a, b, sim")
        if not isinstance(sim, (int, float)):
            raise ValidationError(f"{path}: pairs[{i}].sim is not numeric")
        key = (a, b) if a <= b else (b, a)
        sim = float(sim)
        if key in entries and entries[key] != sim:
            raise ValidationError(
                f"{path}: asymmetric values for pair ({a}, {b}): "
                f"{entries[key]} vs {sim}")
        entries[key] = sim
    return LexicalSimilarityTable(entries)


def validate_feature_labels(records: Iterable[LanguageRecord]) -> dict[str, list[str]]:
    """Which languages lack which syntax feature.

    Returns a map from feature name to the sorted codes missing it; features
    nobody is missing are omitted, so full coverage yields ``{}``. Missing
    labels are expected and never an error.
    """
    records = list(records)
    observed = {name for r in records for name in r.syntax}
    report: dict[str, list[str]] = {}
    for feature in list(SYNTAX_FEATURES) + sorted(observed - set(SYNTAX_FEATURES)):
        missing = sorted(r.code for r in records if feature not in r.syntax)
        if missing:
            report[feature] = missing
    return report


def bundled_registry() -> Registry:
    """The 108-language registry with its 22 family labels."""
    from . import data
    return load_registry(data.path("registry.json"))


def bundled_lexical_table() -> LexicalSimilarityTable:
    """The 8-language lexical similarity table (15 pairs; the rest missing)."""
    from . import data
    return load_lexical_table(data.path("lexical_similarity.json"))
