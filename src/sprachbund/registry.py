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
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, is_dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Annotated, Iterable, Iterator, Literal, Mapping

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

    document = {"languages": list[{"code": str, "family": str | None,
                                   "syntax": dict[str, str] | None}]}

    def __init__(self, records: Iterable[LanguageRecord]):
        self._by_code: dict[str, LanguageRecord] = {}
        for rec in records:
            self._add(rec)

    def _add(self, rec: LanguageRecord) -> None:
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


def load_json(path: str | Path, declaration: dict | None = None) -> dict:
    """A ``"v": 1`` :func:`read_json` document that fits ``declaration``."""
    doc = read_json(path)
    check_document(doc, {"v": Literal[1], **(declaration or {})}, path)
    return doc


def check_document(value, declaration, path: str | Path | None = None,
                   where: str = "") -> None:
    """Check a parsed JSON value against its declaration. The first value
    that does not fit raises :class:`ValidationError` ``<path>: <json-path>
    must be <what>, got <value>`` (or ``missing key``, ``unknown key``),
    the JSON path being ``where`` and the keys and indexes below it.

    A declaration is Python's type notation: ``str``, ``bool``, ``int`` (no
    bool), ``float`` (any number but a bool), ``None`` (null), ``X | Y``,
    ``Literal[1]``, ``list[X]``, ``tuple[X, Y]``, ``dict[str, X]`` and
    ``Annotated[X, rule, ...]``, a rule being ``"> a"``, ``">= a"``,
    ``"in [a, b)"`` (any brackets) or ``"distinct"`` (a list's items). A
    dict ``{"key": X}`` is an object with those keys and maybe others (a
    key whose X allows null may be absent), a dataclass one of some of its
    fields only. Every number must be finite as a float. A list is checked
    a column at a time in C, and walked item by item only if that fails.
    """
    hint, rules = declaration, ()
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next((h for h in typing.get_args(hint) if _fits(value, h)), hint)
    if typing.get_origin(hint) is Annotated:
        hint, *rules = typing.get_args(hint)
    if not _fits(value, hint):
        raise _mismatch(path, where, _noun(declaration), value)
    if type(value) in (int, float) and not _plain([value], float):
        raise _mismatch(path, where, "finite", value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    items = ()
    if origin in (list, tuple) and not (origin is list
                                        and _plain(value, args[0])):
        hints = args if origin is tuple else args * len(value)
        items = ((f"{where}[{i}]", *pair)
                 for i, pair in enumerate(zip(value, hints)))
    elif origin is dict:
        items = ((f"{where}.{k}" if where else k, item, args[1])
                 for k, item in value.items())
    elif isinstance(hint, dict) or is_dataclass(hint):
        if is_dataclass(hint):  # typing's names: its module may be __main__
            hint = typing.get_type_hints(hint, localns=vars(typing),
                                         include_extras=True)
            problem, keys = "unknown", sorted(set(value) - set(hint))
        else:  # its keys, of which those that allow null may be absent
            problem, keys = "missing", [k for k in hint if k not in value
                                        and not _fits(None, hint[k])]
        if keys:
            raise ValidationError(f"{_at(path, where)}{problem} key {keys[0]!r}")
        items = ((f"{where}.{k}" if where else k, value[k], h)
                 for k, h in hint.items() if k in value)
    for item_where, item, item_hint in items:
        check_document(item, item_hint, path, item_where)
    for rule in rules:
        if not _holds(value, rule):
            raise _mismatch(path, where, rule, value)


def _fits(value, hint) -> bool:
    """Whether ``value`` is of the JSON kind ``hint`` declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        return _fits(value, args[0])
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin is Literal:
        return any(type(value) is type(arg) and value == arg for arg in args)
    if origin is tuple:
        return type(value) is list and len(value) == len(args)
    if isinstance(hint, dict) or is_dataclass(hint):
        return type(value) is dict
    return type(value) in ((int, float) if hint is float
                           else (origin or hint,))


def _noun(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_noun, args))
    if origin in (Annotated, Literal, tuple):
        return (_noun(args[0]) if origin is Annotated
                else json.dumps(args[0]) if origin is Literal
                else f"a list of {len(args)} values")
    return {str: "a string", bool: "true or false", int: "an integer",
            float: "a number", type(None): "null", list: "a list"}.get(
                origin or (hint if isinstance(hint, type) else dict),
                "an object")


def _holds(value, rule: str) -> bool:
    if rule == "distinct":
        return len(set(value)) == len(value)
    if rule.startswith("in "):
        low, high = map(_bound, rule[4:-1].split(", "))
        return ((low <= value if rule[3] == "[" else low < value)
                and (value <= high if rule[-1] == "]" else value < high))
    op, bound = rule.split()
    return value > _bound(bound) if op == ">" else value >= _bound(bound)


def _bound(text: str) -> int | float:
    base, _, power = text.partition("**")
    return int(base) ** int(power) if power else float(text)


def _plain(values: list, hint) -> bool:
    """Whether every item fits ``hint``, judged a column at a time in C: by
    types, a finite sum and the range's ends. False for other hints too."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    kinds = set(map(type, values))
    if origin in (typing.Union, types.UnionType):  # X | None
        rest = [arg for arg in args if arg is not type(None)]
        return len(rest) == 1 and _plain(
            [v for v in values if v is not None], rest[0])
    if origin is Annotated:  # a number within interval rules
        return args[0] in (int, float) and _plain(values, args[0]) and all(
            not values or _holds(min(values), rule)
            and _holds(max(values), rule) for rule in args[1:])
    if origin in (list, dict):  # list[X], dict[str, X]
        return kinds <= {origin} and all(
            _plain(v if origin is list else list(v.values()), args[-1])
            for v in values)
    if origin is tuple or isinstance(hint, dict):  # columns
        columns = (enumerate(args) if origin is tuple else hint.items())
        return (kinds <= {list if origin is tuple else dict}
                and (origin is not tuple or set(map(len, values)) <= {len(args)})
                and all(_plain([v[k] if origin is tuple else v.get(k)
                                for v in values], arg) for k, arg in columns))
    if hint in (str, bool):
        return kinds <= {hint}
    try:  # a finite float sum has finite terms
        return (hint in (int, float) and kinds <= {int, hint}
                and math.isfinite(sum(values, 0.0)))
    except OverflowError:  # an integer beyond float range
        return False


def _at(path, where: str, end: str = ": ") -> str:
    return (f"{path}: " if path else "") + (where and where + end)


def _mismatch(path, where: str, expected: str, value) -> ValidationError:
    if type(value) in (int, float):
        shown = (repr(value) if type(value) is float or _plain([value], int)
                 else "inf" if value > 0 else "-inf")
    else:  # an API caller's value may not be JSON
        shown = json.dumps(value, default=repr)
    return ValidationError(
        f"{_at(path, where, ' ')}must be {expected}, got {shown}")


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Prefix ``<path>: `` to a :class:`ValidationError` raised inside."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def temporary_beside(path: Path) -> tuple[Path, int]:
    """A new empty file beside ``path``, named ``.<name>.<pid>-<hex>.tmp``,
    and a descriptor that writes it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)


@contextmanager
def replacing(path: str | Path) -> Iterator:
    """Open a new UTF-8 text file that replaces ``path`` only once it is
    fully written.

    The caller writes to a temporary file beside ``path``; when the block
    ends without an exception it is moved over ``path`` with ``os.replace``.
    If the block raises, or the process dies inside it, ``path`` keeps its
    previous bytes; on an exception the temporary file is removed.
    """
    tmp, fd = temporary_beside(Path(path))
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# a list or dict whose items all have one of these exact types is written
# by the C encoder as json.dump writes it, given the same separators
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Writer:
    """``json.dump(doc, fh, separators=(",", ":"), sort_keys=True,
    ensure_ascii=False)`` in as few pieces of text as that layout allows.

    ``json.dump`` runs the standard library's pure Python encoder, which
    yields a piece per item. Here a list or dict whose items are all exact
    str, int, float, bool or None goes to the C encoder in one call, and a
    float array that is symmetric to the bit formats each mirrored entry
    once. Errors are ``json.dump``'s: an unsupported value or key type is a
    ``TypeError``, a container inside itself a ``ValueError``.
    """

    def __init__(self, write):
        self._write = write
        self._encode = json.JSONEncoder(
            ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
        self._open: set[int] = set()  # ids of the containers being written

    def value(self, value) -> None:
        if isinstance(value, (list, tuple)):
            self._container(value, "[", "]")
        elif isinstance(value, dict):
            self._container(value, "{", "}")
        elif isinstance(value, np.ndarray):
            self._array(value)
        else:  # a scalar, or what json.dump refuses with the same error
            self._write(self._encode(value))

    def _container(self, value, left: str, right: str) -> None:
        keyed = left == "{"
        if _SCALARS.issuperset(map(type, value.values() if keyed else value)):
            self._write(self._encode(value))
            return
        if id(value) in self._open:
            raise ValueError("Circular reference detected")
        self._open.add(id(value))
        self._write(left)
        for n, item in enumerate(sorted(value.items()) if keyed else value):
            if n:
                self._write(",")
            if keyed:
                key, item = item
                if not (key is None or isinstance(key, (str, int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                text = self._encode(key)
                self._write((text if isinstance(key, str)
                             else encode_basestring(text)) + ":")
            self.value(item)
        self._write(right)
        self._open.discard(id(value))

    def _array(self, array: np.ndarray) -> None:
        """An array, as ``json.dump`` writes its ``tolist()``."""
        m = len(array) if array.ndim else 0
        if not (m and array.dtype == np.float64 and array.shape == (m, m)
                and np.isfinite(array).all()
                and np.array_equal(array.view(np.uint64),
                                   array.T.view(np.uint64))):
            self.value(array.tolist())
            return
        # row i formats its entries from the diagonal on, and each stands
        # for its mirror in a later row too: the mirror has the same bits,
        # which 0.0 == -0.0 would not promise
        text = np.empty((m, m), dtype=object)
        self._write("[")
        for i in range(m):
            text[i, i:] = text[i:, i] = list(
                map(float.__repr__, array[i, i:].tolist()))
            self._write(("," if i else "") + "["
                        + ",".join(text[i].tolist()) + "]")
            text[i] = None  # written; a mirror lives on in its own row
        self._write("]")


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as compact, key-sorted UTF-8 JSON plus a newline.

    The bytes are those of ``json.dump(doc, fh, separators=(",", ":"),
    sort_keys=True, ensure_ascii=False)`` and a newline: no indentation and
    no space after a separator; ``python -m json.tool FILE`` shows the file
    indented. A NumPy array in ``doc`` is written as its ``tolist()`` would
    be. The text is streamed into a temporary file rather than joined into
    one string first, so a large document is never held twice in memory;
    see :func:`replacing` for how it then takes the place of ``path``.
    """
    with replacing(path) as fh:
        _Writer(fh.write).value(doc)
        fh.write("\n")


def load_registry(path: str | Path) -> Registry:
    """Parse a registry file, declared by :attr:`Registry.document`; a bad
    entry raises :class:`ValidationError` naming the file and the entry."""
    doc = load_json(path, Registry.document)
    registry = Registry(())
    for i, entry in enumerate(doc["languages"]):
        with naming(f"{path}: languages[{i}]"):
            registry._add(LanguageRecord(entry["code"], entry.get("family"),
                                         entry.get("syntax") or {}))
    return registry


class LexicalSimilarityTable:
    """Unordered-pair map of lexical similarity values in [0, 1].

    Lookups are order-insensitive; pairs with no datum return ``None``.
    """

    document = {"pairs": list[{"a": str, "b": str, "sim": float}]}

    def __init__(self, entries: Mapping[tuple[str, str], float]):
        self._entries: dict[tuple[str, str], float] = {}
        for (a, b), sim in entries.items():
            self._add(a, b, sim)

    def _add(self, a: str, b: str, sim: float) -> None:
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
    """Parse a lexical table file (see :attr:`LexicalSimilarityTable.document`);
    a bad pair raises :class:`ValidationError` naming file and pair."""
    doc = load_json(path, LexicalSimilarityTable.document)
    table = LexicalSimilarityTable({})
    for i, pair in enumerate(doc["pairs"]):
        with naming(f"{path}: pairs[{i}]"):
            table._add(pair["a"], pair["b"], float(pair["sim"]))
    return table


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
