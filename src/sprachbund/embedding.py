"""Sentence embeddings and per-language centroid representations.

Embeddings arrive either from a JSON Lines file or from an HTTP service that
embeds batches of sentences. Either way they reach the workspace one way: a
:class:`StoreWriter` puts each language's rows, in shard order, into a
binary store, which :func:`write_embeddings` finishes. The store is one
little-endian float32 ``.npy`` matrix holding every language's rows in turn,
plus a small JSON index of languages and sentence ids. A fetch writes each
reply's rows into the store's file as the reply arrives, a JSON Lines file
only its drawn rows, a chunk of lines at a time, and a store is read back
one language at a time: none holds more than the replies in flight, a chunk
of lines or one language's rows. Each language is then reduced to the mean
of its sentence vectors, and those centroids are kept in a store of the same
layout, one row per language. Vectors are held in float32; sums are
accumulated in float64 with compensated (Kahan) combination of block partial
sums, so a 10k x 768 average does not drift.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import time
from array import array
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Annotated, Iterable, Literal, Sequence
from urllib.parse import urlsplit

import numpy as np

from .corpus import CorpusShard
from .errors import (PartialEmbeddingError, ServiceError, SprachbundError,
                     ValidationError)
from .registry import (check_document, load_json, naming, temporary_beside,
                       write_json)

_SUM_BLOCK = 256
# threads that send (language, batch) requests to the embedding service at
# once; each owns one connection
FETCH_WORKERS = 8
_STORE_DTYPE = np.dtype("<f4")
# the .npy 1.0 header numpy writes for any 2-D <f4 shape, padded to this
# length: a row's place in a store is known before its shape is
_HEADER_BYTES = 128
# vector components converted at once when a JSON Lines file is read
_CHUNK_VALUES = 1 << 12
_RECORD_KEYS = frozenset(("lang", "id", "vec"))


def _check_unique(language: str, ids: Sequence[int]) -> None:
    # an array('q') is sorted: no int per id, and np.unique loads numpy.ma
    if (not np.diff(np.sort(ids)).all() if isinstance(ids, array)
            else len(set(ids)) != len(ids)):
        raise ValidationError(
            f"duplicate sentence ids in embedding set for {language!r}")


def _non_finite(language: str, sid: int) -> ValidationError:
    return ValidationError(
        f"non-finite component in vector for lang={language} id={sid}")


def _check_finite(language: str, ids: Sequence[int],
                  matrix: np.ndarray) -> None:
    """Raise for the first row of ``matrix`` with a non-finite component;
    row i is the vector of ``ids[i]``."""
    if matrix.size and not np.isfinite(matrix).all():
        bad = int(np.argwhere(~np.isfinite(matrix))[0][0])
        raise _non_finite(language, ids[bad])


@dataclass(eq=False)
class StoredEmbeddingSet:
    """One language's sentence ids, whose vectors are rows of the store
    ``path`` from byte ``offset`` on. :attr:`matrix` reads and checks them
    at each use, so the set itself holds no vector."""

    # embeddings.json, the index of their store (see check_document)
    index = {"dim": int, "languages": list[{"lang": str, "ids": list[int]}]}

    language: str
    dim: int
    ids: tuple[int, ...]
    path: Path
    offset: int

    def __post_init__(self):
        self.ids = tuple(int(i) for i in self.ids)
        _check_unique(self.language, self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def matrix(self) -> np.ndarray:
        """The float32 rows, shape (len(ids), dim), read from the file."""
        rows = _read_rows(self.path, self.offset, (len(self.ids), self.dim),
                          "embedding")
        _check_finite(self.language, self.ids, rows)
        return rows


@dataclass(eq=False)
class LanguageRepresentation:
    """One language's centroid vector and how many sentences went into it."""

    # representations.json, the index of their store (see check_document)
    index = {"dim": int, "languages": list[{"lang": str, "sample_count": int}]}

    language: str
    vector: np.ndarray  # float32, shape (dim,)
    sample_count: int

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float32)
        if self.vector.ndim != 1:
            raise ValidationError("representation vector must be 1-D")
        if self.sample_count < 1:
            raise ValidationError("sample_count must be >= 1")
        if not np.isfinite(self.vector).all():
            raise ValidationError(
                f"non-finite component in representation for {self.language!r}")

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])


def _float32(values) -> np.ndarray:
    """JSON numbers in (nested) lists as a float32 array; a number beyond
    float32's range becomes inf.

    Raises TypeError or ValueError for anything that is not numbers, a
    string among them too, though numpy would parse it, and OverflowError
    for an integer beyond float's range. The type numpy infers tells
    strings apart without a loop over the values: floats, with any ints or
    bools among them, infer float64, which is cast once; any other values
    are converted as numpy converts them to float32 directly, which gives
    the same bits.
    """
    try:
        inferred = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        inferred = None  # the conversion below raises the error
    with np.errstate(over="ignore"):  # beyond float32: inf
        if inferred is not None:
            if inferred.dtype == np.float64:
                return inferred.astype(np.float32)
            if inferred.dtype.kind in "SU" or (
                    inferred.dtype.kind == "O"
                    and any(isinstance(v, str) for v in inferred.flat)):
                raise TypeError("a vector component is a string")
        return np.asarray(values, dtype=np.float32)


def _vector(where: str, lang, sid, vec, dim: int) -> np.ndarray:
    """One record's ``vec`` as float32, or the :class:`ValidationError` of a
    ``vec`` that is not ``dim`` finite numbers. A number beyond float32's
    range, an integer beyond float's among them, is not finite."""
    try:
        arr = _float32(vec)
    except OverflowError:  # an integer beyond float's range
        arr = np.full(dim, np.inf, np.float32)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (dim,):
        raise ValidationError(
            f"{where}: vector for lang={lang} id={sid} must be a "
            f"list of {dim} numbers, as the header says")
    if not np.isfinite(arr).all():
        raise ValidationError(
            f"{where}: non-finite value in vector for lang={lang} id={sid}")
    return arr


class _JsonlRecords:
    """The records of a JSON Lines embedding file, whose vectors are
    converted to float32 and checked a chunk of lines at a time; the drawn
    ones are then written to their rows, and of the others only the id is
    kept, for the check of repeated ids.

    A chunk's vectors are converted in one call. Only when that call fails,
    or gives a value that is not finite, are they converted one by one, to
    raise the error of the first bad one. An error on a later line first
    converts the pending chunk, so the error raised is always that of the
    first bad line in file order.
    """

    header = {"v": Literal[1], "dim": Annotated[int, ">= 1"]}

    def __init__(self, path: Path, shards: list[CorpusShard],
                 writer: StoreWriter):
        self.path, self.shards, self.writer = path, shards, writer
        self.dim: int | None = None  # from the header line
        self.firsts = list(accumulate(map(len, shards), initial=0))
        # each shard's drawn ids not read yet, with their rows; by language
        self.unread = [{sid: row + k for k, (sid, _) in enumerate(s.sentences)}
                       for s, row in zip(shards, self.firsts)]
        self.rows: dict[str, list[dict[int, int]]] = {}
        for shard, unread in zip(shards, self.unread):
            self.rows.setdefault(shard.language, []).append(unread)
        # each language's ids in file order; a list once one is beyond int64
        self.ids: dict[str, array | list[int]] = {}
        self._pending: list[tuple] = []  # (line number, lang, id, vec)
        self._targets: list[tuple[int, int]] = []  # (pending index, row)

    def add(self, lineno: int, lang: str, sid: int, vec) -> None:
        ids = self.ids.setdefault(lang, array("q"))
        try:
            ids.append(sid)
        except OverflowError:
            self.ids[lang] = [*ids, sid]
        for rows in self.rows.get(lang, ()):
            if (row := rows.pop(sid, None)) is not None:
                self._targets.append((len(self._pending), row))
        self._pending.append((lineno, lang, sid, vec))
        if len(self._pending) * self.dim >= _CHUNK_VALUES:
            self._convert()

    def _convert(self) -> None:
        if not self._pending:
            return
        try:
            block = _float32([vec for *_, vec in self._pending])
        except (TypeError, ValueError, OverflowError):
            block = None
        if (block is None or block.shape != (len(self._pending), self.dim)
                or not np.isfinite(block).all()):
            block = np.vstack([
                _vector(f"{self.path}: line {lineno}", lang, sid, vec, self.dim)
                for lineno, lang, sid, vec in self._pending])
        start = 0  # a run of records bound for consecutive rows: one write
        for end, (k, row) in enumerate(self._targets, start=1):
            if self._targets[end:end + 1] != [(k + 1, row + 1)]:
                first, at = self._targets[start]
                self.writer.write(at, block[first:k + 1])
                start = end
        self._pending.clear()
        self._targets.clear()

    def error(self, lineno: int, what: str) -> ValidationError:
        """The error of bad line ``lineno``; raises a pending earlier line's
        vector error instead, if there is one."""
        self._convert()
        return ValidationError(f"{self.path}: line {lineno}: {what}")

    def finish(self) -> list[StoredEmbeddingSet]:
        """Each shard's set, if no id repeats and the file has the shards'."""
        self._convert()
        for lang, ids in self.ids.items():
            _check_unique(lang, ids)
        for shard, unread in zip(self.shards, self.unread):
            if shard.language not in self.ids:
                raise ValidationError(f"{self.path} has no vectors for "
                                      f"language {shard.language!r}")
            if unread:
                raise ValidationError(
                    f"{self.path} lacks vectors for {shard.language!r} "
                    f"sentence ids {list(unread)}")
        return [self.writer.stored(s.language, self.dim,
                                   tuple(sid for sid, _ in s.sentences), row)
                for s, row in zip(self.shards, self.firsts)]


def load_embeddings(path: str | Path,
                    shards: Iterable[CorpusShard] | None = None, *,
                    writer: StoreWriter | None = None
                    ) -> list[StoredEmbeddingSet]:
    """Read a ``.npy`` store, or the vectors of ``shards``' sentences from
    a JSON Lines file into the store that ``writer`` is writing.

    A ``.npy`` path is a store finished by :func:`write_embeddings`, its
    index declared by :attr:`StoredEmbeddingSet.index`; each language is a
    :class:`StoredEmbeddingSet` that reads its rows when its ``matrix`` is
    used, so a caller that takes one at a time holds one language's rows.

    Any other path is JSON Lines: a header ``{"v": 1, "dim": D}``, declared
    by :attr:`_JsonlRecords.header`, then one ``{"lang": code, "id":
    int, "vec": [numbers]}`` a line, checked a chunk at a time. The first bad
    line raises :class:`ValidationError` naming the file and the line. Each
    drawn vector is written at its row: the shards' rows in turn, each in
    sentence order, as :func:`fetch_embeddings` writes them. Then a
    language that repeats an id, or the first shard whose language or
    sentence the file lacks, raises. Returns one set per shard, readable
    once :func:`write_embeddings` has finished the store.
    """
    path = Path(path)
    if (path.suffix == ".npy") != (writer is None):
        raise TypeError("a JSON Lines file, and not a store, needs a writer")
    if path.suffix == ".npy":
        return _load_store(path)
    if not path.exists():
        raise ValidationError(f"embedding file not found: {path}")
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    records = _JsonlRecords(path, list(shards), writer)
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise records.error(lineno, "invalid UTF-8") from None
            if not line and lineno > 1:
                continue
            try:
                rec = json.loads(line) if line else None
            except json.JSONDecodeError as exc:
                raise records.error(lineno, exc.msg) from exc
            if lineno == 1:
                check_document(rec, records.header, f"{path}: line 1")
                records.dim = rec["dim"]
                continue
            if not (isinstance(rec, dict) and _RECORD_KEYS <= rec.keys()):
                raise records.error(lineno, "record needs lang, id, vec")
            lang, sid = rec["lang"], rec["id"]
            if type(lang) is not str or type(sid) is not int:
                raise records.error(
                    lineno, f"lang must be a string and id an integer, got "
                    f"{json.dumps(lang)} and {json.dumps(sid)}")
            records.add(lineno, lang, sid, rec["vec"])
    if records.dim is None:
        raise ValidationError(f"{path}: empty embedding file (no header)")
    return records.finish()


def _one_dim(items: Sequence) -> int:
    """The ``dim`` that every item shares, 0 for no items."""
    dims = {x.dim for x in items}
    if len(dims) > 1:
        raise ValidationError(f"cannot mix dimensions in one file: {sorted(dims)}")
    return dims.pop() if dims else 0


def _pwrite(fd: int, data: memoryview, at: int) -> None:
    while data:
        done = os.pwrite(fd, data, at)
        data, at = data[done:], at + done


class StoreWriter:
    """A store being written: its ``.npy`` matrix goes to a temporary file
    beside ``path``, which :meth:`finish` moves into place.

    :meth:`write` puts rows where the finished matrix has them, in any order
    and from several threads at once, so a producer need not hold them.
    :meth:`finish` adds the ``.npy`` 1.0 header, moves the file over
    ``path`` and then writes the ``.json`` index. Leaving a ``with`` block
    before that, or :meth:`discard`, removes the temporary file, and
    ``path`` keeps its previous bytes. ``path`` must end in ``.npy``, as
    :func:`load_embeddings` knows a store by that suffix.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if self.path.suffix != ".npy":
            raise ValidationError(
                f"a store's path must end in .npy, got {self.path}")
        self._tmp, self._fd = temporary_beside(self.path)

    def write(self, row: int, block: np.ndarray) -> None:
        """Put the rows of the 2-D ``block`` at rows ``row`` onwards."""
        block = np.ascontiguousarray(block, dtype=_STORE_DTYPE)
        if block.size:
            _pwrite(self._fd, memoryview(block).cast("B"),
                    _HEADER_BYTES + row * block[0].nbytes)

    def stored(self, language: str, dim: int, ids: tuple[int, ...],
               row: int) -> StoredEmbeddingSet:
        """The set of ``ids`` whose rows are put at rows ``row`` onwards,
        to be read once :meth:`finish` has moved the store into place."""
        return StoredEmbeddingSet(
            language=language, dim=dim, ids=ids, path=self.path,
            offset=_HEADER_BYTES + row * dim * _STORE_DTYPE.itemsize)

    def finish(self, shape: tuple[int, int], index: dict) -> None:
        """Complete the store as a ``shape`` matrix whose every row has been
        written, with ``index`` beside it."""
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": _STORE_DTYPE.str, "fortran_order": False, "shape": shape})
        if len(header.getvalue()) != _HEADER_BYTES:  # rows were placed after it
            raise RuntimeError(f"numpy wrote a .npy header of "
                               f"{len(header.getvalue())} bytes for {shape}")
        with self:
            _pwrite(self._fd, header.getbuffer(), 0)
            os.close(self._fd)
            self._fd = None
            os.replace(self._tmp, self.path)
            self._tmp = None
        write_json(self.path.with_suffix(".json"), index)

    def discard(self) -> None:
        """Remove the temporary file, unless :meth:`finish` moved it."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._tmp is not None:
            self._tmp.unlink(missing_ok=True)
            self._tmp = None

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.discard()
        return False


def _read_store(path: Path, noun: str, index_of: type, rows_of
                ) -> tuple[dict, int]:
    """The index of a :class:`StoreWriter` store, declared by
    ``index_of.index``, and the offset of its first row, which lists
    ``rows_of(index["languages"])`` rows: a missing file, a bad index, or
    a file that is not that ``<f4`` C-order matrix raises
    :class:`ValidationError` naming the file and the store (``noun``)."""
    index_path = path.with_suffix(".json")
    if not index_path.exists():
        raise ValidationError(f"{noun} index not found: {index_path}")
    index = load_json(index_path, index_of.index)
    dim, rows = index["dim"], rows_of(index["languages"])
    try:
        with path.open("rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a .npy file of version 1.0")
            shape, fortran_order, dtype = \
                np.lib.format.read_array_header_1_0(fh)
            offset = fh.tell()
            size = os.fstat(fh.fileno()).st_size
    except FileNotFoundError:
        raise ValidationError(f"{noun} store not found: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: unreadable {noun} store: {exc}") from None
    need = offset + math.prod(shape) * dtype.itemsize
    if size != need:
        raise ValidationError(
            f"{path}: unreadable {noun} store: it has {size} bytes, but its "
            f"header describes {need}")
    if dtype != _STORE_DTYPE or shape != (rows, dim) or fortran_order:
        raise ValidationError(
            f"{path}: holds a {dtype.str} matrix of shape {shape}, but "
            f"{index_path.name} lists {rows} rows of {dim} "
            f"{_STORE_DTYPE.str} values")
    return index, offset


def _read_rows(path: Path, offset: int, shape: tuple[int, int],
               noun: str) -> np.ndarray:
    """A new float32 array of ``shape`` read from the store ``path`` at
    byte ``offset``; ``noun`` names the store in the error of a file that
    ends or fails before the rows do."""
    rows = np.empty(shape, _STORE_DTYPE)
    if not rows.size:
        return rows
    try:
        with path.open("rb") as fh:
            fh.seek(offset)
            got = fh.readinto(memoryview(rows).cast("B"))
    except OSError as exc:
        raise ValidationError(f"{path}: unreadable {noun} store: {exc}") from None
    if got != rows.nbytes:
        raise ValidationError(
            f"{path}: unreadable {noun} store: it ends inside its rows")
    return rows


def _load_store(path: Path) -> list[StoredEmbeddingSet]:
    index, offset = _read_store(
        path, "embedding", StoredEmbeddingSet,
        lambda languages: sum(len(e["ids"]) for e in languages))
    dim, entries = index["dim"], index["languages"]
    offsets = accumulate((len(e["ids"]) * dim * _STORE_DTYPE.itemsize
                          for e in entries), initial=offset)
    return [StoredEmbeddingSet(e["lang"], dim, e["ids"], path, start)
            for e, start in zip(entries, offsets)]


def write_embeddings(sets: Iterable[StoredEmbeddingSet], path: str | Path,
                     extra_header: dict | None = None, *,
                     writer: StoreWriter) -> None:
    """Finish the store ``path``, whose rows :func:`fetch_embeddings` or a
    caller put into ``writer``, as the store :func:`load_embeddings` reads.

    ``path`` becomes one C-order little-endian float32 matrix with every
    set's rows in turn, and beside it ``path`` with suffix ``.json`` is the
    index ``{"v": 1, "dim": D, "languages": [{"lang": code, "ids": [...]}]}``,
    which also carries ``extra_header``.
    """
    sets = list(sets)
    path = Path(path)
    if writer.path != path:
        raise ValueError(f"the rows were written for {writer.path}, not {path}")
    index = {"v": 1, "dim": _one_dim(sets), **(extra_header or {}),
             "languages": [{"lang": s.language, "ids": list(s.ids)}
                           for s in sets]}
    writer.finish((sum(len(s) for s in sets), index["dim"]), index)


@dataclass
class FetchStats:
    """What :func:`fetch_embeddings` asked of the service: every HTTP request
    made, and how many of them repeated a failed one."""

    requests: int = 0
    retries: int = 0


class _Connection:
    """One keep-alive connection to the service, used by one thread.

    Connection errors, 5xx and 429 answers are retried up to ``retries``
    times, waiting ``retry_wait * n`` seconds before the n-th retry; any other
    non-200 answer, or a body that is not a JSON object, is a
    :class:`ServiceError` at once.
    """

    def __init__(self, base: str, *, retries: int, timeout: float,
                 auth_token: str | None, retry_wait: float):
        import http.client  # only the HTTP source pays for this import
        url = urlsplit(base)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(
                f"embedding endpoint must be an http(s) URL, got {base!r}")
        factory = (http.client.HTTPSConnection if url.scheme == "https"
                   else http.client.HTTPConnection)
        self._conn = factory(url.hostname, url.port, timeout=timeout)
        self._errors = (OSError, http.client.HTTPException)
        self.base = base
        self._prefix = url.path
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        self._retries = retries
        self._retry_wait = retry_wait
        self.stats = FetchStats()

    def call(self, method: str, route: str, payload: dict | None = None) -> dict:
        url = self.base + route
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        last: object = None
        for attempt in range(self._retries + 1):
            if attempt:
                self.stats.retries += 1
                time.sleep(self._retry_wait * attempt)
            self.stats.requests += 1
            try:
                self._conn.request(method, self._prefix + route, body=body,
                                   headers=self._headers)
                resp = self._conn.getresponse()
                data = resp.read()
            except self._errors as exc:
                self._conn.close()
                last = exc
                continue
            if resp.status >= 500 or resp.status == 429:
                last = f"{url} answered {resp.status}"
                continue
            if resp.status != 200:
                raise ServiceError(f"{url} answered {resp.status}")
            try:
                doc = json.loads(data)
            except ValueError as exc:
                raise ServiceError(f"{url}: response is not JSON") from exc
            if not isinstance(doc, dict):
                raise ServiceError(f"{url}: response is not a JSON object")
            return doc
        raise ServiceError(
            f"{url}: giving up after {self._retries + 1} attempts: {last}")

    def close(self) -> None:
        self._conn.close()


def _embed_batch(conn: _Connection, chunk: Sequence[tuple[int, str]],
                 dim: int) -> tuple[list[int], np.ndarray, list[int]]:
    """POST one batch of ``(id, text)`` pairs; return the ids that got a
    vector, their float32 rows, and the ids that got none."""
    where = f"{conn.base}/embed"
    reply = conn.call("POST", "/embed", {"texts": [text for _, text in chunk]})
    vectors = reply.get("vectors")
    if not isinstance(vectors, list):
        raise ServiceError(f"{where}: response lacks a 'vectors' list")
    if len(vectors) > len(chunk):
        raise ServiceError(
            f"{where}: got {len(vectors)} vectors for {len(chunk)} texts")
    ids, rows, missing = [], [], []
    for offset, (sid, _) in enumerate(chunk):
        vec = vectors[offset] if offset < len(vectors) else None
        if vec is None:
            missing.append(sid)
            continue
        if not isinstance(vec, list) or len(vec) != dim:
            size = len(vec) if isinstance(vec, list) else "none"
            raise ServiceError(
                f"{where}: vector for id={sid} has dimension {size}, "
                f"/info declared {dim}")
        ids.append(sid)
        rows.append(vec)
    if not rows:
        return ids, np.zeros((0, dim), np.float32), missing
    try:
        matrix = _float32(rows)  # beyond float32: inf, refused later
    except OverflowError:  # an integer beyond float's range
        raise ServiceError(
            f"{where}: a vector holds a number beyond float range") from None
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{where}: vectors are not lists of numbers: {exc}")
    if matrix.shape != (len(rows), dim):  # nested lists
        raise ServiceError(f"{where}: vectors are not lists of numbers: they "
                           f"make an array of shape {matrix.shape}")
    return ids, matrix, missing


class _FailureRecord:
    """The failed batches of one fetch by number, and one past the highest
    batch number sent, behind one lock: a batch is sent only while no
    failure is recorded."""

    def __init__(self):
        self.lock = threading.Lock()
        self.failures: dict[int, Exception] = {}
        self.taken = 0


def fetch_embeddings(endpoint: str, shards: Iterable[CorpusShard], batch: int,
                     *, writer: StoreWriter, retries: int = 3,
                     timeout: float = 30.0, auth_token: str | None = None,
                     retry_wait: float = 0.2, stats: FetchStats | None = None
                     ) -> list[StoredEmbeddingSet]:
    """Embed every shard's sentences via the HTTP service at ``endpoint``
    into the store that ``writer`` is writing.

    Protocol: ``GET /info`` declares the dimension; ``POST /embed`` with
    ``{"texts": [...]}`` answers ``{"vectors": [[...], ...]}`` positionally.
    ``/info`` is asked once. Each shard's sentences go in batches of at most
    ``batch``, and the batches of all shards are sent by a standard
    ``ThreadPoolExecutor`` of :data:`FETCH_WORKERS` threads. Each thread
    owns one connection from its start; the first takes the one ``/info``
    was asked on. Transient failures (connection errors, 5xx, 429) are
    retried up to ``retries`` times per request.

    ``shards`` may be any iterable; it is driven on the calling thread, and
    a shard's batches are submitted as soon as it is drawn, so a generator
    that reads and samples the shards runs while earlier batches are at the
    service. The iterable is always consumed to its end. The first failure
    (the ``/info`` request, a batch that is not retried or whose retries
    ran out) stops new requests; once the iterable is consumed, the batches
    still queued are dropped, and when the requests in flight have
    returned, the earliest failed batch's exception is raised. An exception
    raised by the iterable itself drops the queued batches, waits for those
    in flight and is raised as it is, before any failure of the fetch.

    Returns one :class:`StoredEmbeddingSet` per shard, in shard order, with
    rows in the shard's sentence order, readable once
    :func:`write_embeddings` has finished the store. The thread that parses
    a reply writes its rows at once into the writer's temporary file, where
    the finished store has them, and keeps of it only the ids that got no
    vector and the first id whose vector is not finite; so no vector stays
    in memory, and the store does not depend on the order replies arrive
    in. A response with fewer vectors than texts, or null entries, leaves
    those sentences without vectors. After all batches complete, the
    shards are checked in order: the first that has sentences without
    vectors raises :class:`PartialEmbeddingError`, or
    :class:`ValidationError` if it repeats an id or has a non-finite
    vector. Request and retry counts are added to ``stats`` if given.
    """
    # only the HTTP source pays for this import and the logging it loads
    from concurrent.futures import ThreadPoolExecutor
    shards = iter(shards)
    base = endpoint.rstrip("/")
    conns: list[_Connection] = []
    idle: list[_Connection] = []  # made, and owned by no thread yet
    local = threading.local()

    def own_connection() -> None:  # each worker thread's initializer
        try:
            local.conn = idle.pop()
        except IndexError:
            local.conn = _Connection(base, retries=retries, timeout=timeout,
                                     auth_token=auth_token,
                                     retry_wait=retry_wait)
            conns.append(local.conn)

    drawn: list[tuple[str, tuple[int, ...]]] = []  # each shard's language, ids
    firsts = [0]  # each shard's first row in the store, then the end
    owners: list[int] = []  # each batch's shard
    record = _FailureRecord()

    def fetch_batch(j: int, row: int, chunk
                    ) -> tuple[list[int], int | None] | None:
        with record.lock:
            if record.failures:
                return None
            record.taken = max(record.taken, j + 1)
        try:
            ids, rows, missing = _embed_batch(local.conn, chunk, dim)
            if not missing:  # else nothing is kept: the shard fails
                writer.write(row, rows)
        except Exception as exc:  # raised by the calling thread
            with record.lock:
                record.failures[j] = exc
            raise
        finite = np.isfinite(rows).all(axis=1)
        bad = None if finite.all() else min(
            sid for sid, ok in zip(ids, finite) if not ok)
        return missing, bad

    try:
        try:
            if batch < 1:
                raise ValidationError(f"batch size must be >= 1, got {batch}")
            own_connection()
            info = local.conn.call("GET", "/info")
            if type(info.get("dim")) is not int or info["dim"] < 1:
                raise ServiceError(
                    f"{base}/info did not declare a positive 'dim'")
        except SprachbundError:
            for _ in shards:  # consumed all the same
                pass
            raise
        dim = info["dim"]
        idle.append(local.conn)
        pool = ThreadPoolExecutor(FETCH_WORKERS, initializer=own_connection)
        futures = []
        try:
            for shard in shards:
                for start in range(0, len(shard), batch):
                    owners.append(len(drawn))
                    futures.append(pool.submit(
                        fetch_batch, len(futures), firsts[-1] + start,
                        shard.sentences[start:start + batch]))
                drawn.append((shard.language,
                              tuple(sid for sid, _ in shard.sentences)))
                firsts.append(firsts[-1] + len(shard))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        pool.shutdown(cancel_futures=bool(record.failures))
        if record.failures:
            raise record.failures[min(record.failures)]
        outcomes = [future.result() for future in futures]
    finally:
        for conn in conns:
            conn.close()
            if stats is not None:
                stats.requests += conn.stats.requests
                stats.retries += conn.stats.retries

    parts: list[list] = [[] for _ in drawn]
    for k, outcome in zip(owners, outcomes):
        parts[k].append(outcome)
    sets = []
    for k, (language, ids) in enumerate(drawn):
        missing = [sid for gone, _ in parts[k] for sid in gone]
        if missing:
            raise PartialEmbeddingError(language, missing)
        sets.append(writer.stored(language, dim, ids, firsts[k]))
        bad = [sid for _, sid in parts[k] if sid is not None]
        if bad:
            raise _non_finite(language, min(bad))
    return sets


def _compensated_mean(matrix: np.ndarray) -> np.ndarray:
    """Mean over axis 0: float64 block sums combined with Kahan compensation."""
    n, dim = matrix.shape
    total = np.zeros(dim, dtype=np.float64)
    comp = np.zeros(dim, dtype=np.float64)
    for start in range(0, n, _SUM_BLOCK):
        block = matrix[start:start + _SUM_BLOCK].sum(axis=0, dtype=np.float64)
        y = block - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / n


def centroid(emb_set: StoredEmbeddingSet) -> LanguageRepresentation:
    """Componentwise mean of a language's sentence vectors; the set's rows
    are read once, and dropped with the mean."""
    if len(emb_set) == 0:
        raise ValidationError(
            f"cannot take the centroid of an empty set for {emb_set.language!r}")
    mean = _compensated_mean(emb_set.matrix)
    return LanguageRepresentation(
        language=emb_set.language,
        vector=mean.astype(np.float32),
        sample_count=len(emb_set),
    )


def centroid_all(sets: Sequence[StoredEmbeddingSet]
                 ) -> list[LanguageRepresentation]:
    """Centroid per language, preserving input order. The sets are taken one
    at a time, so at most one language's rows are held at once."""
    seen: set[str] = set()
    dims = {s.dim for s in sets}
    if len(dims) > 1:
        raise ValidationError(
            f"embedding sets disagree on dimension: {sorted(dims)}")
    out = []
    for s in sets:
        if s.language in seen:
            raise ValidationError(f"duplicate language {s.language!r}")
        seen.add(s.language)
        out.append(centroid(s))
    return out


def write_representations(reps: Sequence[LanguageRepresentation],
                          path: str | Path,
                          extra_header: dict | None = None) -> None:
    """Write centroids as a store :func:`load_representations` reads.

    ``path`` (ending in ``.npy``) is one C-order little-endian float32
    matrix, one row per language, and ``path`` with suffix ``.json`` is the
    index ``{"v": 1, "dim": D, "languages": [{"lang", "sample_count"}]}``
    in row order, which also carries ``extra_header``.
    """
    index = {"v": 1, "dim": _one_dim(reps), **(extra_header or {}),
             "languages": [{"lang": r.language, "sample_count": r.sample_count}
                           for r in reps]}
    with StoreWriter(path) as writer:
        for row, rep in enumerate(reps):
            writer.write(row, rep.vector[None])
        writer.finish((len(reps), index["dim"]), index)


def load_representations(path: str | Path) -> list[LanguageRepresentation]:
    """Centroids from a :func:`write_representations` store, its index
    declared by :attr:`LanguageRepresentation.index`; rows read whole."""
    path = Path(path)
    index, offset = _read_store(path, "representation",
                                LanguageRepresentation, len)
    entries = index["languages"]
    matrix = _read_rows(path, offset, (len(entries), index["dim"]),
                        "representation")
    with naming(path):
        return [LanguageRepresentation(e["lang"], row, e["sample_count"])
                for e, row in zip(entries, matrix)]
