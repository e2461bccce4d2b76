"""Sentence embeddings and per-language centroid representations.

Embeddings arrive either from a JSON Lines file or from an HTTP service that
embeds batches of sentences. They are kept in a binary store: one
little-endian float32 ``.npy`` matrix holding every language's rows in turn,
plus a small JSON index of languages and sentence ids. Each language is then
reduced to the mean of its sentence vectors. Vectors are held in float32;
sums are accumulated in float64 with compensated (Kahan) combination of
block partial sums, so a 10k x 768 average does not drift.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlsplit

import numpy as np

from .corpus import CorpusShard
from .errors import PartialEmbeddingError, ServiceError, ValidationError
from .registry import artifact_keys, load_json, write_json

_SUM_BLOCK = 256
# threads that send (language, batch) requests to the embedding service at
# once; each owns one connection
FETCH_WORKERS = 8
_STORE_DTYPE = np.dtype("<f4")


@dataclass(eq=False)
class SentenceEmbeddingSet:
    """Fixed-dimension vectors for one language's sentences."""

    language: str
    dim: int
    ids: tuple[int, ...]
    matrix: np.ndarray  # float32, shape (len(ids), dim)

    def __post_init__(self):
        self.ids = tuple(int(i) for i in self.ids)
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2 or self.matrix.shape != (len(self.ids), self.dim):
            raise ValidationError(
                f"embedding matrix for {self.language!r} must be "
                f"{len(self.ids)} x {self.dim}, got {self.matrix.shape}")
        if self.dim < 1:
            raise ValidationError("embedding dimension must be positive")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError(
                f"duplicate sentence ids in embedding set for {self.language!r}")
        if self.matrix.size and not np.isfinite(self.matrix).all():
            bad = int(np.argwhere(~np.isfinite(self.matrix))[0][0])
            raise ValidationError(
                f"non-finite component in vector for lang={self.language} "
                f"id={self.ids[bad]}")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(eq=False)
class LanguageRepresentation:
    """One language's centroid vector and how many sentences went into it."""

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


def load_embeddings(path: str | Path) -> list[SentenceEmbeddingSet]:
    """Read embeddings from a ``.npy`` store or a JSON Lines file.

    A path ending in ``.npy`` is a store written by :func:`write_embeddings`;
    its matrix is memory-mapped, and each set's matrix is a row slice of it.
    Any other path is JSON Lines: the first line is a header
    ``{"v": 1, "dim": D}`` and every other line is
    ``{"lang": code, "id": int, "vec": [floats]}``. Records are grouped by
    language in order of first appearance.
    """
    path = Path(path)
    if path.suffix == ".npy":
        return _load_store(path)
    if not path.exists():
        raise ValidationError(f"embedding file not found: {path}")
    grouped: dict[str, tuple[list[int], list[list[float]]]] = {}
    dim: int | None = None
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValidationError(f"{where}: invalid UTF-8") from None
            if not line and lineno > 1:
                continue
            try:
                rec = json.loads(line) if line else None
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: {exc.msg}") from exc
            if lineno == 1:
                header = rec if isinstance(rec, dict) else {}
                dim = header.get("dim")
                if header.get("v") != 1 or type(dim) is not int or dim < 1:
                    raise ValidationError(
                        f"{where}: expected the header {{\"v\": 1, "
                        f"\"dim\": D}} with D a positive integer")
                continue
            if not (isinstance(rec, dict) and {"lang", "id", "vec"} <= rec.keys()):
                raise ValidationError(f"{where}: record needs lang, id, vec")
            lang, sid, vec = rec["lang"], rec["id"], rec["vec"]
            if type(lang) is not str or type(sid) is not int:
                raise ValidationError(
                    f"{where}: lang must be a string and id an integer, "
                    f"got {json.dumps(lang)} and {json.dumps(sid)}")
            try:
                arr = np.asarray(vec, dtype=np.float32)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != (dim,):
                raise ValidationError(
                    f"{where}: vector for lang={lang} id={sid} must be a "
                    f"list of {dim} numbers, as the header says")
            if not np.isfinite(arr).all():
                raise ValidationError(
                    f"{where}: non-finite value in vector for "
                    f"lang={lang} id={sid}")
            ids, vecs = grouped.setdefault(lang, ([], []))
            ids.append(sid)
            vecs.append(arr)
    if dim is None:
        raise ValidationError(f"{path}: empty embedding file (no header)")
    return [
        SentenceEmbeddingSet(
            language=lang, dim=dim, ids=tuple(ids),
            matrix=np.vstack(vecs) if vecs else np.zeros((0, dim), np.float32))
        for lang, (ids, vecs) in grouped.items()
    ]


def _load_store(path: Path) -> list[SentenceEmbeddingSet]:
    index_path = path.with_suffix(".json")
    if not index_path.exists():
        raise ValidationError(f"embedding index not found: {index_path}")
    index = load_json(index_path)
    with artifact_keys(index_path):
        dim = int(index["dim"])
        entries = [(e["lang"], tuple(int(i) for i in e["ids"]))
                   for e in index["languages"]]
    try:
        matrix = np.load(path, mmap_mode="r")
    except FileNotFoundError:
        raise ValidationError(f"embedding store not found: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise ValidationError(f"{path}: unreadable embedding store: {exc}") from None
    rows = sum(len(ids) for _, ids in entries)
    if (matrix.dtype != _STORE_DTYPE or matrix.shape != (rows, dim)
            or not matrix.flags.c_contiguous):
        raise ValidationError(
            f"{path}: holds a {matrix.dtype.str} matrix of shape "
            f"{matrix.shape}, but {index_path.name} lists {rows} rows of "
            f"{dim} {_STORE_DTYPE.str} values")
    sets, start = [], 0
    for lang, ids in entries:
        sets.append(SentenceEmbeddingSet(language=lang, dim=dim, ids=ids,
                                         matrix=matrix[start:start + len(ids)]))
        start += len(ids)
    return sets


def write_embeddings(sets: Iterable[SentenceEmbeddingSet], path: str | Path,
                     extra_header: dict | None = None) -> None:
    """Write sets in a format :func:`load_embeddings` reads, chosen by suffix.

    A path ending in ``.npy`` gets a store: ``path`` is one C-order
    little-endian float32 matrix with every set's rows in turn, and beside it
    ``path`` with suffix ``.json`` is the index
    ``{"v": 1, "dim": D, "languages": [{"lang": code, "ids": [...]}]}``,
    which also carries ``extra_header``. Any other path gets JSON Lines, with
    ``extra_header`` in its header line.
    """
    sets = list(sets)
    dims = {s.dim for s in sets}
    if len(dims) > 1:
        raise ValidationError(f"cannot mix dimensions in one file: {sorted(dims)}")
    header = {"v": 1, "dim": dims.pop() if dims else 0}
    if extra_header:
        header.update(extra_header)
    path = Path(path)
    if path.suffix == ".npy":
        shape = (sum(len(s) for s in sets), header["dim"])
        with path.open("wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": _STORE_DTYPE.str, "fortran_order": False,
                "shape": shape})
            for s in sets:
                fh.write(np.ascontiguousarray(s.matrix, dtype=_STORE_DTYPE).data)
        header["languages"] = [
            {"lang": s.language, "ids": list(s.ids)} for s in sets]
        write_json(path.with_suffix(".json"), header)
        return
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in sets:
            for sid, row in zip(s.ids, s.matrix):
                fh.write(json.dumps(
                    {"lang": s.language, "id": sid,
                     "vec": [float(x) for x in row]}, sort_keys=True) + "\n")


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
    try:
        matrix = np.asarray(rows, dtype=np.float32).reshape(-1, dim)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{where}: vectors are not lists of numbers: {exc}")
    return ids, matrix, missing


def _pooled(conns: Sequence[_Connection], items: Sequence, task) -> list:
    """``task(conn, item)`` for every item, on one thread per connection.

    Results are placed by the item's position. The first exception stops
    new tasks; once the running ones return, the exception of the earliest
    failed item is raised here, in the calling thread.
    """
    results: list = [None] * len(items)
    failures: dict[int, Exception] = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work(conn: _Connection) -> None:
        while True:
            with lock:
                j = None if failures else next(pending, None)
            if j is None:
                return
            try:
                results[j] = task(conn, items[j])
            except Exception as exc:  # kept, and raised by the calling thread
                with lock:
                    failures[j] = exc
                return

    threads = [threading.Thread(target=work, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def fetch_embeddings(endpoint: str, shards: Sequence[CorpusShard], batch: int, *,
                     retries: int = 3, timeout: float = 30.0,
                     auth_token: str | None = None, retry_wait: float = 0.2,
                     stats: FetchStats | None = None
                     ) -> list[SentenceEmbeddingSet]:
    """Embed every shard's sentences via the HTTP service at ``endpoint``.

    Protocol: ``GET /info`` declares the dimension; ``POST /embed`` with
    ``{"texts": [...]}`` answers ``{"vectors": [[...], ...]}`` positionally.
    ``/info`` is asked once. Each shard's sentences go in batches of at most
    ``batch``, and the batches of all shards are sent by a pool of
    :data:`FETCH_WORKERS` threads, each with its own connection. Transient
    failures (connection errors, 5xx, 429) are retried up to ``retries``
    times per request. The first other failure stops new requests and is
    raised once the requests in flight have returned.

    Returns one set per shard, in shard order, with rows sorted by sentence
    id; replies are placed by position, so the result does not depend on
    the order they arrive in. A response with fewer vectors than texts, or
    null entries, leaves those sentences without vectors; after all batches
    complete, :class:`PartialEmbeddingError` is raised for the first shard
    that has any. Request and retry counts are added to ``stats`` if given.
    """
    if batch < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch}")
    base = endpoint.rstrip("/")

    def connect() -> _Connection:
        return _Connection(base, retries=retries, timeout=timeout,
                           auth_token=auth_token, retry_wait=retry_wait)

    conns = [connect()]
    try:
        info = conns[0].call("GET", "/info")
        if not isinstance(info.get("dim"), int) or info["dim"] < 1:
            raise ServiceError(f"{base}/info did not declare a positive 'dim'")
        dim = info["dim"]
        owners = []
        chunks = []
        for k, shard in enumerate(shards):
            for start in range(0, len(shard.sentences), batch):
                owners.append(k)
                chunks.append(shard.sentences[start:start + batch])
        conns += [connect() for _ in range(min(FETCH_WORKERS, len(chunks)) - 1)]
        replies = _pooled(conns[:len(chunks)], chunks,
                          lambda conn, chunk: _embed_batch(conn, chunk, dim))
    finally:
        for conn in conns:
            conn.close()
            if stats is not None:
                stats.requests += conn.stats.requests
                stats.retries += conn.stats.retries

    parts: list[list] = [[] for _ in shards]
    for k, reply in zip(owners, replies):
        parts[k].append(reply)
    sets = []
    for shard, answers in zip(shards, parts):
        missing = [sid for _, _, gone in answers for sid in gone]
        if missing:
            raise PartialEmbeddingError(shard.language, missing)
        ids = [sid for got, _, _ in answers for sid in got]
        order = np.argsort(ids, kind="stable")
        matrix = (np.vstack([rows for _, rows, _ in answers])[order] if ids
                  else np.zeros((0, dim), np.float32))
        sets.append(SentenceEmbeddingSet(
            language=shard.language, dim=dim,
            ids=tuple(ids[i] for i in order), matrix=matrix))
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


def centroid(emb_set: SentenceEmbeddingSet) -> LanguageRepresentation:
    """Componentwise mean of a language's sentence vectors."""
    if len(emb_set) == 0:
        raise ValidationError(
            f"cannot take the centroid of an empty set for {emb_set.language!r}")
    mean = _compensated_mean(emb_set.matrix)
    return LanguageRepresentation(
        language=emb_set.language,
        vector=mean.astype(np.float32),
        sample_count=len(emb_set),
    )


def centroid_all(sets: Sequence[SentenceEmbeddingSet]) -> list[LanguageRepresentation]:
    """Centroid per language, preserving input order."""
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
