import io
import itertools
import json
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import KeepAlive, _default_vector, first_failure_record
from reference import (json_load_representations, json_write_representations,
                       line_load_embeddings)
from sprachbund import embedding
from sprachbund.corpus import CorpusShard
from sprachbund.embedding import (FETCH_WORKERS, FetchStats,
                                  LanguageRepresentation, StoredEmbeddingSet,
                                  StoreWriter, centroid, centroid_all,
                                  fetch_embeddings, load_embeddings,
                                  load_representations, write_embeddings,
                                  write_representations)
from sprachbund.errors import (PartialEmbeddingError, ServiceError,
                               ValidationError)
from sprachbund.simmatrix import build_matrix


# make_set's stores, one a set; removed when the tests end
_SETS = tempfile.TemporaryDirectory()
_SET_NUMBERS = itertools.count()


def make_set(language, matrix, ids=None):
    """``matrix``'s rows as a one-language store of their own, and the set
    that reads them."""
    matrix = np.asarray(matrix, dtype=np.float32)
    ids = tuple(range(len(matrix))) if ids is None else tuple(ids)
    path = Path(_SETS.name) / f"{next(_SET_NUMBERS)}.npy"
    with StoreWriter(path) as writer:
        writer.write(0, matrix)
        stored = writer.stored(language, matrix.shape[1], ids, 0)
        write_embeddings([stored], path, writer=writer)
    return stored


def shard_of(language, ids):
    """A shard of the sentences ``ids``, in that order."""
    return CorpusShard(language, tuple((sid, f"s{sid}") for sid in ids))


def read_jsonl(path, shards=()):
    """``load_embeddings`` of ``shards`` from the JSON Lines file ``path``
    into a store beside it, which it finishes."""
    store = Path(path).with_suffix(".npy")
    with StoreWriter(store) as writer:
        sets = load_embeddings(path, shards, writer=writer)
        write_embeddings(sets, store, writer=writer)
    return sets


def write_jsonl(path, header, records):
    lines = [json.dumps(header)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_jsonl_sets(path, sets):
    """A JSON Lines file holding the records of ``sets`` in turn."""
    write_jsonl(path, {"v": 1, "dim": sets[0].dim}, [
        {"lang": s.language, "id": sid, "vec": row.tolist()}
        for s in sets for sid, row in zip(s.ids, s.matrix)])


def write_store(sets, path, extra_header=None):
    """The store of ``sets`` at ``path``, each set's rows written in turn
    through a :class:`StoreWriter`."""
    with StoreWriter(path) as writer:
        stored, row = [], 0
        for s in sets:
            writer.write(row, s.matrix)
            stored.append(writer.stored(s.language, s.dim, s.ids, row))
            row += len(s)
        write_embeddings(stored, path, extra_header, writer=writer)


def stub_rows(shards, dim):
    """The stub service's vectors for every sentence of ``shards``, in
    shard order."""
    return np.array([_default_vector(text, dim) for shard in shards
                     for _, text in shard.sentences],
                    np.float32).reshape(-1, dim)


class TestLoadEmbeddings:
    def test_groups_by_language(self, tmp_path):
        """One set per shard, in shard order, whatever the file's order."""
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 4}, [
            {"lang": "aa", "id": i, "vec": [float(i), 0.0, 0.0, 1.0]}
            for i in range(3)
        ] + [
            {"lang": "bb", "id": i, "vec": [0.0, float(i), 1.0, 0.0]}
            for i in range(3)
        ])
        sets = read_jsonl(path, [shard_of("bb", [2, 0]), shard_of("aa", [1])])
        assert [(s.language, s.ids) for s in sets] == [("bb", (2, 0)),
                                                       ("aa", (1,))]
        assert all(s.dim == 4 for s in sets)
        assert [s.matrix.tolist() for s in sets] == [
            [[0, 2, 1, 0], [0, 0, 1, 0]], [[1, 0, 0, 1]]]

    def test_dimension_mismatch_names_record(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 4}, [
            {"lang": "aa", "id": 0, "vec": [1.0, 2.0, 3.0, 4.0]},
            {"lang": "aa", "id": 1, "vec": [1.0, 2.0, 3.0, 4.0, 5.0]},
        ])
        with pytest.raises(ValidationError, match="lang=aa id=1"):
            read_jsonl(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 2}, [
            {"lang": "aa", "id": 0, "vec": [1.0, float("nan")]},
        ])
        with pytest.raises(ValidationError, match="non-finite"):
            read_jsonl(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"lang": "aa", "id": 0, "vec": [1.0]}\n',
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1: missing key 'v'"):
            read_jsonl(path)

    @pytest.mark.parametrize("text, message", [
        ('{"v": 1, "dim": 2}\n{"lang": "aa", "id": "x", "vec": [1.0, 2.0]}\n',
         'line 2: lang must be a string and id an integer, got "aa" and "x"'),
        ('{"v": 1, "dim": 2}\n{"lang": "aa", "id": 0, "vec": 5}\n',
         "line 2: vector for lang=aa id=0 must be a list of 2 numbers"),
        ('{"v": 1, "dim": "two"}\n{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n',
         'line 1: dim must be an integer, got "two"'),
        ('\n{"v": 1, "dim": 2}\n{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n',
         "line 1: must be an object, got null"),
        ('{"v": true, "dim": 2}\n{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n',
         "line 1: v must be 1, got true"),
        ('{"v": 1, "dim": 0}\n', "line 1: dim must be >= 1, got 0"),
        ('{"v": 1, "dim": 2}\n{"lang": "aa", "id": 0, "vec": ["0.5", true]}\n',
         "line 2: vector for lang=aa id=0 must be a list of 2 numbers"),
    ], ids=["id-not-int", "vec-a-number", "dim-not-int", "blank-first-line",
            "version-true", "dim-zero", "vec-holds-a-string"])
    def test_ill_typed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "emb.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_jsonl(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        sets = [make_set("aa", rng.standard_normal((4, 6))),
                make_set("bb", rng.standard_normal((2, 6)), np.array([5, 2]))]
        path = tmp_path / "emb.jsonl"
        write_jsonl_sets(path, sets)
        loaded = read_jsonl(path, [shard_of(s.language, s.ids) for s in sets])
        for orig, back in zip(sets, loaded):
            assert back.language == orig.language
            assert back.ids == orig.ids
            assert np.array_equal(back.matrix, orig.matrix)

    def test_a_repeated_id_is_refused_first(self, tmp_path):
        """A language that repeats an id is refused, drawn or not, before
        any shard is checked against the file."""
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 2}, [
            {"lang": lang, "id": sid, "vec": [1.0, float(sid)]}
            for lang, ids in (("aa", range(4)), ("bb", (0, 1, 2, 2, 3)))
            for sid in ids])
        with pytest.raises(ValidationError) as info:
            read_jsonl(path, [shard_of("cc", [0]), shard_of("aa", [9])])
        assert str(info.value) == ("duplicate sentence ids in embedding set "
                                   "for 'bb'")

    @pytest.mark.parametrize("shards, message", [
        ([("aa", [1, 0]), ("cc", [0]), ("aa", [7])],
         "{path} has no vectors for language 'cc'"),
        ([("aa", [5, 1, 4]), ("cc", [0])],
         "{path} lacks vectors for 'aa' sentence ids [5, 4]"),
    ], ids=["language", "ids"])
    def test_the_first_shard_without_vectors_is_named(self, tmp_path, shards,
                                                      message):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 2}, [
            {"lang": "aa", "id": sid, "vec": [1.0, float(sid)]}
            for sid in range(4)])
        store = path.with_suffix(".npy")
        with pytest.raises(ValidationError) as info:
            read_jsonl(path, [shard_of(code, ids) for code, ids in shards])
        assert str(info.value) == message.format(path=path)
        assert list(tmp_path.iterdir()) == [path]  # no store, no temporary
        assert not store.exists()

    def test_an_id_beyond_int64_is_still_checked(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        big = [2 ** 63, -2 ** 63 - 1, 2 ** 64]
        write_jsonl(path, {"v": 1, "dim": 1}, [
            {"lang": "aa", "id": sid, "vec": [float(k)]}
            for k, sid in enumerate([0, *big, 2 ** 63 + 1])])
        [got] = read_jsonl(path, [shard_of("aa", [2 ** 64, 0])])
        assert got.matrix.tolist() == [[3.0], [0.0]]
        write_jsonl(path, {"v": 1, "dim": 1}, [
            {"lang": "aa", "id": sid, "vec": [1.0]} for sid in [*big, 2 ** 64]])
        with pytest.raises(ValidationError, match="duplicate sentence ids"):
            read_jsonl(path)

    def test_a_language_drawn_twice_gets_its_rows_twice(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 2}, [
            {"lang": "aa", "id": sid, "vec": [1.0, float(sid)]}
            for sid in range(4)])
        sets = read_jsonl(path, [shard_of("aa", [1, 2]), shard_of("aa", [2])])
        assert [s.matrix.tolist() for s in sets] == [[[1, 1], [1, 2]],
                                                     [[1, 2]]]

    def test_a_store_takes_no_writer_and_a_file_needs_one(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 1}, [])
        with StoreWriter(tmp_path / "emb.npy") as writer:
            with pytest.raises(TypeError):
                load_embeddings(path)
            with pytest.raises(TypeError):
                load_embeddings(tmp_path / "emb.npy", [], writer=writer)


# faults a JSON Lines line can carry; "vector" ones are found only when the
# line's vector is converted
_LINE_FAULTS = {
    "utf8": b'{"lang": "aa", "id": 0, "vec": [1.0]}\xff',
    "json": b'{"lang": "aa", "id": 0, "vec": [1.0',
    "extra": b'{"lang": "aa", "id": 0, "vec": [1.0]} {}',
    "bom": '\ufeff{"lang": "aa", "id": 0, "vec": [1.0]}'.encode(),
    "array": b"[1, 2]",
    "null": b"null",
    "keys": b'{"lang": "aa", "vec": [1.0]}',
    "id": b'{"lang": "aa", "id": 1.5, "vec": [1.0]}',
    "lang": b'{"lang": 7, "id": 0, "vec": [1.0]}',
}
_VECTOR_FAULTS = {
    "short": lambda dim: [0.5] * (dim - 1),
    "long": lambda dim: [0.5] * (dim + 1),
    "ragged": lambda dim: [0.5] * (dim - 1) + [[0.5]],
    "text": lambda dim: "0.5",
    "object": lambda dim: {"x": 0.5},
    "nested": lambda dim: [[0.5]] * dim,
    "nan": lambda dim: [float("nan")] * dim,
    "inf": lambda dim: [0.5] * (dim - 1) + [float("-inf")],
    "f32-overflow": lambda dim: [1e39] + [0.5] * (dim - 1),
    "null-entry": lambda dim: [None] * dim,
    # numpy would parse "0.5" as a number
    "string": lambda dim: [0.5] * (dim - 1) + ["0.5"],
}


def _read_outcome(path, shards):
    """``read_jsonl``'s sets as comparable tuples, or its error message."""
    try:
        sets = read_jsonl(path, shards)
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    return [(s.language, s.dim, s.ids, s.matrix.dtype.str, s.matrix.shape,
             s.matrix.tobytes()) for s in sets]


def _line_outcome(path, shards):
    """The same from ``line_load_embeddings``: each shard's rows picked by
    id from the language's records, or the error of the first shard
    whose language or ids the file lacks."""
    try:
        with np.errstate(over="ignore"):  # the line loader warns on 1e39
            found = {lang: (ids, matrix)
                     for lang, ids, matrix in line_load_embeddings(path)}
        out = []
        for shard in shards:
            if shard.language not in found:
                raise ValidationError(
                    f"{path} has no vectors for language {shard.language!r}")
            ids, matrix = found[shard.language]
            position = {sid: k for k, sid in enumerate(ids)}
            drawn = [sid for sid, _ in shard.sentences]
            missing = [sid for sid in drawn if sid not in position]
            if missing:
                raise ValidationError(f"{path} lacks vectors for "
                                      f"{shard.language!r} sentence ids "
                                      f"{missing}")
            rows = matrix[[position[sid] for sid in drawn]]
            out.append((shard.language, matrix.shape[1], tuple(drawn),
                        rows.dtype.str, rows.shape, rows.tobytes()))
        return out
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def rare(n):
    """True about once in ``n`` draws: a value inside the range, as
    Hypothesis favours the bounds."""
    return st.integers(0, n - 1).map(lambda x: x == n // 2)


@st.composite
def jsonl_files(draw):
    """A JSON Lines embedding file and shards to draw from it. The file has
    a header, records of a few languages in any order, now and then a
    repeated id, blank lines, and line or vector faults at random lines.
    The shards are some of its languages, each some of its records' ids in
    any order, now and then with an id or a language the file lacks."""
    dim = draw(st.integers(1, 4))
    number = (st.floats(-3e38, 3e38, allow_nan=False) | st.integers(-99, 99)
              | st.booleans() | st.sampled_from([0.1, -0.0, 5e-324, 1e-46]))
    lines = [json.dumps({"v": 1, "dim": dim}).encode()]
    ids: dict[str, list[int]] = {}
    repeats = draw(rare(8))  # ids may repeat
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t"])))
            continue
        lang = draw(st.sampled_from(["aa", "bb", "cc"]))
        seen = ids.setdefault(lang, [])
        step = draw(st.integers(0 if repeats else 1, 3))
        seen.append((seen[-1] if seen else -1) + step)
        vec = draw(st.lists(number, min_size=dim, max_size=dim))
        lines.append(json.dumps({"lang": lang, "id": seen[-1],
                                 "vec": vec}).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        if draw(st.booleans()):
            bad = _LINE_FAULTS[draw(st.sampled_from(sorted(_LINE_FAULTS)))]
        else:
            vec = _VECTOR_FAULTS[draw(st.sampled_from(sorted(_VECTOR_FAULTS)))]
            bad = json.dumps({"lang": "zz", "id": at, "vec": vec(dim)}).encode()
        lines.insert(at, bad)
    codes = draw(st.permutations(sorted(ids)))
    codes = codes[:draw(st.integers(min(1, len(codes)), len(codes)))]
    if draw(rare(10)):
        codes.insert(draw(st.integers(0, len(codes))), "dd")
    shards = []
    for code in codes:
        pool = sorted(set(ids.get(code, ())))
        drawn = (draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
                 if pool else [])
        if draw(rare(10)):  # an id the file lacks
            drawn.insert(draw(st.integers(0, len(drawn))),
                         max(pool, default=0) + 1)
        shards.append(shard_of(code, drawn))
    return b"\n".join(lines) + b"\n", shards


class TestJsonlOracle:
    """``load_embeddings`` on JSON Lines against ``line_load_embeddings``
    (reference.py), which converts and checks each line before reading the
    next: the drawn sets are equal to the bit, or the error message is."""

    @settings(max_examples=300, deadline=None)
    @given(case=jsonl_files(), chunk=st.sampled_from([1, 3, 8, 1 << 12]))
    @example(case=(b'{"v": 1, "dim": 2}\n'
                   b'{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n'
                   b'{"lang": "aa", "id": 1, "vec": [1.0]}\n'
                   b'{"lang": "aa", "id": 2, "vec": [1.0, 2.0]}\n'
                   b'{"lang": "aa", "id": 3, "vec": [1.0, 2.0]\n',
                   [shard_of("aa", [2, 0])]),
             chunk=1 << 12)
    def test_sets_or_message_match_the_line_loader(self, case, chunk):
        text, shards = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.jsonl"
            path.write_bytes(text)
            with mock.patch.object(embedding, "_CHUNK_VALUES", chunk):
                got = _read_outcome(path, shards)
            assert got == _line_outcome(path, shards)

    @pytest.mark.parametrize("later", sorted(_LINE_FAULTS))
    @pytest.mark.parametrize("earlier", sorted(_VECTOR_FAULTS))
    def test_earlier_vector_fault_wins(self, tmp_path, earlier, later):
        path = tmp_path / "emb.jsonl"
        good = json.dumps({"lang": "aa", "id": 0, "vec": [0.5, 0.5]})
        bad = json.dumps({"lang": "aa", "id": 1,
                          "vec": _VECTOR_FAULTS[earlier](2)})
        path.write_bytes(b"\n".join([b'{"v": 1, "dim": 2}', good.encode(),
                                     bad.encode(), _LINE_FAULTS[later]]))
        with pytest.raises(ValidationError, match=f"{path}: line 3: "):
            read_jsonl(path)
        assert _read_outcome(path, []) == _line_outcome(path, [])

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "-1" + "0" * 400,
                                        "1e39", "-3.5e38", "1e400"])
    def test_number_beyond_float32_is_not_finite(self, tmp_path, number):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"v": 1, "dim": 2}\n'
                        '{"lang": "aa", "id": 0, "vec": [0.5, 0.5]}\n'
                        f'{{"lang": "aa", "id": 1, "vec": [{number}, 1.0]}}\n',
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                read_jsonl(path)
        assert str(info.value) == (f"{path}: line 3: non-finite value in "
                                   f"vector for lang=aa id=1")


@st.composite
def embedding_sets(draw):
    """One to four languages sharing a dimension, each with 0-40 rows."""
    dim = draw(st.integers(1, 8))
    sets = []
    for code in ("aa", "bb", "cc", "dd")[:draw(st.integers(1, 4))]:
        ids = draw(st.lists(st.integers(0, 10 ** 6), max_size=40, unique=True))
        matrix = draw(hnp.arrays(
            np.float32, (len(ids), dim),
            elements=st.floats(-1e6, 1e6, width=32, allow_nan=False)))
        sets.append(make_set(code, matrix, ids))
    return sets


class TestEmbeddingStore:
    @settings(max_examples=60, deadline=None)
    @given(embedding_sets())
    @example([make_set("aa", np.zeros((0, 3))),
              make_set("bb", [[1.0, -0.0, 3.5], [2.0, 4.0, -1e-30]], [7, 3])])
    def test_round_trip_matches_jsonl_bit_for_bit(self, sets):
        with tempfile.TemporaryDirectory() as tmp:
            store, jsonl = Path(tmp) / "emb.npy", Path(tmp) / "from.jsonl"
            write_store(sets, store)
            write_jsonl_sets(jsonl, sets)
            loaded = load_embeddings(store)
            assert [s.language for s in loaded] == [s.language for s in sets]
            for orig, back in zip(sets, loaded):
                assert back.ids == orig.ids
                assert back.matrix.tobytes() == orig.matrix.tobytes()
            # JSON Lines has no record for a language without rows
            from_store = {r.language: r for r in
                          centroid_all([s for s in loaded if len(s)])}
            from_jsonl = centroid_all(read_jsonl(
                jsonl, [shard_of(s.language, s.ids) for s in sets if len(s)]))
            assert sorted(from_store) == sorted(r.language for r in from_jsonl)
            for rep in from_jsonl:
                assert ([float(x).hex() for x in from_store[rep.language].vector]
                        == [float(x).hex() for x in rep.vector])

    def test_layout_is_little_endian_float32_in_language_order(self, tmp_path):
        sets = [make_set("aa", [[1.0, 2.0]]),
                make_set("bb", [[3.0, 4.0], [5.0, 6.0]], [9, 4])]
        write_store(sets, tmp_path / "emb.npy", {"config_digest": "abc"})
        matrix = np.load(tmp_path / "emb.npy")
        assert matrix.dtype == np.dtype("<f4")
        assert matrix.tolist() == [[1, 2], [3, 4], [5, 6]]
        index = json.loads((tmp_path / "emb.json").read_text())
        assert index == {"v": 1, "config_digest": "abc", "dim": 2,
                         "languages": [{"lang": "aa", "ids": [0]},
                                       {"lang": "bb", "ids": [9, 4]}]}

    def damaged(self, tmp_path):
        path = tmp_path / "emb.npy"
        write_store([make_set("aa", np.ones((3, 4)))], path)
        return path

    def test_missing_matrix(self, tmp_path):
        path = self.damaged(tmp_path)
        path.unlink()
        with pytest.raises(ValidationError, match="store not found"):
            load_embeddings(path)

    def test_missing_index(self, tmp_path):
        path = self.damaged(tmp_path)
        path.with_suffix(".json").unlink()
        with pytest.raises(ValidationError, match="index not found"):
            load_embeddings(path)

    def test_truncated_matrix(self, tmp_path):
        path = self.damaged(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValidationError, match="unreadable"):
            load_embeddings(path)

    def test_shape_disagrees_with_index(self, tmp_path):
        path = self.damaged(tmp_path)
        index = json.loads(path.with_suffix(".json").read_text())
        index["languages"][0]["ids"].append(3)
        path.with_suffix(".json").write_text(json.dumps(index))
        with pytest.raises(ValidationError, match="lists 4 rows"):
            load_embeddings(path)

    def test_dtype_disagrees_with_index(self, tmp_path):
        path = self.damaged(tmp_path)
        np.save(path, np.ones((3, 4)))
        with pytest.raises(ValidationError, match="<f8"):
            load_embeddings(path)

    def test_index_missing_key(self, tmp_path):
        path = self.damaged(tmp_path)
        path.with_suffix(".json").write_text('{"v": 1, "dim": 4}')
        with pytest.raises(ValidationError, match="missing key 'languages'"):
            load_embeddings(path)


class TestFetchEmbeddings:
    def shard(self, n):
        return CorpusShard(language="aa",
                           sentences=tuple((i, f"text {i}") for i in range(n)))

    def test_batching(self, fetch, embedding_server):
        server = embedding_server(dim=4)
        [out] = fetch(server.endpoint, [self.shard(10)], batch=4)
        assert server.embed_requests == 3
        # pooled connections reach the server in no fixed order
        assert sorted(server.batches) == [
            [f"text {i}" for i in range(0, 4)],
            [f"text {i}" for i in range(4, 8)],
            [f"text {i}" for i in range(8, 10)]]
        assert len(out) == 10 and out.dim == 4
        assert out.ids == tuple(range(10))

    def test_keep_alive_connections_are_closed(self, fetch, embedding_server):
        """A service that keeps connections open: every socket the fetch
        opened is closed when it returns (one left open fails the test as
        a ResourceWarning)."""
        server = embedding_server(dim=4, keep_alive=True)
        [out] = fetch(server.endpoint, [self.shard(10)], batch=4)
        assert server.embed_requests == 3
        assert out.ids == tuple(range(10))

    def test_empty_shard_zero_embed_requests(self, fetch, embedding_server):
        server = embedding_server(dim=4)
        [out] = fetch(server.endpoint, [self.shard(0)], batch=4)
        assert server.embed_requests == 0
        assert len(out) == 0 and out.dim == 4

    def test_partial_failure_lists_missing_ids(self, fetch, embedding_server):
        server = embedding_server(dim=4, truncate_batch=1)
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch(server.endpoint, [self.shard(10)], batch=10)
        assert excinfo.value.missing_ids == [9]

    def test_null_vector_counts_as_missing(self, fetch, embedding_server):
        server = embedding_server(dim=4, null_texts=frozenset({"text 3"}))
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch(server.endpoint, [self.shard(5)], batch=2)
        assert excinfo.value.missing_ids == [3]

    def test_transient_500_is_retried(self, fetch, embedding_server):
        server = embedding_server(dim=4, fail_posts=2)
        [out] = fetch(server.endpoint, [self.shard(4)], batch=4,
                                 retries=3, retry_wait=0.01)
        assert len(out) == 4
        assert server.embed_requests == 3  # two failures plus the success

    def test_persistent_500_gives_service_error(self, fetch, embedding_server):
        server = embedding_server(dim=4, fail_posts=100)
        with pytest.raises(ServiceError, match="giving up"):
            fetch(server.endpoint, [self.shard(4)], batch=4,
                             retries=1, retry_wait=0.01)

    def test_connection_error(self, fetch):
        with pytest.raises(ServiceError):
            fetch("http://127.0.0.1:9", [self.shard(2)], batch=2,
                             retries=0, retry_wait=0.01)

    def test_malformed_response_is_protocol_error(self, fetch,
                                                  embedding_server):
        server = embedding_server(dim=4, malformed=True)
        with pytest.raises(ServiceError, match="vectors"):
            fetch(server.endpoint, [self.shard(2)], batch=2)

    def test_wrong_dimension_is_protocol_error(self, fetch, embedding_server):
        server = embedding_server(dim=4, wrong_dim=5)
        with pytest.raises(ServiceError, match="declared 4"):
            fetch(server.endpoint, [self.shard(2)], batch=2)

    def test_auth_token_sent_as_bearer(self, fetch, embedding_server):
        server = embedding_server(dim=4)
        fetch(server.endpoint, [self.shard(2)], batch=2,
                         auth_token="sesame")
        assert server.auth_headers == ["Bearer sesame"]

    def test_429_is_retried(self, fetch, embedding_server):
        server = embedding_server(dim=4, fail_posts=2, fail_status=429)
        stats = FetchStats()
        [out] = fetch(server.endpoint, [self.shard(4)], batch=4,
                                 retry_wait=0.01, stats=stats)
        assert len(out) == 4
        assert server.embed_requests == 3
        assert (stats.requests, stats.retries) == (4, 2)  # /info counts too

    def test_4xx_is_not_retried(self, fetch, embedding_server):
        server = embedding_server(dim=4, fail_posts=1, fail_status=404)
        with pytest.raises(ServiceError, match="answered 404"):
            fetch(server.endpoint, [self.shard(4)], batch=4,
                             retry_wait=0.01)
        assert server.embed_requests == 1

    def test_non_http_endpoint_rejected(self, fetch):
        with pytest.raises(ValidationError, match="http"):
            fetch("localhost:9", [self.shard(2)], batch=2)

    def test_integer_beyond_float_is_a_service_error(self, fetch,
                                                     embedding_server):
        server = embedding_server(
            dim=2, vectors_for={"text 1": [10 ** 400, 1.0]})
        with pytest.raises(ServiceError) as info:
            fetch(server.endpoint, [self.shard(3)], batch=2)
        assert str(info.value) == (f"{server.endpoint}/embed: a vector holds "
                                   f"a number beyond float range")

    def test_float32_overflow_is_non_finite_without_warning(
            self, fetch, embedding_server):
        server = embedding_server(dim=2, vectors_for={"text 2": [1e39, 1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite .* id=2"):
                fetch(server.endpoint, [self.shard(3)], batch=2)

    def test_vectors_reassembled_by_id(self, fetch, embedding_server):
        """Replies are matched to their sentences by position, and the rows
        keep the shard's order of ids."""
        server = embedding_server(dim=4)
        shard = CorpusShard(language="aa",
                            sentences=((5, "five"), (2, "two"), (9, "nine")))
        [out] = fetch(server.endpoint, [shard], batch=2)
        assert out.ids == (5, 2, 9)
        assert out.matrix.tobytes() == stub_rows([shard], 4).tobytes()

    @pytest.mark.parametrize("order, batch", [
        ((0, 1, 2, 3, 4, 5, 6), 3),  # in order, three batches
        ((6, 2, 5, 0, 4), 9),  # out of order, one batch
        ((9, 2, 5, 0, 7, 1), 2),  # out of order, three batches
    ])
    def test_batches_and_order_come_back_sorted(self, fetch, embedding_server,
                                                order, batch):
        """However the shard is cut into batches, its rows come back in
        shard order, each the stub's vector of its sentence."""
        server = embedding_server(dim=4)
        shard = CorpusShard(language="aa",
                            sentences=tuple((i, f"text {i}") for i in order))
        [got] = fetch(server.endpoint, [shard], batch=batch)
        assert got.ids == order
        assert got.matrix.tobytes() == stub_rows([shard], 4).tobytes()


class TestCentroid:
    def test_single_vector_identity(self):
        rep = centroid(make_set("aa", [[1.0, 2.0, 3.0]]))
        assert np.array_equal(rep.vector, np.array([1, 2, 3], np.float32))
        assert rep.sample_count == 1

    def test_two_vectors(self):
        rep = centroid(make_set("aa", [[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(rep.vector, np.array([2, 3], np.float32))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((1000, 32)).astype(np.float32)
        rep = centroid(make_set("aa", matrix))
        oracle = matrix.astype(np.float64).sum(axis=0) / len(matrix)
        assert np.max(np.abs(rep.vector.astype(np.float64) - oracle)) < 1e-6

    def test_repeated_vector_is_fixed_point(self):
        v = np.asarray([0.1, -2.5, 3.75, 0.003], np.float32)
        rep = centroid(make_set("aa", np.tile(v, (137, 1))))
        assert np.max(np.abs(rep.vector - v)) <= 1e-9

    def test_permutation_invariant(self):
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((257, 8)).astype(np.float32)
        perm = rng.permutation(len(matrix))
        a = centroid(make_set("aa", matrix))
        b = centroid(make_set("aa", matrix[perm], ids=perm))
        assert np.allclose(a.vector, b.vector, atol=1e-7)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((300, 16)).astype(np.float32)
        b = rng.standard_normal((500, 16)).astype(np.float32)
        ca = centroid(make_set("aa", a)).vector.astype(np.float64)
        cb = centroid(make_set("aa", b)).vector.astype(np.float64)
        both = centroid(make_set(
            "aa", np.vstack([a, b]))).vector.astype(np.float64)
        expected = (len(a) * ca + len(b) * cb) / (len(a) + len(b))
        assert np.max(np.abs(both - expected)) < 1e-6

    def test_empty_set_rejected(self):
        empty = make_set("aa", np.zeros((0, 4), np.float32))
        with pytest.raises(ValidationError, match="empty"):
            centroid(empty)

    def test_sample_count_below_one_rejected(self):
        with pytest.raises(ValidationError, match="sample_count must be >= 1"):
            LanguageRepresentation("aa", [1.0, 2.0], 0)


class TestCentroidAll:
    def test_one_representation_per_language(self):
        rng = np.random.default_rng(21)
        sets = [make_set(code, rng.standard_normal((5, 8)))
                for code in ("aa", "bb", "cc")]
        reps = centroid_all(sets)
        assert [r.language for r in reps] == ["aa", "bb", "cc"]

    def test_duplicate_language_rejected(self):
        sets = [make_set("aa", [[1.0, 2.0]]), make_set("aa", [[3.0, 4.0]])]
        with pytest.raises(ValidationError, match="duplicate"):
            centroid_all(sets)

    def test_dim_mismatch_rejected(self):
        sets = [make_set("aa", [[1.0, 2.0]]), make_set("bb", [[1.0, 2.0, 3.0]])]
        with pytest.raises(ValidationError, match="dimension"):
            centroid_all(sets)

    def test_full_scale_shape(self):
        # 108 languages at the production dimension of 768
        from sprachbund.registry import bundled_registry
        rng = np.random.default_rng(22)
        sets = [make_set(code, rng.standard_normal((3, 768)))
                for code in bundled_registry().codes]
        reps = centroid_all(sets)
        assert len(reps) == 108
        assert all(r.dim == 768 for r in reps)


F32 = np.finfo(np.float32)
# the float32 values a text round trip is most likely to get wrong
F32_EDGES = (0.0, -0.0, float(F32.max), -float(F32.max), float(F32.tiny),
             float(F32.smallest_subnormal), -float(F32.smallest_subnormal),
             float(np.float32(F32.tiny) - np.float32(F32.smallest_subnormal)))


@st.composite
def representations(draw, min_size=1):
    """Centroids of 1-6 dims for up to six languages, mixing the float32
    edges into arbitrary finite values."""
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(min_size, 6))
    elements = st.one_of(st.sampled_from(F32_EDGES),
                         st.floats(width=32, allow_nan=False,
                                   allow_infinity=False))
    vectors = draw(hnp.arrays(np.float32, (count, dim), elements=elements))
    samples = draw(st.lists(st.integers(1, 10 ** 6), min_size=count,
                            max_size=count))
    return [LanguageRepresentation(language=f"l{chr(ord('a') + i)}",
                                   vector=v, sample_count=n)
            for i, (v, n) in enumerate(zip(vectors, samples))]


class TestRepresentationStore:
    @settings(max_examples=80, deadline=None)
    @given(representations())
    def test_round_trip_keeps_every_bit(self, reps):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reps.npy"
            write_representations(reps, path)
            loaded = load_representations(path)
            assert [(r.language, r.sample_count) for r in loaded] == \
                [(r.language, r.sample_count) for r in reps]
            for orig, back in zip(reps, loaded):
                assert back.vector.dtype == np.float32
                assert back.vector.tobytes() == orig.vector.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(representations(min_size=2))
    def test_matrix_equals_json_text_oracle_bit_for_bit(self, reps):
        assume(all(np.any(r.vector) for r in reps))
        with tempfile.TemporaryDirectory() as tmp:
            store, text = Path(tmp) / "reps.npy", Path(tmp) / "oracle.json"
            write_representations(reps, store)
            json_write_representations(reps, text)
            ours = build_matrix(load_representations(store))
            oracle = build_matrix(json_load_representations(text))
        assert ours.languages == oracle.languages
        assert ours.values.tobytes() == oracle.values.tobytes()

    def test_layout_is_one_float32_row_per_language(self, tmp_path):
        reps = [LanguageRepresentation("aa", [1.0, 2.0], 3),
                LanguageRepresentation("bb", [-0.0, 5.5], 1)]
        write_representations(reps, tmp_path / "reps.npy",
                              extra_header={"config_digest": "abc"})
        matrix = np.load(tmp_path / "reps.npy")
        assert matrix.dtype == np.dtype("<f4") and matrix.flags.c_contiguous
        assert matrix.tobytes() == np.array(
            [[1.0, 2.0], [-0.0, 5.5]], "<f4").tobytes()
        index = json.loads((tmp_path / "reps.json").read_text())
        assert index == {"v": 1, "config_digest": "abc", "dim": 2,
                         "languages": [{"lang": "aa", "sample_count": 3},
                                       {"lang": "bb", "sample_count": 1}]}

    @pytest.mark.parametrize("name, vectors, message", [
        ("reps.npy", [[1.0, 2.0], [1.0, 2.0, 3.0]], "cannot mix dimensions"),
        ("reps.json", [[1.0, 2.0]], "must end in .npy"),
    ])
    def test_bad_write_rejected(self, tmp_path, name, vectors, message):
        reps = [LanguageRepresentation(f"l{i}", v, 1)
                for i, v in enumerate(vectors)]
        with pytest.raises(ValidationError, match=message):
            write_representations(reps, tmp_path / name)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_store(self, tmp_path):
        path = tmp_path / "reps.npy"
        write_representations([LanguageRepresentation("aa", [1.0, 2.0], 1)],
                              path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class Unreadable:  # fails once the first row is on disk
            language, sample_count, dim = "bb", 1, 2

            @property
            def vector(self):
                raise OSError("read failed")

        with pytest.raises(OSError, match="read failed"):
            write_representations(
                [LanguageRepresentation("aa", [5.0, 6.0], 1), Unreadable()],
                path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestPooledFetch:
    """All languages' batches go through one pool of connections."""

    SIZES = {"aa": 5, "bb": 0, "cc": 9, "dd": 2, "ee": 7, "ff": 4}

    def shards(self):
        rng = np.random.default_rng(5)
        return [CorpusShard(language=code, sentences=tuple(
                    (int(i), f"{code} text {i}")
                    for i in rng.permutation(n * 3)[:n]))
                for code, n in self.SIZES.items()]

    def test_equals_per_language_sequential_fetches(self, fetch,
                                                    embedding_server):
        # the first six posts fail; with a pool they are batches of several
        # languages
        flaky = embedding_server(dim=5, fail_posts=6)
        stats = FetchStats()
        pooled = fetch(flaky.endpoint, self.shards(), batch=2,
                                  retry_wait=0.001, stats=stats)
        steady = embedding_server(dim=5)
        sequential = [fetch(steady.endpoint, [shard], batch=2)[0]
                      for shard in self.shards()]
        assert [s.language for s in pooled] == list(self.SIZES)
        for a, b, shard in zip(pooled, sequential, self.shards()):
            assert a.language == b.language
            assert a.ids == b.ids == tuple(i for i, _ in shard.sentences)
            assert a.matrix.tobytes() == b.matrix.tobytes()
        batches = sum((n + 1) // 2 for n in self.SIZES.values())
        assert flaky.embed_requests == batches + 6
        assert flaky.info_requests == 1
        assert (stats.requests, stats.retries) == (1 + batches + 6, 6)

    def test_first_hard_failure_stops_new_requests(self, fetch,
                                                   embedding_server):
        """No batch that the pool takes after it records the 400 reaches the
        service: once the failure is recorded, only the batches the other
        workers already hold, at most ``FETCH_WORKERS - 1``, arrive."""
        server = embedding_server(dim=4, fail_posts=1, fail_status=400)
        shards = [CorpusShard(language=f"l{i:02d}", sentences=((0, f"s{i}"),))
                  for i in range(40)]
        with first_failure_record(server) as records, \
                pytest.raises(ServiceError, match="answered 400"):
            fetch(server.endpoint, shards, batch=1, retry_wait=0.01)
        (arrived, taken), = records
        # batch i carries the one text "s<i>"
        later = {int(texts[0][1:]) for texts, _ in server.posts[arrived:]}
        assert all(i < taken for i in later), (later, taken)
        assert len(later) <= FETCH_WORKERS - 1

    def test_partial_names_first_language_after_all_batches(
            self, fetch, embedding_server):
        server = embedding_server(
            dim=4, null_texts=frozenset({"cc text 0", "ee text 3"}))
        shards = [CorpusShard(language=code, sentences=tuple(
                      (i, f"{code} text {i}") for i in range(4)))
                  for code in ("aa", "cc", "dd", "ee")]
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch(server.endpoint, shards, batch=2)
        assert excinfo.value.language == "cc"
        assert excinfo.value.missing_ids == [0]
        assert server.embed_requests == 8


class TestFetchEmbeddingsKeepAlive(KeepAlive, TestFetchEmbeddings):
    """The same fetches over connections the service keeps open."""


class TestPooledFetchKeepAlive(KeepAlive, TestPooledFetch):
    """The same pooled fetches over connections the service keeps open."""


class TestReplyNumbers:
    def shard(self, n):
        return CorpusShard(language="aa",
                           sentences=tuple((i, f"text {i}") for i in range(n)))

    def test_string_component_is_a_service_error(self, fetch,
                                                 embedding_server):
        """numpy would parse "0.5" as a number; a reply is refused."""
        server = embedding_server(dim=2, vectors_for={"text 1": ["0.5", 1.0]})
        with pytest.raises(ServiceError) as info:
            fetch(server.endpoint, [self.shard(3)], batch=2)
        assert str(info.value) == (
            f"{server.endpoint}/embed: vectors are not lists of numbers: a "
            f"vector component is a string")

    def test_nested_lists_are_a_service_error(self, fetch,
                                              embedding_server):
        server = embedding_server(dim=2, vectors_for={"text 0": [[0.5], [1.0]],
                                                      "text 1": [[0.5], [1.0]]})
        with pytest.raises(ServiceError, match="not lists of numbers"):
            fetch(server.endpoint, [self.shard(2)], batch=2)

    def test_bools_and_ints_keep_their_bits(self, fetch,
                                            embedding_server):
        vectors = {"text 0": [True, 2, 0.5, -3], "text 1": [False, 0, 7, 1.5],
                   "text 2": [1, 2, 3, 4]}
        server = embedding_server(dim=4, vectors_for=vectors)
        [out] = fetch(server.endpoint, [self.shard(3)], batch=3)
        assert out.matrix.tobytes() == np.array(
            list(vectors.values()), np.float32).tobytes()


class TestFetchIntoStore:
    """With a :class:`StoreWriter`, each reply's rows go into the store's
    temporary file at once, and nothing of them stays in memory."""

    shards = TestPooledFetch.shards
    SIZES = TestPooledFetch.SIZES

    def test_store_equals_the_sets_written(self, embedding_server, tmp_path):
        """The fetched store has the bytes of the store of the stub's
        vectors, written in shard order, though six posts failed first."""
        flaky = embedding_server(dim=5, fail_posts=6)
        shards = self.shards()
        want = [make_set(shard.language, stub_rows([shard], 5),
                         [i for i, _ in shard.sentences]) for shard in shards]
        write_store(want, tmp_path / "want.npy", {"config_digest": "abc"})
        path = tmp_path / "fetched.npy"
        with StoreWriter(path) as writer:
            stored = fetch_embeddings(flaky.endpoint, shards, batch=2,
                                      retry_wait=0.001, writer=writer)
            assert not path.exists()  # the rows are in the temporary file
            write_embeddings(stored, path, extra_header={"config_digest": "abc"},
                             writer=writer)
        assert [p.name for p in sorted(tmp_path.iterdir())] == [
            "fetched.json", "fetched.npy", "want.json", "want.npy"]
        for suffix in (".npy", ".json"):
            assert (path.with_suffix(suffix).read_bytes()
                    == (tmp_path / "want").with_suffix(suffix).read_bytes())
        assert all(isinstance(s, StoredEmbeddingSet) for s in stored)
        for a, b in zip(stored, want):
            assert (a.language, a.dim, a.ids) == (b.language, b.dim, b.ids)
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_concurrent_writes_lose_no_row(self, embedding_server, tmp_path):
        """60 languages in batches of 3, out of id order, written by every
        worker at once while the interpreter switches threads every
        microsecond: each row lands in its place."""
        rng = np.random.default_rng(9)
        shards = [CorpusShard(language=f"l{k}", sentences=tuple(
                      (int(i), f"{k} {i}")
                      for i in rng.permutation(40)[:rng.integers(1, 12)]))
                  for k in range(60)]
        server = embedding_server(dim=6)
        path = tmp_path / "emb.npy"
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StoreWriter(path) as writer:
                stored = fetch_embeddings(server.endpoint, shards, batch=3,
                                          timeout=30, writer=writer)
                write_embeddings(stored, path, writer=writer)
        finally:
            sys.setswitchinterval(old)
        assert [(s.ids, s.matrix.tobytes()) for s in load_embeddings(path)] \
            == [(tuple(i for i, _ in shard.sentences),
                 stub_rows([shard], 6).tobytes()) for shard in shards]

    def test_failure_leaves_the_old_store(self, embedding_server, tmp_path):
        path = tmp_path / "emb.npy"
        write_store([make_set("aa", [[1.0, 2.0]])], path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        _, text = self.shards()[4].sentences[1]
        server = embedding_server(dim=5, null_texts=frozenset({text}))
        with pytest.raises(PartialEmbeddingError):
            with StoreWriter(path) as writer:
                fetch_embeddings(server.endpoint, self.shards(), batch=2,
                                 writer=writer)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFetchIntoStoreKeepAlive(KeepAlive, TestFetchIntoStore):
    """The same fetches into a store over connections the service keeps
    open."""


class TestFetchHoldsNoVectors:
    @staticmethod
    def held_bytes(endpoint: str, path: Path, languages: int) -> int:
        """The tracemalloc peak above the start of fetching ``languages``
        shards of 8 sentences into a store and finishing it."""
        shards = (CorpusShard(language=f"l{k}", sentences=tuple(
                      (i, f"{k} {i}") for i in range(8)))
                  for k in range(languages))
        tracemalloc.start()
        try:
            with StoreWriter(path) as writer:
                start = tracemalloc.get_traced_memory()[0]
                sets = fetch_embeddings(endpoint, shards, batch=8,
                                        writer=writer)
                write_embeddings(sets, path, writer=writer)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - start

    def test_held_memory_does_not_grow_with_languages(self, embedding_server,
                                                      tmp_path):
        """200 languages of 8 x 768 float32 rows, 4.9 MB, hold less than
        1 MiB more than 20 languages do: what stays is ids, not vectors."""
        server = embedding_server(dim=768)
        few = self.held_bytes(server.endpoint, tmp_path / "few.npy", 20)
        many = self.held_bytes(server.endpoint, tmp_path / "many.npy", 200)
        assert (tmp_path / "many.npy").stat().st_size == 128 + 200 * 8 * 768 * 4
        assert many - few < 1 << 20, (few, many)


class TestJsonlHoldsNoUndrawnVectors:
    @staticmethod
    def held_bytes(path: Path, copies: int) -> int:
        """The tracemalloc peak above the start of reading 4 languages' 16
        drawn records of 64 dims, spread over ``copies`` times as many
        records per language, from a JSON Lines file into a store."""
        rng = np.random.default_rng(5)
        codes = ("aa", "bb", "cc", "dd")
        write_jsonl(path, {"v": 1, "dim": 64}, [
            {"lang": code, "id": sid,
             "vec": np.round(rng.standard_normal(64), 3).tolist()}
            for code in codes for sid in range(16 * copies)])
        shards = [shard_of(code, range(0, 16 * copies, copies))
                  for code in codes]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sets = read_jsonl(path, shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, sets)) == 64
        return peak - start

    def test_held_memory_does_not_grow_with_undrawn_records(self, tmp_path):
        """50 times the records, 0.8 MB more of float32 vectors that are
        not drawn, hold less than an eighth of that more: what stays of an
        undrawn record is its id."""
        self.held_bytes(tmp_path / "first.jsonl", 1)  # imports, caches
        few = self.held_bytes(tmp_path / "few.jsonl", 1)
        many = self.held_bytes(tmp_path / "many.jsonl", 50)
        undrawn = 4 * 16 * 49 * 64 * 4
        assert many - few < undrawn / 8, (few, many, undrawn)


class TestStoreReads:
    def test_a_language_is_read_when_used(self, tmp_path):
        path = tmp_path / "emb.npy"
        sets = [make_set("aa", np.ones((3, 4))), make_set("bb", np.ones((2, 4)))]
        write_store(sets, path)
        loaded = load_embeddings(path)
        path.write_bytes(path.read_bytes()[:-4])  # inside the last language
        assert loaded[0].matrix.tobytes() == sets[0].matrix.tobytes()
        with pytest.raises(ValidationError) as info:
            loaded[1].matrix
        assert str(info.value) == (f"{path}: unreadable embedding store: it "
                                   f"ends inside its rows")

    def test_centroids_hold_one_language_at_a_time(self, tmp_path):
        """The centroids of a 40-language store, 10 MB of rows, hold less
        than two languages' rows at once."""
        rng = np.random.default_rng(7)
        path = tmp_path / "emb.npy"
        sets = [make_set(f"l{k}", rng.standard_normal((256, 256)))
                for k in range(40)]
        write_store(sets, path)
        want = [r.vector.tobytes() for r in centroid_all(sets)]
        one_language = sets[0].matrix.nbytes
        del sets
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reps = centroid_all(load_embeddings(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.vector.tobytes() for r in reps] == want
        assert peak - start < 2 * one_language, (peak - start, one_language)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 768), (1, 1), (1728, 768),
                                       (10 ** 12, 10 ** 6)])
    def test_every_header_takes_the_same_bytes(self, shape):
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f4", "fortran_order": False, "shape": shape})
        assert len(header.getvalue()) == embedding._HEADER_BYTES


class TestPool:
    """What the fetch's thread pool promises, seen through
    :func:`fetch_embeddings` against the stub. Batch j is the one sentence
    "s<j>" of language "l<j>", sent with ``batch=1``."""

    @staticmethod
    def shards(n: int) -> list[CorpusShard]:
        return [CorpusShard(language=f"l{j}", sentences=((0, f"s{j}"),))
                for j in range(n)]

    @staticmethod
    def number(chunk) -> int:
        """The j of the batch ``chunk``."""
        [(_, text)] = chunk
        return int(text[1:])

    @staticmethod
    def sent(server) -> list[int]:
        """The batches posted to ``server``, in arrival order."""
        return [int(texts[0][1:]) for texts, _ in server.posts]

    def run_bounded(self, run):
        """``run()`` on a thread that must finish within 60 s, while the
        interpreter switches threads every microsecond."""
        outcome = {}

        def target():
            try:
                outcome["value"] = run()
            except Exception as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=target)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not thread.is_alive()
        return outcome

    def test_every_item_runs_once_and_lands_in_place(self, fetch,
                                                     embedding_server):
        """Every batch is sent once and its rows land in place. The first
        ``FETCH_WORKERS`` batches wait for each other, so no connection can
        drain the queue alone: each goes out on its own connection, and
        with the one ``/info`` was asked on there are no more."""
        server = embedding_server(dim=3)
        shards = self.shards(120)
        made, seen = [], []
        real_init = embedding._Connection.__init__
        real_batch = embedding._embed_batch
        everyone_started = threading.Barrier(FETCH_WORKERS, timeout=30)

        def init(conn, *args, **kwargs):
            real_init(conn, *args, **kwargs)
            made.append(conn)

        def batch(conn, chunk, dim):
            seen.append((conn, self.number(chunk)))
            if self.number(chunk) < FETCH_WORKERS:
                everyone_started.wait()
            return real_batch(conn, chunk, dim)

        def run():
            with mock.patch.object(embedding._Connection, "__init__", init), \
                    mock.patch.object(embedding, "_embed_batch", batch):
                return fetch(server.endpoint, shards, batch=1)

        outcome = self.run_bounded(run)
        assert [s.matrix.tobytes() for s in outcome["value"]] == [
            stub_rows([shard], 3).tobytes() for shard in shards]
        assert sorted(self.sent(server)) == list(range(len(shards)))
        assert sorted(j for _, j in seen) == list(range(len(shards)))
        first = {conn for conn, j in seen if j < FETCH_WORKERS}
        assert len(first) == FETCH_WORKERS
        assert {conn for conn, _ in seen} == first == set(made)

    def test_earliest_failure_is_raised_and_stops_new_items(
            self, fetch, embedding_server):
        """Batch 5 fails only after batch 9 has: batch 5's error is
        raised, and the batches after them are not all sent."""
        server = embedding_server(dim=3, fail_texts={"s9"}, fail_status=400,
                                  malformed_texts={"s5"})
        real_batch = embedding._embed_batch

        def batch(conn, chunk, dim):
            if self.number(chunk) == 5:
                deadline = time.monotonic() + 30
                while 9 not in self.sent(server) and time.monotonic() < deadline:
                    time.sleep(0.001)
            return real_batch(conn, chunk, dim)

        def run():
            with mock.patch.object(embedding, "_embed_batch", batch):
                return fetch(server.endpoint, self.shards(200), batch=1)

        outcome = self.run_bounded(run)
        assert str(outcome["error"]) == (
            f"{server.endpoint}/embed: response lacks a 'vectors' list")
        assert self.sent(server).index(9) < self.sent(server).index(5)
        assert len(server.posts) < 200

    def test_failure_drops_the_items_already_queued(self, fetch,
                                                    embedding_server):
        server = embedding_server(dim=3, fail_texts={"s0"}, fail_status=400)
        real_batch = embedding._embed_batch
        go = threading.Event()

        def batch(conn, chunk, dim):  # a request: it waits, off the GIL
            go.wait(timeout=30)
            return real_batch(conn, chunk, dim)

        def shards():
            yield from self.shards(200)
            go.set()  # every batch is queued before the first one fails

        def run():
            with mock.patch.object(embedding, "_embed_batch", batch):
                return fetch(server.endpoint, shards(), batch=1)

        outcome = self.run_bounded(run)
        assert str(outcome["error"]) == f"{server.endpoint}/embed answered 400"
        assert len(server.posts) < 200

    def test_items_run_while_later_ones_are_still_submitted(
            self, fetch, embedding_server):
        """Each batch reaches the service before the next shard is drawn,
        and every thread the fetch started has ended when it returns."""
        server = embedding_server(dim=3)
        arrived = []

        def shards():
            for j, shard in enumerate(self.shards(5)):
                yield shard
                deadline = time.monotonic() + 30
                while j not in self.sent(server) and time.monotonic() < deadline:
                    time.sleep(0.001)
                arrived.append(j in self.sent(server))

        def run():
            before = set(threading.enumerate())
            sets = fetch(server.endpoint, shards(), batch=1)
            assert set(threading.enumerate()) <= before
            return sets

        outcome = self.run_bounded(run)
        assert [s.language for s in outcome["value"]] == [
            f"l{j}" for j in range(5)]
        assert arrived == [True] * 5

    def test_error_while_submitting_drops_queued_items_and_joins(
            self, fetch, embedding_server):
        """The iterable raises once every worker holds a batch and the rest
        are queued: the queued batches are dropped, the held ones sent, and
        every thread the fetch started has ended when the error arrives."""
        server = embedding_server(dim=3)
        real_batch = embedding._embed_batch
        started = []
        release = threading.Event()

        def batch(conn, chunk, dim):
            started.append(self.number(chunk))
            release.wait(timeout=30)
            return real_batch(conn, chunk, dim)

        # the held batches go on once the error has dropped the queued ones
        timer = threading.Timer(0.5, release.set)

        def shards():
            yield from self.shards(50)
            deadline = time.monotonic() + 30
            while len(started) < FETCH_WORKERS and time.monotonic() < deadline:
                time.sleep(0.001)
            timer.start()
            raise KeyError("drawing failed")

        def run():
            before = set(threading.enumerate())
            try:
                with mock.patch.object(embedding, "_embed_batch", batch):
                    fetch(server.endpoint, shards(), batch=1)
            finally:
                assert not set(threading.enumerate()) - before - {timer}

        outcome = self.run_bounded(run)
        timer.join()
        assert isinstance(outcome["error"], KeyError)
        assert sorted(started) == list(range(FETCH_WORKERS))
        assert sorted(self.sent(server)) == list(range(FETCH_WORKERS))
