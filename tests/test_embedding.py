import json
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import (json_load_representations, json_write_representations,
                       line_load_embeddings)
from sprachbund import embedding
from sprachbund.corpus import CorpusShard
from sprachbund.embedding import (FETCH_WORKERS, FetchStats,
                                  LanguageRepresentation, SentenceEmbeddingSet,
                                  _Pool, centroid, centroid_all,
                                  fetch_embeddings, load_embeddings,
                                  load_representations, write_embeddings,
                                  write_representations)
from sprachbund.errors import (PartialEmbeddingError, ServiceError,
                               ValidationError)
from sprachbund.simmatrix import build_matrix


def make_set(language, matrix, ids=None):
    matrix = np.asarray(matrix, dtype=np.float32)
    ids = tuple(range(len(matrix))) if ids is None else tuple(ids)
    return SentenceEmbeddingSet(language=language, dim=matrix.shape[1],
                                ids=ids, matrix=matrix)


def write_jsonl(path, header, records):
    lines = [json.dumps(header)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadEmbeddings:
    def test_groups_by_language(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 4}, [
            {"lang": "aa", "id": i, "vec": [float(i), 0.0, 0.0, 1.0]}
            for i in range(3)
        ] + [
            {"lang": "bb", "id": i, "vec": [0.0, float(i), 1.0, 0.0]}
            for i in range(3)
        ])
        sets = load_embeddings(path)
        assert [s.language for s in sets] == ["aa", "bb"]
        assert all(s.dim == 4 and len(s) == 3 for s in sets)

    def test_dimension_mismatch_names_record(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 4}, [
            {"lang": "aa", "id": 0, "vec": [1.0, 2.0, 3.0, 4.0]},
            {"lang": "aa", "id": 1, "vec": [1.0, 2.0, 3.0, 4.0, 5.0]},
        ])
        with pytest.raises(ValidationError, match="lang=aa id=1"):
            load_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, {"v": 1, "dim": 2}, [
            {"lang": "aa", "id": 0, "vec": [1.0, float("nan")]},
        ])
        with pytest.raises(ValidationError, match="non-finite"):
            load_embeddings(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"lang": "aa", "id": 0, "vec": [1.0]}\n',
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, message", [
        ('{"v": 1, "dim": 2}\n{"lang": "aa", "id": "x", "vec": [1.0, 2.0]}\n',
         'line 2: lang must be a string and id an integer, got "aa" and "x"'),
        ('{"v": 1, "dim": 2}\n{"lang": "aa", "id": 0, "vec": 5}\n',
         "line 2: vector for lang=aa id=0 must be a list of 2 numbers"),
        ('{"v": 1, "dim": "two"}\n{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n',
         "line 1: expected the header"),
        ('\n{"v": 1, "dim": 2}\n{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n',
         "line 1: expected the header"),
    ], ids=["id-not-int", "vec-a-number", "dim-not-int", "blank-first-line"])
    def test_ill_typed_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "emb.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        sets = [make_set("aa", rng.standard_normal((4, 6))),
                make_set("bb", rng.standard_normal((2, 6)), np.array([5, 2]))]
        path = tmp_path / "emb.jsonl"
        write_embeddings(sets, path)
        loaded = load_embeddings(path)
        for orig, back in zip(sets, loaded):
            assert back.language == orig.language
            assert back.ids == orig.ids
            assert np.array_equal(back.matrix, orig.matrix)


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
}


def _load_outcome(loader, path):
    """``loader``'s sets as comparable tuples, or its error message."""
    try:
        with np.errstate(over="ignore"):  # the line loader warns on 1e39
            sets = loader(path)
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    return [(s.language, s.dim, s.ids, s.matrix.dtype.str, s.matrix.shape,
             s.matrix.tobytes()) for s in sets]


@st.composite
def jsonl_files(draw):
    """A JSON Lines embedding file: a header, records of a few languages in
    any order, blank lines, and line or vector faults at random lines."""
    dim = draw(st.integers(1, 4))
    number = (st.floats(-3e38, 3e38, allow_nan=False) | st.integers(-99, 99)
              | st.booleans() | st.sampled_from([0.1, -0.0, 5e-324, 1e-46]))
    lines = [json.dumps({"v": 1, "dim": dim}).encode()]
    ids: dict[str, int] = {}
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t"])))
            continue
        lang = draw(st.sampled_from(["aa", "bb", "cc"]))
        ids[lang] = ids.get(lang, -1) + 1 + draw(st.integers(0, 2))
        vec = draw(st.lists(number, min_size=dim, max_size=dim))
        lines.append(json.dumps({"lang": lang, "id": ids[lang],
                                 "vec": vec}).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        if draw(st.booleans()):
            bad = _LINE_FAULTS[draw(st.sampled_from(sorted(_LINE_FAULTS)))]
        else:
            vec = _VECTOR_FAULTS[draw(st.sampled_from(sorted(_VECTOR_FAULTS)))]
            bad = json.dumps({"lang": "zz", "id": at, "vec": vec(dim)}).encode()
        lines.insert(at, bad)
    return b"\n".join(lines) + b"\n"


class TestJsonlOracle:
    """``load_embeddings`` on JSON Lines against ``line_load_embeddings``
    (reference.py), which converts and checks each line before reading the
    next: the sets are equal to the bit, or the error message is."""

    @settings(max_examples=300, deadline=None)
    @given(text=jsonl_files(), chunk=st.sampled_from([1, 3, 8, 1 << 12]))
    @example(text=b'{"v": 1, "dim": 2}\n'
                  b'{"lang": "aa", "id": 0, "vec": [1.0, 2.0]}\n'
                  b'{"lang": "aa", "id": 1, "vec": [1.0]}\n'
                  b'{"lang": "aa", "id": 2, "vec": [1.0, 2.0]}\n'
                  b'{"lang": "aa", "id": 3, "vec": [1.0, 2.0]\n',
             chunk=1 << 12)
    def test_sets_or_message_match_the_line_loader(self, text, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.jsonl"
            path.write_bytes(text)
            with mock.patch.object(embedding, "_CHUNK_VALUES", chunk):
                got = _load_outcome(load_embeddings, path)
            assert got == _load_outcome(line_load_embeddings, path)

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
            load_embeddings(path)
        assert _load_outcome(load_embeddings, path) == _load_outcome(
            line_load_embeddings, path)

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
                load_embeddings(path)
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
            store, jsonl = Path(tmp) / "emb.npy", Path(tmp) / "emb.jsonl"
            write_embeddings(sets, store)
            write_embeddings(sets, jsonl)
            loaded = load_embeddings(store)
            assert [s.language for s in loaded] == [s.language for s in sets]
            for orig, back in zip(sets, loaded):
                assert back.ids == orig.ids
                assert back.matrix.tobytes() == orig.matrix.tobytes()
            # JSON Lines has no record for a language without rows
            from_store = {r.language: r for r in
                          centroid_all([s for s in loaded if len(s)])}
            from_jsonl = centroid_all(load_embeddings(jsonl))
            assert sorted(from_store) == sorted(r.language for r in from_jsonl)
            for rep in from_jsonl:
                assert ([float(x).hex() for x in from_store[rep.language].vector]
                        == [float(x).hex() for x in rep.vector])

    def test_layout_is_little_endian_float32_in_language_order(self, tmp_path):
        sets = [make_set("aa", [[1.0, 2.0]]),
                make_set("bb", [[3.0, 4.0], [5.0, 6.0]], [9, 4])]
        write_embeddings(sets, tmp_path / "emb.npy",
                         extra_header={"config_digest": "abc"})
        matrix = np.load(tmp_path / "emb.npy")
        assert matrix.dtype == np.dtype("<f4")
        assert matrix.tolist() == [[1, 2], [3, 4], [5, 6]]
        index = json.loads((tmp_path / "emb.json").read_text())
        assert index == {"v": 1, "config_digest": "abc", "dim": 2,
                         "languages": [{"lang": "aa", "ids": [0]},
                                       {"lang": "bb", "ids": [9, 4]}]}

    def damaged(self, tmp_path):
        path = tmp_path / "emb.npy"
        write_embeddings([make_set("aa", np.ones((3, 4)))], path)
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

    def test_batching(self, embedding_server):
        server = embedding_server(dim=4)
        [out] = fetch_embeddings(server.endpoint, [self.shard(10)], batch=4)
        assert server.embed_requests == 3
        # pooled connections reach the server in no fixed order
        assert sorted(server.batches) == [
            [f"text {i}" for i in range(0, 4)],
            [f"text {i}" for i in range(4, 8)],
            [f"text {i}" for i in range(8, 10)]]
        assert len(out) == 10 and out.dim == 4
        assert out.ids == tuple(range(10))

    def test_keep_alive_connections_are_closed(self, embedding_server):
        """A service that keeps connections open: every socket the fetch
        opened is closed when it returns (one left open fails the test as
        a ResourceWarning)."""
        server = embedding_server(dim=4, keep_alive=True)
        [out] = fetch_embeddings(server.endpoint, [self.shard(10)], batch=4)
        assert server.embed_requests == 3
        assert out.ids == tuple(range(10))

    def test_empty_shard_zero_embed_requests(self, embedding_server):
        server = embedding_server(dim=4)
        [out] = fetch_embeddings(server.endpoint, [self.shard(0)], batch=4)
        assert server.embed_requests == 0
        assert len(out) == 0 and out.dim == 4

    def test_partial_failure_lists_missing_ids(self, embedding_server):
        server = embedding_server(dim=4, truncate_batch=1)
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch_embeddings(server.endpoint, [self.shard(10)], batch=10)
        assert excinfo.value.missing_ids == [9]

    def test_null_vector_counts_as_missing(self, embedding_server):
        server = embedding_server(dim=4, null_texts=frozenset({"text 3"}))
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch_embeddings(server.endpoint, [self.shard(5)], batch=2)
        assert excinfo.value.missing_ids == [3]

    def test_transient_500_is_retried(self, embedding_server):
        server = embedding_server(dim=4, fail_posts=2)
        [out] = fetch_embeddings(server.endpoint, [self.shard(4)], batch=4,
                                 retries=3, retry_wait=0.01)
        assert len(out) == 4
        assert server.embed_requests == 3  # two failures plus the success

    def test_persistent_500_gives_service_error(self, embedding_server):
        server = embedding_server(dim=4, fail_posts=100)
        with pytest.raises(ServiceError, match="giving up"):
            fetch_embeddings(server.endpoint, [self.shard(4)], batch=4,
                             retries=1, retry_wait=0.01)

    def test_connection_error(self):
        with pytest.raises(ServiceError):
            fetch_embeddings("http://127.0.0.1:9", [self.shard(2)], batch=2,
                             retries=0, retry_wait=0.01)

    def test_malformed_response_is_protocol_error(self, embedding_server):
        server = embedding_server(dim=4, malformed=True)
        with pytest.raises(ServiceError, match="vectors"):
            fetch_embeddings(server.endpoint, [self.shard(2)], batch=2)

    def test_wrong_dimension_is_protocol_error(self, embedding_server):
        server = embedding_server(dim=4, wrong_dim=5)
        with pytest.raises(ServiceError, match="declared 4"):
            fetch_embeddings(server.endpoint, [self.shard(2)], batch=2)

    def test_auth_token_sent_as_bearer(self, embedding_server):
        server = embedding_server(dim=4)
        fetch_embeddings(server.endpoint, [self.shard(2)], batch=2,
                         auth_token="sesame")
        assert server.auth_headers == ["Bearer sesame"]

    def test_429_is_retried(self, embedding_server):
        server = embedding_server(dim=4, fail_posts=2, fail_status=429)
        stats = FetchStats()
        [out] = fetch_embeddings(server.endpoint, [self.shard(4)], batch=4,
                                 retry_wait=0.01, stats=stats)
        assert len(out) == 4
        assert server.embed_requests == 3
        assert (stats.requests, stats.retries) == (4, 2)  # /info counts too

    def test_4xx_is_not_retried(self, embedding_server):
        server = embedding_server(dim=4, fail_posts=1, fail_status=404)
        with pytest.raises(ServiceError, match="answered 404"):
            fetch_embeddings(server.endpoint, [self.shard(4)], batch=4,
                             retry_wait=0.01)
        assert server.embed_requests == 1

    def test_non_http_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="http"):
            fetch_embeddings("localhost:9", [self.shard(2)], batch=2)

    def test_integer_beyond_float_is_a_service_error(self, embedding_server):
        server = embedding_server(
            dim=2, vectors_for={"text 1": [10 ** 400, 1.0]})
        with pytest.raises(ServiceError) as info:
            fetch_embeddings(server.endpoint, [self.shard(3)], batch=2)
        assert str(info.value) == (f"{server.endpoint}/embed: a vector holds "
                                   f"a number beyond float range")

    def test_float32_overflow_is_non_finite_without_warning(
            self, embedding_server):
        server = embedding_server(dim=2, vectors_for={"text 2": [1e39, 1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite .* id=2"):
                fetch_embeddings(server.endpoint, [self.shard(3)], batch=2)

    def test_vectors_reassembled_by_id(self, embedding_server):
        server = embedding_server(dim=4)
        shard = CorpusShard(language="aa",
                            sentences=((5, "five"), (2, "two"), (9, "nine")))
        [out] = fetch_embeddings(server.endpoint, [shard], batch=2)
        assert out.ids == (2, 5, 9)

    @staticmethod
    def spy_replies(monkeypatch) -> list[np.ndarray]:
        """Collects the float32 rows of every reply, as they are parsed."""
        replies = []
        parse = embedding._embed_batch

        def spy(conn, chunk, dim):
            ids, rows, missing = parse(conn, chunk, dim)
            replies.append(rows)
            return ids, rows, missing
        monkeypatch.setattr(embedding, "_embed_batch", spy)
        return replies

    def test_one_reply_in_id_order_becomes_the_set(self, embedding_server,
                                                   monkeypatch):
        server = embedding_server(dim=4)
        replies = self.spy_replies(monkeypatch)
        shards = [self.shard(3),
                  CorpusShard(language="bb",
                              sentences=((0, "x"), (4, "y"), (7, "z")))]
        outs = fetch_embeddings(server.endpoint, shards, batch=4)
        assert len(replies) == 2
        for out in outs:
            assert sum(np.shares_memory(out.matrix, rows)
                       for rows in replies) == 1

    @pytest.mark.parametrize("order, batch", [
        ((0, 1, 2, 3, 4, 5, 6), 3),  # in order, three batches
        ((6, 2, 5, 0, 4), 9),  # out of order, one batch
        ((9, 2, 5, 0, 7, 1), 2),  # out of order, three batches
    ])
    def test_batches_and_order_come_back_sorted(self, embedding_server,
                                                monkeypatch, order, batch):
        server = embedding_server(dim=4)
        shard = CorpusShard(language="aa",
                            sentences=tuple((i, f"text {i}") for i in order))
        by_id = CorpusShard(language="aa",
                            sentences=tuple(sorted(shard.sentences)))
        [want] = fetch_embeddings(server.endpoint, [by_id], batch=len(order))
        replies = self.spy_replies(monkeypatch)
        [got] = fetch_embeddings(server.endpoint, [shard], batch=batch)
        assert got.ids == want.ids == tuple(sorted(order))
        assert got.matrix.tobytes() == want.matrix.tobytes()
        # stacked or sorted: the set owns a copy
        assert not any(np.shares_memory(got.matrix, rows) for rows in replies)


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

    def test_equals_per_language_sequential_fetches(self, embedding_server):
        # the first six posts fail; with a pool they are batches of several
        # languages
        flaky = embedding_server(dim=5, fail_posts=6)
        stats = FetchStats()
        pooled = fetch_embeddings(flaky.endpoint, self.shards(), batch=2,
                                  retry_wait=0.001, stats=stats)
        steady = embedding_server(dim=5)
        sequential = [fetch_embeddings(steady.endpoint, [shard], batch=2)[0]
                      for shard in self.shards()]
        assert [s.language for s in pooled] == list(self.SIZES)
        for a, b in zip(pooled, sequential):
            assert a.language == b.language
            assert a.ids == b.ids == tuple(sorted(a.ids))
            assert a.matrix.tobytes() == b.matrix.tobytes()
        batches = sum((n + 1) // 2 for n in self.SIZES.values())
        assert flaky.embed_requests == batches + 6
        assert flaky.info_requests == 1
        assert (stats.requests, stats.retries) == (1 + batches + 6, 6)

    def test_first_hard_failure_stops_new_requests(self, embedding_server):
        server = embedding_server(dim=4, fail_posts=1, fail_status=400)
        shards = [CorpusShard(language=f"l{i:02d}", sentences=((0, f"s{i}"),))
                  for i in range(40)]
        with pytest.raises(ServiceError, match="answered 400"):
            fetch_embeddings(server.endpoint, shards, batch=1, retry_wait=0.01)
        assert server.embed_requests <= 2 * FETCH_WORKERS

    def test_partial_names_first_language_after_all_batches(
            self, embedding_server):
        server = embedding_server(
            dim=4, null_texts=frozenset({"cc text 0", "ee text 3"}))
        shards = [CorpusShard(language=code, sentences=tuple(
                      (i, f"{code} text {i}") for i in range(4)))
                  for code in ("aa", "cc", "dd", "ee")]
        with pytest.raises(PartialEmbeddingError) as excinfo:
            fetch_embeddings(server.endpoint, shards, batch=2)
        assert excinfo.value.language == "cc"
        assert excinfo.value.missing_ids == [0]
        assert server.embed_requests == 8


def _pooled(conns, items, task):
    """``task(conn, item)`` for every item through a :class:`_Pool` whose
    threads take their connections from ``conns``."""
    with _Pool([], iter(conns).__next__, task) as pool:
        for item in items:
            pool.submit(item)
        return pool.results()


class TestPool:
    def run_bounded(self, *args, run=_pooled):
        """``run(*args)`` on a thread that must finish within 60 s."""
        outcome = {}

        def target():
            try:
                outcome["value"] = run(*args)
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

    def test_every_item_runs_once_and_lands_in_place(self):
        seen = []
        # the first FETCH_WORKERS items wait for each other, so no connection
        # can drain the queue alone: each must take one of them
        everyone_started = threading.Barrier(FETCH_WORKERS, timeout=30)

        def task(conn, item):
            seen.append((conn, item))
            if item < FETCH_WORKERS:
                everyone_started.wait()
            return item * 3

        items = list(range(3000))
        outcome = self.run_bounded(list(range(FETCH_WORKERS)), items, task)
        assert outcome["value"] == [i * 3 for i in items]
        assert sorted(item for _, item in seen) == items
        assert len({conn for conn, _ in seen}) > 1
        assert {conn for conn, item in seen if item < FETCH_WORKERS} == \
            set(range(FETCH_WORKERS))

    def test_earliest_failure_is_raised_and_stops_new_items(self):
        started = []

        def task(conn, item):
            started.append(item)
            if item in (5, 9):
                raise ValueError(f"item {item}")
            return item

        outcome = self.run_bounded(list(range(FETCH_WORKERS)),
                                   list(range(1000)), task)
        assert str(outcome["error"]) == "item 5"
        assert len(started) < 1000

    def test_failure_drops_the_items_already_queued(self):
        started = []
        go = threading.Event()

        def task(conn, item):  # a request: it waits, off the GIL
            started.append(item)
            go.wait(timeout=30)
            if item == 0:
                raise ValueError("item 0")
            time.sleep(0.001)
            return item

        def queue_all_then_fail(conns):
            with _Pool([], iter(conns).__next__, task) as pool:
                for item in range(1000):
                    pool.submit(item)
                go.set()  # every item is queued before the first one fails
                return pool.results()

        outcome = self.run_bounded(list(range(FETCH_WORKERS)),
                                   run=queue_all_then_fail)
        assert str(outcome["error"]) == "item 0"
        assert len(started) < 1000

    def test_items_run_while_later_ones_are_still_submitted(self):
        done = [threading.Event() for _ in range(5)]

        def task(conn, item):
            done[item].set()
            return item

        def submit_after_each_ran(conns):
            before = set(threading.enumerate())
            with _Pool([], iter(conns).__next__, task) as pool:
                for item in range(5):
                    pool.submit(item)
                    assert done[item].wait(timeout=30), item
                results = pool.results()
            assert set(threading.enumerate()) <= before
            return results

        outcome = self.run_bounded(list(range(FETCH_WORKERS)),
                                   run=submit_after_each_ran)
        assert outcome["value"] == [0, 1, 2, 3, 4]

    def test_error_while_submitting_drops_queued_items_and_joins(self):
        started = []
        release = threading.Event()

        def task(conn, item):
            started.append(item)
            release.wait(timeout=30)
            return item

        # the running items end once leaving the block has dropped the
        # queued ones
        timer = threading.Timer(0.5, release.set)

        def fail_while_submitting(conns):
            before = set(threading.enumerate())
            try:
                with _Pool([], iter(conns).__next__, task) as pool:
                    for item in range(50):
                        pool.submit(item)
                    timer.start()
                    raise KeyError("drawing failed")
            finally:
                assert not set(threading.enumerate()) - before - {timer}

        outcome = self.run_bounded(list(range(FETCH_WORKERS)),
                                   run=fail_while_submitting)
        timer.join()
        assert isinstance(outcome["error"], KeyError)
        assert sorted(started) == list(range(FETCH_WORKERS))
