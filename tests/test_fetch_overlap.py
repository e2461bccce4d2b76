"""`all` with an endpoint sends each language's batches as soon as `sample`
has drawn it, and still ends every failure as a lone `sample` followed by a
lone `embed` would: the same exit code and message, the same workspace."""

import json
import re
import socket
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import KeepAlive, first_failure_record
from sprachbund import cli, embedding
from sprachbund.embedding import FETCH_WORKERS
from sprachbund.errors import ServiceError

LANGUAGES = ("ca", "de", "en", "es", "fr", "pt")  # drawn in this order
LINES = 5
BATCH = 2
PER_LANGUAGE = -(-LINES // BATCH)
BATCHES = len(LANGUAGES) * PER_LANGUAGE
EXAMPLES = settings(max_examples=5, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def corpus_text(code: str) -> bytes:
    return "".join(f"{code} sentence {i}\n" for i in range(LINES)).encode()


def batch_start(n: int) -> tuple[str, int]:
    """The language and first sentence id of the n-th batch sent."""
    return LANGUAGES[n // PER_LANGUAGE], BATCH * (n % PER_LANGUAGE)


def batch_number(texts: list[str]) -> int:
    """The n of :func:`batch_start` of the batch a post carries."""
    code, _, sid = texts[0].split()
    return LANGUAGES.index(code) * PER_LANGUAGE + int(sid) // BATCH


def make_run(root: Path, endpoint: str, damage: tuple[int, int] | None = None,
             **config) -> tuple[str, Path]:
    """A corpus and config in a new directory under ``root``; ``damage``
    puts an invalid UTF-8 byte into shard k at byte offset b. Returns the
    config path and the workspace."""
    base = Path(tempfile.mkdtemp(dir=root))
    corpus = base / "corpus"
    corpus.mkdir()
    for k, code in enumerate(LANGUAGES):
        text = corpus_text(code)
        if damage is not None and damage[0] == k:
            text = text[:damage[1]] + b"\xff" + text[damage[1]:]
        (corpus / f"{code}.txt").write_bytes(text)
    cfg = base / "config.json"
    cfg.write_text(json.dumps({
        "corpus_root": str(corpus), "endpoint": endpoint, "batch": BATCH,
        "out": str(base / "ws"), **config}), encoding="utf-8")
    return str(cfg), base / "ws"


def run_main(args: list[str]) -> int:
    before = set(threading.enumerate())
    rc = cli.main(args)
    # a keep-alive stub's connection threads end on their own once the
    # client has closed its connections
    after = {t for t in threading.enumerate()
             if not t.name.endswith("(process_request_thread)")}
    assert after <= before, "a pool thread outlived main"
    return rc


def statuses(ws: Path) -> list[tuple[str, str]]:
    return re.findall(r"^\S+ (\w+) digest=\w+ status=(ok|error)",
                      (ws / "run.log").read_text(encoding="utf-8"), re.M)


def assert_workspace(ws: Path, cfg: str, sampled: bool) -> None:
    """The workspace a lone `sample` then a failed `embed` leave, or a
    failed `sample` if not ``sampled``: no store, and no temporary file of
    one."""
    names = {p.name for p in ws.iterdir()}
    assert not names & {"embeddings.npy", "embeddings.json"}
    assert not [name for name in names if name.endswith(".tmp")], names
    if sampled:
        lone = ws.parent / "lone"
        assert cli.main(["sample", "--config", cfg, "--out", str(lone)]) == 0
        assert ((ws / "sampled.json").read_bytes()
                == (lone / "sampled.json").read_bytes())
        assert statuses(ws) == [("sample", "ok"), ("embed", "error")]
    else:
        assert "sampled.json" not in names
        assert statuses(ws) == [("sample", "error")]


def closed_port_endpoint() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def failing_run(tmp_path, embedding_server, capsys, case, n,
                hold=False) -> list[tuple[list[str], int]]:
    """`all` against a service that fails batch n as ``case`` says, with
    the failing reply, if ``hold``, reaching the pool only once the service
    has recorded every batch's post (at most 30 s later): exit 3 and its
    message, the workspace of a lone `sample`, and no batch that the pool
    takes after it records the failure reaches the service.

    The pool stops taking batches once it has recorded a failure, but each
    of the other workers may still be sending the one batch it holds; so
    at most ``FETCH_WORKERS - 1`` batches arrive after the record. Returns
    the posts the service recorded, in the order they arrived, which is
    up to the scheduler."""
    code, sid = batch_start(n)
    trigger = f"{code} sentence {sid}"
    server = embedding_server(**{
        "4xx": {"fail_texts": {trigger}, "fail_status": 400},
        "5xx": {"fail_texts": {trigger}, "fail_status": 503},
        "malformed": {"malformed_texts": {trigger}},
    }[case])
    url = f"{server.endpoint}/embed"
    message = {
        "4xx": f"{url} answered 400",
        "5xx": f"{url}: giving up after 4 attempts: {url} answered 503",
        "malformed": f"{url}: response lacks a 'vectors' list",
    }[case]
    cfg, ws = make_run(tmp_path, server.endpoint)
    real_batch = embedding._embed_batch
    timed_out = []

    def held(conn, chunk, dim):
        try:
            return real_batch(conn, chunk, dim)
        except ServiceError:
            deadline = time.monotonic() + 30
            while len(server.posts) < BATCHES:
                if time.monotonic() > deadline:
                    timed_out.append(len(server.posts))
                    break
                time.sleep(0.001)
            raise

    capsys.readouterr()
    with first_failure_record(server) as records, \
            mock.patch.object(embedding, "_embed_batch",
                              held if hold else real_batch):
        assert run_main(["all", "--config", cfg]) == 3
    assert not timed_out, (f"the service had recorded {timed_out[0]} of "
                           f"{BATCHES} posts 30 s after the failing one")
    assert capsys.readouterr().err == f"sprachbund: error: {message}\n"
    assert_workspace(ws, cfg, sampled=True)
    (arrived, taken), = records
    later = {batch_number(texts) for texts, _ in server.posts[arrived:]}
    assert all(b < taken for b in later), (later, taken)
    assert len(later) <= FETCH_WORKERS - 1
    return server.posts


class TestFailures:
    @pytest.mark.parametrize("case", ["4xx", "5xx", "malformed"])
    @given(n=st.integers(0, BATCHES - 1))
    @EXAMPLES
    def test_batch_n_fails(self, tmp_path, embedding_server, capsys, case, n):
        failing_run(tmp_path, embedding_server, capsys, case, n)

    @pytest.mark.parametrize("case", ["4xx", "malformed"])
    def test_a_late_failure_lets_taken_batches_through(
            self, tmp_path, embedding_server, capsys, case):
        """A failing reply held until every batch has reached the service:
        every other batch is taken and sent once before the record, more
        than ``FETCH_WORKERS`` of them. The pool's first batches go out at
        once, so some may arrive before the failing one."""
        posts = failing_run(tmp_path, embedding_server, capsys, case, 0,
                            hold=True)
        others = sorted(batch_number(texts) for texts, _ in posts
                        if batch_number(texts) != 0)
        assert others == list(range(1, BATCHES))
        assert len(others) > FETCH_WORKERS

    @given(n=st.integers(0, BATCHES - 1))
    @EXAMPLES
    def test_null_vector_names_the_missing_id(self, tmp_path, embedding_server,
                                              capsys, n):
        code, sid = batch_start(n)
        server = embedding_server(null_texts={f"{code} sentence {sid}"})
        cfg, ws = make_run(tmp_path, server.endpoint)
        capsys.readouterr()
        assert run_main(["all", "--config", cfg, "--json-errors"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "service", "language": code, "missing_ids": [sid],
            "message": f"embedding service returned no vector for 1 "
                       f"sentence(s) of '{code}': ids [{sid}]"}
        assert_workspace(ws, cfg, sampled=True)
        assert len(server.posts) == BATCHES  # a partial answer stops nothing

    def test_unreachable_info(self, tmp_path, capsys):
        endpoint = closed_port_endpoint()
        cfg, ws = make_run(tmp_path, endpoint)
        assert run_main(["all", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"sprachbund: error: {endpoint}/info: giving up "
                              f"after 4 attempts: "), err
        assert_workspace(ws, cfg, sampled=True)

    @given(k=st.integers(1, len(LANGUAGES) - 1),
           offset=st.integers(0, len(corpus_text("xx")) - 1))
    @EXAMPLES
    def test_invalid_shard_while_requests_are_in_flight(
            self, tmp_path, embedding_server, capsys, k, offset):
        # each answer takes 20 ms, so earlier languages' batches are at the
        # service when shard k fails
        server = embedding_server(on_post=lambda texts: time.sleep(0.02))
        cfg, ws = make_run(tmp_path, server.endpoint, damage=(k, offset))
        path = Path(cfg).parent / "corpus" / f"{LANGUAGES[k]}.txt"
        capsys.readouterr()
        assert run_main(["all", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"sprachbund: error: {path}: invalid UTF-8 at byte offset "
            f"{offset}\n")
        assert_workspace(ws, cfg, sampled=False)
        sent = {text.split()[0] for texts, _ in server.posts for text in texts}
        assert sent <= set(LANGUAGES[:k])

    def test_sampling_error_wins_over_unreachable_info(self, tmp_path, capsys):
        cfg, ws = make_run(tmp_path, closed_port_endpoint(), damage=(3, 0))
        assert run_main(["all", "--config", cfg]) == 2
        assert "invalid UTF-8 at byte offset 0" in capsys.readouterr().err
        assert_workspace(ws, cfg, sampled=False)


class TestOverlap:
    CONFIG = {"tsne": {"perplexity": 1.5, "iterations": 300}}

    def test_batches_leave_while_later_languages_are_drawn(
            self, tmp_path, embedding_server, monkeypatch):
        server = embedding_server()
        seen = []
        real = cli.ingest_shard

        def ingest(path, language, registry):
            if language == LANGUAGES[-1]:
                limit = time.monotonic() + 10
                while not server.posts and time.monotonic() < limit:
                    time.sleep(0.005)
                seen.append(len(server.posts))
            return real(path, language, registry)

        monkeypatch.setattr(cli, "ingest_shard", ingest)
        cfg, _ = make_run(tmp_path, server.endpoint, **self.CONFIG)
        assert run_main(["all", "--config", cfg]) == 0
        assert seen and seen[0] > 0

    def test_sampled_json_is_written_before_the_replies(self, tmp_path,
                                                        embedding_server):
        written = []

        def hold(texts):
            limit = time.monotonic() + 10
            while (time.monotonic() < limit
                   and not (ws / "sampled.json").exists()):
                time.sleep(0.005)
            written.append(time.monotonic() < limit)

        server = embedding_server(on_post=hold)
        cfg, ws = make_run(tmp_path, server.endpoint, **self.CONFIG)
        assert run_main(["all", "--config", cfg]) == 0
        assert written and all(written)

    def test_all_equals_the_stages_run_one_by_one(self, tmp_path,
                                                  embedding_server):
        server = embedding_server(dim=6)
        cfg, ws = make_run(tmp_path, server.endpoint, **self.CONFIG)
        assert run_main(["all", "--config", cfg]) == 0
        stages = ws.parent / "stages"
        for stage in cli.STAGE_ORDER:
            assert cli.main([stage, "--config", cfg, "--out", str(stages)]) == 0

        def files(d):
            return {p.name: p.read_bytes() for p in d.iterdir()
                    if p.name != "run.log"}

        def embed_line(d):
            return re.findall(r" (embed http_requests=\d+ http_retries=\d+ "
                              r"vectors=\d+) ",
                              (d / "run.log").read_text(encoding="utf-8"))

        assert files(ws) == files(stages)
        assert embed_line(ws) == embed_line(stages) == [
            f"embed http_requests={BATCHES + 1} http_retries=0 "
            f"vectors={len(LANGUAGES) * LINES}"]


class TestFailuresKeepAlive(KeepAlive, TestFailures):
    """The same failures over connections the service keeps open. Its
    hypothesis tests run the same bodies at fixed examples, since
    hypothesis runs a test for the instances of one class only."""

    @pytest.mark.parametrize("case", ["4xx", "5xx", "malformed"])
    @pytest.mark.parametrize("n", [0, BATCHES // 2, BATCHES - 1])
    def test_batch_n_fails(self, tmp_path, embedding_server, capsys, case, n):
        failing_run(tmp_path, embedding_server, capsys, case, n)

    @pytest.mark.parametrize("n", [0, BATCHES - 1])
    def test_null_vector_names_the_missing_id(self, tmp_path, embedding_server,
                                              capsys, n):
        TestFailures.test_null_vector_names_the_missing_id.hypothesis \
            .inner_test(self, tmp_path, embedding_server, capsys, n)

    @pytest.mark.parametrize("k, offset", [(1, 0), (len(LANGUAGES) - 1, 13)])
    def test_invalid_shard_while_requests_are_in_flight(
            self, tmp_path, embedding_server, capsys, k, offset):
        TestFailures.test_invalid_shard_while_requests_are_in_flight \
            .hypothesis.inner_test(self, tmp_path, embedding_server, capsys,
                                   k, offset)


class TestOverlapKeepAlive(KeepAlive, TestOverlap):
    """The same runs over connections the service keeps open."""


class TestNoStoreLeftBehind:
    """A run whose fetch fails after rows went into the store's temporary
    file leaves neither the store nor that file, under `all` and under a
    lone `embed` alike."""

    @pytest.fixture(params=["http/1.0", "keep-alive"])
    def server_kwargs(self, request):
        return {"keep_alive": request.param == "keep-alive"}

    CASES = {
        # the last batch fails: every other batch's rows are in the file
        "4xx": ({"fail_texts": {"pt sentence 4"}, "fail_status": 400}, 3,
                "{url}/embed answered 400"),
        "null": ({"null_texts": {"pt sentence 4"}}, 3,
                 "embedding service returned no vector for 1 sentence(s) "
                 "of 'pt': ids [4]"),
        "non-finite": ({"vectors_for": {"fr sentence 3": [1e39, 0.5, 0.5,
                                                           0.5]}}, 2,
                       "non-finite component in vector for lang=fr id=3"),
        "string": ({"vectors_for": {"de sentence 1": [0.5, "0.5", 0.5,
                                                      0.5]}}, 3,
                   "{url}/embed: vectors are not lists of numbers: a vector "
                   "component is a string"),
    }

    @pytest.mark.parametrize("lone", [False, True], ids=["all", "embed"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_fetch(self, tmp_path, embedding_server, capsys,
                          server_kwargs, case, lone):
        config, code, message = self.CASES[case]
        server = embedding_server(dim=4, **config, **server_kwargs)
        cfg, ws = make_run(tmp_path, server.endpoint)
        if lone:
            assert run_main(["sample", "--config", cfg]) == 0
        capsys.readouterr()
        assert run_main(["embed" if lone else "all", "--config", cfg]) == code
        assert capsys.readouterr().err == (
            f"sprachbund: error: {message.format(url=server.endpoint)}\n")
        assert_workspace(ws, cfg, sampled=True)
        assert sorted(p.name for p in ws.iterdir()) == ["run.log",
                                                        "sampled.json"]

    def test_old_store_is_kept(self, tmp_path, embedding_server, capsys):
        server = embedding_server(dim=4)
        cfg, ws = make_run(tmp_path, server.endpoint)
        for stage in ("sample", "embed"):
            assert run_main([stage, "--config", cfg]) == 0
        before = {name: (ws / name).read_bytes()
                  for name in ("embeddings.npy", "embeddings.json")}
        server.fail_texts = {"ca sentence 0"}
        server.fail_status = 400
        assert run_main(["embed", "--config", cfg]) == 3
        assert {name: (ws / name).read_bytes() for name in before} == before
        assert not [p for p in ws.iterdir() if p.name.endswith(".tmp")]
