from __future__ import annotations

import json
import threading
from http.server import (BaseHTTPRequestHandler, HTTPServer,
                         ThreadingHTTPServer)

import numpy as np
import pytest

from sprachbund.registry import LanguageRecord, Registry


@pytest.fixture
def toy_registry() -> Registry:
    return Registry([
        LanguageRecord("aa", family="Alpha",
                       syntax={"word_order": "SVO", "adjective_position": "AN"}),
        LanguageRecord("bb", family="Alpha", syntax={"word_order": "SVO"}),
        LanguageRecord("cc", family="Beta", syntax={"word_order": "SOV"}),
        LanguageRecord("dd", family="Beta"),
        LanguageRecord("ee", family=None),
    ])


def _default_vector(text: str, dim: int) -> list[float]:
    seed = sum(text.encode("utf-8")) % (2 ** 31)
    rng = np.random.default_rng(seed)
    return [float(x) for x in rng.standard_normal(dim)]


class _QueuedHTTPServer(HTTPServer):
    # room in the listen queue for every connection of a client's pool
    request_queue_size = 32


class StubEmbeddingServer:
    """Tiny in-process embedding service for exercising the HTTP client.

    GET /info -> {"dim": dim}; POST /embed -> {"vectors": [...]} with
    configurable misbehavior: fail the first N posts, or every post holding
    one of ``fail_texts``, with ``fail_status`` (500 by default); answer
    without a vector list (every post if ``malformed``, else those holding
    one of ``malformed_texts``); truncate the response of a given batch;
    answer null for chosen texts; or answer a given list, such as one
    holding a number no float can hold, for the texts in ``vectors_for``.
    ``on_post(texts)``, if given, runs before
    each post is answered. Requests are served one at a time, in arrival
    order, and each connection is closed after its answer (HTTP/1.0);
    ``posts`` records each post's texts and answer status. With
    ``keep_alive``, connections stay open until the client closes them
    (HTTP/1.1), each served by its own thread.
    """

    def __init__(self, dim: int = 4, fail_posts: int = 0,
                 fail_status: int = 500,
                 fail_texts: frozenset[str] = frozenset(),
                 truncate_batch: int | None = None,
                 null_texts: frozenset[str] = frozenset(),
                 malformed: bool = False,
                 malformed_texts: frozenset[str] = frozenset(),
                 wrong_dim: int | None = None, on_post=None,
                 vectors_for: dict[str, list] | None = None,
                 keep_alive: bool = False):
        self.dim = dim
        self.fail_posts = fail_posts
        self.fail_status = fail_status
        self.fail_texts = set(fail_texts)
        self.truncate_batch = truncate_batch
        self.null_texts = set(null_texts)
        self.malformed = malformed
        self.malformed_texts = set(malformed_texts)
        self.wrong_dim = wrong_dim
        self.on_post = on_post
        self.vectors_for = dict(vectors_for or {})
        self.info_requests = 0
        self.embed_requests = 0
        self.batches: list[list[str]] = []
        self.posts: list[tuple[list[str], int]] = []
        self.auth_headers: list[str | None] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def _send(self, code: int, payload: dict):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/info":
                    outer.info_requests += 1
                    self._send(200, {"dim": outer.dim})
                else:
                    self._send(404, {})

            def do_POST(self):
                if self.path != "/embed":
                    self._send(404, {})
                    return
                outer.embed_requests += 1
                outer.auth_headers.append(self.headers.get("Authorization"))
                length = int(self.headers["Content-Length"])
                texts = json.loads(self.rfile.read(length))["texts"]
                if outer.on_post is not None:
                    outer.on_post(texts)
                if (outer.embed_requests <= outer.fail_posts
                        or outer.fail_texts.intersection(texts)):
                    outer.posts.append((texts, outer.fail_status))
                    self._send(outer.fail_status, {"error": "flaky"})
                    return
                outer.posts.append((texts, 200))
                if outer.malformed or outer.malformed_texts.intersection(texts):
                    self._send(200, {"unexpected": True})
                    return
                outer.batches.append(texts)
                vec_dim = outer.wrong_dim or outer.dim
                vectors = [
                    None if t in outer.null_texts
                    else outer.vectors_for.get(t) or _default_vector(t, vec_dim)
                    for t in texts
                ]
                if outer.truncate_batch == len(outer.batches):
                    vectors = vectors[:-1]
                self._send(200, {"vectors": vectors})

        if keep_alive:
            self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        else:
            self._server = _QueuedHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def embedding_server():
    servers = []

    def factory(**kwargs) -> StubEmbeddingServer:
        server = StubEmbeddingServer(**kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()
