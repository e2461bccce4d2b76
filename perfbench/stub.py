"""Stub embedding service for the paper-http workload, run as its own process.

``GET /info`` declares the dimension and ``POST /embed`` answers
``{"vectors": [...]}`` positionally, like the real service. Each sentence
text starts with its language code and line number; the vector is one of a
few precomputed, pre-encoded vectors around that language's planted
centroid, so the service spends almost no CPU of its own. Every POST waits a
fixed service time, every Nth POST answers 503, and at most ``nproc``
connections are served at once. ``GET /stats`` reports what the service saw:
requests, 5xx answers, summed service time and its own CPU time.

    python3 perfbench/stub.py --workload paper-http --seed 1 --port-file port.txt

The port is written to ``--port-file`` once the vectors are ready; the
process serves until it receives SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from generate import VectorText, plan, sentence_vectors

POOL = 16
SERVICE_S = 0.020
FAIL_EVERY = 25


class StubService(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, vectors: dict[str, list[str]], dim: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.vectors = vectors
        self.dim = dim
        self.slots = threading.BoundedSemaphore(os.cpu_count() or 1)
        self.lock = threading.Lock()
        self.stats = {"requests": 0, "posts": 0, "errors_5xx": 0,
                      "service_s": 0.0}

    def process_request(self, request, client_address):
        # a connection beyond nproc waits in the listen backlog
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()

    def count(self, **deltas) -> int:
        with self.lock:
            for key, delta in deltas.items():
                self.stats[key] += delta
            return self.stats["posts"]


class _Handler(BaseHTTPRequestHandler):
    server: StubService

    def log_message(self, *args):
        pass

    def _send(self, code: int, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/info":
            self.server.count(requests=1)
            self._send(200, json.dumps({"dim": self.server.dim}).encode())
        elif self.path == "/stats":
            with self.server.lock:
                stats = dict(self.server.stats)
            stats["cpu_s"] = time.process_time()
            self._send(200, json.dumps(stats).encode())
        else:
            self._send(404, b"{}")

    def do_POST(self):
        start = time.perf_counter()
        posts = self.server.count(requests=1, posts=1)
        length = int(self.headers.get("Content-Length", 0))
        payload = self.rfile.read(length)
        if self.path != "/embed":
            self._send(404, b"{}")
            return
        if posts % FAIL_EVERY == 0:
            self.server.count(errors_5xx=1)
            self._send(503, b'{"error": "unavailable"}')
            return
        rows = []
        for text in json.loads(payload)["texts"]:
            code, index = text.split(" ", 2)[:2]
            rows.append(self.server.vectors[code][int(index) % POOL])
        time.sleep(SERVICE_S)
        self._send(200, ('{"vectors": [' + ", ".join(rows) + "]}").encode())
        self.server.count(service_s=time.perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default="src")
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()

    p = plan(args.workload, args.seed, Path(args.src))
    text = VectorText(args.seed, p["dim"])
    vectors = {code: text.rows(sentence_vectors(p, args.seed, code, POOL))
               for code in p["codes"]}
    server = StubService(vectors, p["dim"])
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(
        target=server.shutdown, daemon=True).start())
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
