"""Stub embeddings service for the benchmark's remote-embedding phase.

Usage: python3 stub_server.py TEXTS_JSON VECTORS_NPY

Serves POST requests shaped like a hosted embeddings API
(``{"model": ..., "input": [texts]}`` in, ``{"data": [{"index", "embedding"}]}``
out) on an ephemeral loopback port, from vectors precomputed by the
benchmark. Each vector's JSON text is rendered once at start-up so a request
costs little more than a dictionary lookup per input. Prints the port on
stdout once ready, then serves on one thread until stdin closes.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np


def make_handler(fragments: dict[str, str]):
    class Handler(BaseHTTPRequestHandler):
        disable_nagle_algorithm = True  # no delayed-ACK stall between header and body

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            try:
                texts = json.loads(self.rfile.read(length))["input"]
                rows = [
                    '{"index":%d,"embedding":%s}' % (i, fragments[text])
                    for i, text in enumerate(texts)
                ]
            except (ValueError, KeyError, TypeError):
                self.send_error(400, "unknown input")
                return
            body = ('{"data":[' + ",".join(rows) + "]}").encode("ascii")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # keep stderr quiet
            pass

    return Handler


def main(texts_path: str, vectors_path: str) -> None:
    with open(texts_path, "r", encoding="utf-8") as fh:
        texts = json.load(fh)
    vectors = np.load(vectors_path)
    # json.dumps renders floats with repr, so the client parses back the
    # exact float64 values the benchmark generated.
    fragments = {text: json.dumps(row.tolist()) for text, row in zip(texts, vectors)}
    server = HTTPServer(("127.0.0.1", 0), make_handler(fragments))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # the benchmark closes stdin to stop the service
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
