"""Deterministic stub servers for the embedding and judge wire contracts.

The embed stub answers POST /embed with toy-embedder vectors (or a
configured failure status); the judge stub answers chat-completions POSTs
by delegating to the same rule table the in-process mock judges use, so
the HTTP path and the in-process path cannot drift. Both are stateless:
responses are pure functions of (mode, request body).
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .embedder import DEFAULT_TOY_DIM, embed_toy
from .judge import check_judge_mode, judge_reply

EMBED_MODES = ("toy-embed", "fail-with-status")
DEFAULT_MODES = {"embed": "toy-embed", "judge": "prefer-lexical-overlap"}


@dataclass(frozen=True)
class StubBehavior:
    mode: str = "toy-embed"
    fail_status: int = 500
    dim: int = DEFAULT_TOY_DIM


class _StubHandler(BaseHTTPRequestHandler):
    """Serves the kind and behavior of its StubServer, self.server."""

    # Keep-alive: one connection, and one handler thread, serves a client's
    # posts until either side closes it.
    protocol_version = "HTTP/1.1"
    # A reply goes out in two sends, headers then body. With Nagle's
    # algorithm on, the body waits for the ACK of the headers, which the
    # client holds back (delayed ACK): on a kept-alive connection every
    # post then stalls for tens of milliseconds.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        stats = self.server.stats
        with self.server.stats_lock:
            stats["requests"] += 1
            stats["auth_headers"].append(self.headers.get("Authorization"))
        try:
            payload = self._read_json()
        except (ValueError, KeyError):
            self._send(400, {"error": "bad json"})
            return

        behavior = self.server.behavior
        if self.server.kind == "embed":
            if behavior.mode == "fail-with-status":
                self._send(behavior.fail_status, {"error": "configured failure"})
                return
            texts = payload.get("texts")
            if not isinstance(texts, list):
                self._send(400, {"error": "texts must be a list"})
                return
            with self.server.stats_lock:
                stats["batch_sizes"].append(len(texts))
            vectors = [embed_toy(t, behavior.dim).tolist() for t in texts]
            self._send(200, {"embeddings": vectors, "dim": behavior.dim})
            return

        # judge: chat-completions shape in, assistant message out
        try:
            prompt = payload["messages"][-1]["content"]
        except (KeyError, IndexError, TypeError):
            self._send(400, {"error": "chat-completions payload expected"})
            return
        reply = judge_reply(behavior.mode, prompt)
        self._send(200, {
            "model": payload.get("model", "stub"),
            "choices": [{"index": 0, "message": {"role": "assistant",
                                                 "content": reply}}],
        })


class _LocalServer(ThreadingHTTPServer):
    """An HTTP server on 127.0.0.1, serving from a thread of its own once
    started; use as a context manager. stats counts the requests its handler
    reads and the connections it accepts; the open ones are tracked, so that
    stop() can end those a client keeps alive."""

    def __init__(self, handler, port: int = 0, **stats):
        super().__init__(("127.0.0.1", port), handler)
        self.stats = {"requests": 0, "connections": 0, **stats}
        self.stats_lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def process_request(self, request, client_address):
        with self.stats_lock:
            self.stats["connections"] += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.stats_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the serving loop if start() began one, shut down the open
        connections (their handler threads then read EOF and exit; the lock
        keeps a handler from closing a socket meanwhile), free the port."""
        if self._thread.is_alive():
            self.shutdown()
        with self.stats_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer has already gone
                    pass
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class StubServer(_LocalServer):
    """A stub on 127.0.0.1, serving once started; use as a context manager
    in tests.

    A kind, mode or embedding dimension it does not serve raises
    ValueError before the port is bound. stats counts requests and accepted
    connections, and records per-request batch sizes and Authorization
    headers.
    """

    def __init__(self, kind: str, behavior: StubBehavior, port: int = 0):
        if kind == "judge":
            check_judge_mode(behavior.mode)
        elif kind != "embed":
            raise ValueError(f"kind must be embed or judge, got {kind!r}")
        elif behavior.mode not in EMBED_MODES:
            raise ValueError(f"unknown embed mode {behavior.mode!r}; expected one of "
                             f"{list(EMBED_MODES)}")
        else:
            embed_toy("", behavior.dim)  # raises on a dimension embed_toy rejects
        self.kind = kind
        self.behavior = behavior
        super().__init__(_StubHandler, port, batch_sizes=[], auth_headers=[])

    @property
    def judge_url(self) -> str:
        return f"{self.base_url}/v1/chat/completions"


def run_forever(server: StubServer) -> None:
    """Serve an unstarted stub until interrupted, for the CLI's serve
    subcommand."""
    print(f"serving {server.kind} stub (mode={server.behavior.mode}) "
          f"on {server.base_url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
