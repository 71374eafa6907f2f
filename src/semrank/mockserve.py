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


def _check_behavior(kind: str, behavior: StubBehavior) -> None:
    if kind == "judge":
        check_judge_mode(behavior.mode)
    elif behavior.mode not in EMBED_MODES:
        raise ValueError(f"unknown embed mode {behavior.mode!r}; expected one of "
                         f"{list(EMBED_MODES)}")
    else:
        embed_toy("", behavior.dim)  # raises on a dimension embed_toy rejects


class _StubHandler(BaseHTTPRequestHandler):
    behavior: StubBehavior
    kind: str  # "embed" or "judge"
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

        behavior = self.behavior
        if self.kind == "embed":
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


class _StubHTTPServer(ThreadingHTTPServer):
    """Counts the connections it accepts and tracks the open ones, so that
    close_connections() can end those a client keeps alive."""

    def __init__(self, address, handler, stats: dict):
        super().__init__(address, handler)
        self.stats = stats
        self.stats_lock = threading.Lock()
        self._open: set[socket.socket] = set()

    def process_request(self, request, client_address):
        with self.stats_lock:
            self.stats["connections"] += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.stats_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open connection; its handler thread then reads
        EOF, closes the socket and exits. Holding the lock keeps a handler
        from closing a socket while it is being shut down."""
        with self.stats_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer has already gone
                    pass


class StubServer:
    """A stub on 127.0.0.1, serving once started; use as a context manager
    in tests.

    A kind, mode or embedding dimension it does not serve raises
    ValueError before the port is bound. stats counts requests and accepted
    connections, and records per-request batch sizes and Authorization
    headers.
    """

    def __init__(self, kind: str, behavior: StubBehavior, port: int = 0):
        if kind not in DEFAULT_MODES:
            raise ValueError(f"kind must be embed or judge, got {kind!r}")
        _check_behavior(kind, behavior)
        self.kind = kind
        self.behavior = behavior
        self.stats = {"requests": 0, "connections": 0, "batch_sizes": [],
                      "auth_headers": []}
        handler = type("Handler", (_StubHandler,), {
            "behavior": behavior, "kind": kind})
        self._server = _StubHTTPServer(("127.0.0.1", port), handler, self.stats)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def judge_url(self) -> str:
        return f"{self.base_url}/v1/chat/completions"

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the serving loop if start() began one, close the connections
        clients kept alive, and free the port."""
        if self._thread.is_alive():
            self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_forever(server: StubServer) -> None:
    """Serve an unstarted stub until interrupted, for the CLI's serve
    subcommand."""
    print(f"serving {server.kind} stub (mode={server.behavior.mode}) "
          f"on {server.base_url}")
    try:
        server._server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
