"""A scripted HTTP/1.1 server for wire-failure tests.

The n-th request it reads gets the n-th step of its script, and the last
step repeats. A step is a reply, (status, body bytes), or HANG_UP: close
the connection after reading the request, without a reply. The server
counts requests and accepted connections and records each request target.
"""

import json
from http.server import BaseHTTPRequestHandler

from semrank.mockserve import _LocalServer

HANG_UP = None
NOT_JSON = (200, b"this is not JSON")


def reply(status: int, payload: dict) -> tuple[int, bytes]:
    """The step that answers status with payload as JSON."""
    return status, json.dumps(payload).encode("utf-8")


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        server = self.server
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.stats_lock:
            step = server.script[min(server.stats["requests"], len(server.script) - 1)]
            server.stats["requests"] += 1
            server.targets.append(self.path)
        if step is HANG_UP:
            self.close_connection = True
            return
        status, body = step
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ScriptedServer(_LocalServer):
    """The server on 127.0.0.1, serving its script; use as a context manager."""

    def __init__(self, *script):
        super().__init__(_ScriptedHandler)
        self.script = script
        self.targets = []
        self.url = self.base_url

    @property
    def requests(self) -> int:
        return self.stats["requests"]

    @property
    def connections(self) -> int:
        return self.stats["connections"]
