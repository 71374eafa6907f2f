"""Minimal JSON-over-HTTP POST helper used by the encoder and judge clients.

Each thread keeps one persistent HTTP/1.1 connection per endpoint
(scheme, host and port), so a run of posts to one service pays for one TCP
handshake, not one per post. Proxy environment variables (http_proxy,
https_proxy, no_proxy) are not read: every connection goes straight to the
URL's host.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import urllib.parse

# How often the encoder and judge clients send one request before its
# failure surfaces: the first try and one retry.
POST_ATTEMPTS = 2


class HttpStatusError(Exception):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} from {url}")
        self.status = status


class HttpTransportError(Exception):
    """Connection refused, DNS failure, timeout, or malformed response body."""


class _Pool(dict):
    """One thread's open connections, keyed by (scheme, netloc); netloc is
    the URL's host[:port]. They are closed when the thread ends or the
    interpreter exits. http.client.HTTPConnection.connect sets TCP_NODELAY
    on every socket it opens."""

    def drop_closed(self) -> None:
        """Close and forget every connection the peer has hung up on: an
        idle kept-alive socket that polls readable holds EOF or stray
        bytes, never a reply, so it cannot be used again."""
        for origin, conn in list(self.items()):
            if conn.sock is None or select.select([conn.sock], [], [], 0)[0]:
                conn.close()
                del self[origin]

    def __del__(self):
        for conn in self.values():
            conn.close()


class _PerThread(threading.local):
    def __init__(self):
        self.pool = _Pool()


_connections = _PerThread()

# What a kept-alive connection raises when the peer closed it while it sat
# idle: the request never got a reply, so sending it again is safe.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _connection(parts: urllib.parse.SplitResult,
                timeout: float) -> http.client.HTTPConnection:
    origin = (parts.scheme, parts.netloc)
    pool = _connections.pool
    conn = pool.get(origin)
    if conn is None:
        # a new endpoint: the ones whose servers have gone would otherwise
        # hold their sockets until the thread ends
        pool.drop_closed()
        cls = (http.client.HTTPSConnection if parts.scheme == "https"
               else http.client.HTTPConnection)
        conn = pool[origin] = cls(parts.netloc, timeout=timeout)
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    return conn


def _exchange(conn: http.client.HTTPConnection, target: str, body: bytes,
              headers: dict) -> http.client.HTTPResponse:
    """Send one POST and read its status line and headers, reconnecting once
    if a reused connection turns out to have been closed by the peer."""
    reused = conn.sock is not None
    try:
        conn.request("POST", target, body, headers)
        return conn.getresponse()
    except _STALE:
        if not reused:
            raise
        conn.close()  # the next request() opens a fresh socket
        conn.request("POST", target, body, headers)
        return conn.getresponse()


def post_json(url: str, payload: dict, timeout: float,
              auth_token: str | None = None) -> dict:
    """POST payload as UTF-8 JSON, return the decoded JSON response.

    Raises HttpStatusError on non-2xx and HttpTransportError on transport
    or decode failures. No retries happen at this layer; the one silent
    reconnect of a stale kept-alive connection resends a request its server
    never answered.
    """
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise HttpTransportError(f"POST {url} failed: not an http(s) URL")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    conn = _connection(parts, timeout)
    try:
        resp = _exchange(conn, target, body, headers)
        raw = resp.read()  # read in full, even on error, so the connection stays usable
    except (http.client.HTTPException, OSError) as exc:
        conn.close()
        raise HttpTransportError(f"POST {url} failed: {exc}") from exc
    if not 200 <= resp.status < 300:
        raise HttpStatusError(resp.status, url)
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpTransportError(f"non-JSON response from {url}: {exc}") from exc
