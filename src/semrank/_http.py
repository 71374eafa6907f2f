"""Minimal JSON-over-HTTP POST helper used by the encoder and judge clients."""

from __future__ import annotations

import json
import urllib.error
import urllib.request


class HttpStatusError(Exception):
    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} from {url}")
        self.status = status


class HttpTransportError(Exception):
    """Connection refused, DNS failure, timeout, or malformed response body."""


def post_json(url: str, payload: dict, timeout: float,
              auth_token: str | None = None) -> dict:
    """POST payload as UTF-8 JSON, return the decoded JSON response.

    Raises HttpStatusError on non-2xx and HttpTransportError on transport
    or decode failures. No retries happen at this layer.
    """
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    req = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error body goes unread: free its connection now
        raise HttpStatusError(exc.code, url) from exc
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise HttpTransportError(f"POST {url} failed: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpTransportError(f"non-JSON response from {url}: {exc}") from exc
