import pytest

from semrank._http import POST_ATTEMPTS, HttpError, post_json
from scripted_server import HANG_UP, NOT_JSON, ScriptedServer, reply


def test_hang_up_on_reused_connection_sent_post_attempts_times():
    with ScriptedServer(reply(200, {"ok": True}), HANG_UP) as server:
        assert post_json(f"{server.url}/embed", {"texts": ["a"]}, timeout=5) == {"ok": True}
        assert (server.requests, server.connections) == (1, 1)
        # the second post goes out on the kept-alive connection of the first
        with pytest.raises(HttpError):
            post_json(f"{server.url}/embed", {"texts": ["b"]}, timeout=5)
        assert server.requests == 1 + POST_ATTEMPTS
        assert server.connections == POST_ATTEMPTS


def test_2xx_reply_not_json_sent_post_attempts_times():
    with ScriptedServer(NOT_JSON) as server:
        with pytest.raises(HttpError, match="non-JSON"):
            post_json(f"{server.url}/embed", {"texts": ["a"]}, timeout=5)
        assert server.requests == POST_ATTEMPTS
        assert server.connections == 1


def test_query_string_reaches_the_server():
    with ScriptedServer(reply(200, {})) as server:
        assert post_json(f"{server.url}/v1/embed?model=m&x=1", {}, timeout=5) == {}
        assert server.targets == ["/v1/embed?model=m&x=1"]
        assert server.requests == 1
