import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from semrank import _http
from semrank.embedder import embed_toy
from semrank.mockserve import DEFAULT_MODES, StubBehavior, StubServer


def post_json(url, payload):
    return post_bytes(url, json.dumps(payload).encode())


def post_bytes(url, body):
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        exc.close()  # it holds the response and its socket
        raise


class TestEmbedStub:
    def test_vectors_equal_local_toy_embedder(self):
        server = StubServer("embed", StubBehavior(mode="toy-embed", dim=32)).start()
        try:
            reply = post_json(f"{server.base_url}/embed",
                              {"texts": ["la cellula", "il nucleo"]})
            assert reply["dim"] == 32
            for text, vec in zip(["la cellula", "il nucleo"], reply["embeddings"]):
                assert np.allclose(vec, embed_toy(text, 32), atol=1e-12)
        finally:
            server.stop()

    def test_advertised_dim_is_configured(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=100)) as stub:
            reply = post_json(f"{stub.base_url}/embed", {"texts": ["x"]})
            assert reply["dim"] == 100
            assert len(reply["embeddings"][0]) == 100

    def test_fail_mode_returns_status(self):
        with StubServer("embed", StubBehavior(mode="fail-with-status",
                                              fail_status=503)) as stub:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(f"{stub.base_url}/embed", {"texts": ["x"]})
            assert excinfo.value.code == 503

    def test_bad_payload_is_400(self):
        with StubServer("embed", StubBehavior(mode="toy-embed")) as stub:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(f"{stub.base_url}/embed", {"texts": "not-a-list"})
            assert excinfo.value.code == 400

    def test_stateless_repeatable(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as stub:
            a = post_json(f"{stub.base_url}/embed", {"texts": ["prova"]})
            b = post_json(f"{stub.base_url}/embed", {"texts": ["prova"]})
            assert a == b


class TestJudgeStub:
    def chat(self, url, prompt):
        return post_json(url, {"model": "stub",
                               "messages": [{"role": "user", "content": prompt}]})

    def test_fixed_score_seven(self):
        server = StubServer("judge", StubBehavior(mode="fixed-score:7")).start()
        try:
            reply = self.chat(server.judge_url, "qualunque rubrica")
            assert reply["choices"][0]["message"]["content"] == "7"
        finally:
            server.stop()

    def test_prefer_longer_returns_slot_number(self):
        from semrank.judge import build_pair_prompt
        with StubServer("judge", StubBehavior(mode="prefer-longer")) as stub:
            prompt = build_pair_prompt("q", "una spiegazione molto estesa", "no")
            reply = self.chat(stub.judge_url, prompt)
            assert reply["choices"][0]["message"]["content"] == "1"

    def test_identical_inputs_tie(self):
        from semrank.judge import build_pair_prompt
        with StubServer("judge", StubBehavior(mode="prefer-longer")) as stub:
            prompt = build_pair_prompt("q", "stessa", "stessa")
            reply = self.chat(stub.judge_url, prompt)
            assert reply["choices"][0]["message"]["content"] == "TIE"

    def test_concurrent_requests(self):
        import concurrent.futures
        with StubServer("judge", StubBehavior(mode="fixed-score:5")) as stub:
            def one(_):
                return self.chat(stub.judge_url, "x")["choices"][0]["message"]["content"]
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(one, range(24)))
            assert results == ["5"] * 24
            assert stub.stats["requests"] == 24


@pytest.mark.parametrize("kind,body", [
    ("embed", b"{not json"),
    ("judge", b"{not json"),
    ("judge", json.dumps({"model": "stub"}).encode()),
], ids=["embed-not-json", "judge-not-json", "judge-without-messages"])
def test_bad_body_is_400(kind, body):
    with StubServer(kind, StubBehavior(mode=DEFAULT_MODES[kind])) as stub:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_bytes(f"{stub.base_url}/{kind}", body)
        assert excinfo.value.code == 400
        assert stub.stats["requests"] == 1


class TestLifecycle:
    def test_stop_without_start_returns_and_frees_port(self):
        stub = StubServer("embed", StubBehavior())
        port = stub.port
        stopper = threading.Thread(target=stub.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "stop() on an unstarted stub blocked"
        with StubServer("embed", StubBehavior(), port=port) as again:
            assert again.port == port

    def test_stale_kept_alive_connection_reconnects_once(self):
        with StubServer("embed", StubBehavior()) as first:
            port, url = first.port, f"{first.base_url}/embed"
            _http.post_json(url, {"texts": ["x"]}, timeout=5)
        # stop() closed the connection the client keeps for this port
        with StubServer("embed", StubBehavior(), port=port) as second:
            reply = _http.post_json(url, {"texts": ["y"]}, timeout=5)
            assert len(reply["embeddings"]) == 1
            assert second.stats["requests"] == 1
            assert second.stats["connections"] == 1

    def test_connections_to_stopped_stubs_are_dropped(self):
        pool_sizes = []

        def three_stubs_in_turn():  # in a thread of its own: a fresh pool
            for text in ("a", "b", "c"):
                with StubServer("embed", StubBehavior()) as stub:
                    _http.post_json(f"{stub.base_url}/embed", {"texts": [text]},
                                    timeout=5)
                    pool_sizes.append(len(_http._connections.pool))

        worker = threading.Thread(target=three_stubs_in_turn)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert pool_sizes == [1, 1, 1]
