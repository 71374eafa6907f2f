import pytest
from scripted_server import ScriptedServer, reply

from semrank._http import POST_ATTEMPTS
from semrank.errors import JudgeServiceError
from semrank.judge import (HttpJudgeClient, JudgeEndpointConfig, MockJudge,
                           build_pair_prompt, build_score_prompt, extract_section,
                           judge_reply, make_judge,
                           parse_score_reply, parse_verdict_reply)
from semrank.mockserve import StubBehavior, StubServer


class TestParsing:
    @pytest.mark.parametrize("reply,want", [
        ("10", 10),
        ("0", 0),
        ("score: 7", 7),
        ("direi 4, anzi 6", 6),
        ("valuto 15", None),       # out of range
        ("nessun numero", None),
        ("7/10 quindi 7", 7),
    ])
    def test_score_extraction(self, reply, want):
        assert parse_score_reply(reply) == want

    @pytest.mark.parametrize("reply,want", [
        ("1", "1"),
        ("2", "2"),
        ("TIE", "TIE"),
        ("tie", "TIE"),
        ("pareggio", "TIE"),
        ("la spiegazione 2 vince: 2", "2"),
        ("boh", None),
        ("la numero 12", None),    # 12 is not a standalone verdict token
    ])
    def test_verdict_extraction(self, reply, want):
        assert parse_verdict_reply(reply) == want

    def test_section_round_trip(self):
        prompt = build_pair_prompt("perche'?", "prima spiegazione",
                                   "seconda spiegazione")
        assert extract_section(prompt, "DOMANDA") == "perche'?"
        assert extract_section(prompt, "SPIEGAZIONE 1") == "prima spiegazione"
        assert extract_section(prompt, "SPIEGAZIONE 2") == "seconda spiegazione"
        score = build_score_prompt("candidata", "riferimento")
        assert extract_section(score, "CANDIDATO") == "candidata"
        assert extract_section(score, "RIFERIMENTO") == "riferimento"


class TestMockJudgeRules:
    def test_prefer_longer_pairwise(self):
        prompt = build_pair_prompt("q", "spiegazione molto lunga davvero", "corta")
        assert judge_reply("prefer-longer", prompt) == "1"
        assert judge_reply("prefer-shorter", prompt) == "2"

    def test_tie_on_equal_length(self):
        prompt = build_pair_prompt("q", "uguali", "uguali")
        assert judge_reply("prefer-longer", prompt) == "TIE"

    def test_lexical_overlap_prefers_question_terms(self):
        prompt = build_pair_prompt("la membrana regola il trasporto",
                                   "la membrana regola il trasporto attivo",
                                   "una frase del tutto diversa")
        assert judge_reply("prefer-lexical-overlap", prompt) == "1"

    def test_fixed_score_modes(self):
        prompt = build_score_prompt("x", "y")
        assert judge_reply("fixed-score:7", prompt) == "7"
        assert judge_reply("fixed-score", prompt) == "7"
        assert judge_reply("fixed-score:0", prompt) == "0"

    def test_score_rubric_overlap_grading(self):
        prompt = build_score_prompt("la membrana regola il trasporto",
                                    "la membrana regola il trasporto")
        assert judge_reply("prefer-lexical-overlap", prompt) == "10"
        disjoint = build_score_prompt("parole nuove", "altre frasi qui")
        assert judge_reply("prefer-lexical-overlap", disjoint) == "0"

    @pytest.mark.parametrize("mode,candidate,want", [
        ("prefer-longer", "una spiegazione lunga", "10"),
        ("prefer-longer", "corta", "3"),
        ("prefer-shorter", "corta", "10"),
        ("prefer-shorter", "una spiegazione lunga", "3"),
    ])
    def test_score_rubric_length_grading(self, mode, candidate, want):
        prompt = build_score_prompt(candidate, "riferimento")
        assert judge_reply(mode, prompt) == want

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            judge_reply("prefer-vibes", build_score_prompt("a", "b"))

    def test_mock_judge_is_named(self):
        judge = MockJudge("prefer-longer")
        assert judge.name == "mock:prefer-longer"


class TestHttpJudgeClient:
    def test_round_trip_through_stub(self):
        with StubServer("judge", StubBehavior(mode="fixed-score:9")) as stub:
            client = HttpJudgeClient(JudgeEndpointConfig(url=stub.judge_url))
            assert client.complete(build_score_prompt("a", "b")) == "9"

    def test_completions_share_one_connection(self):
        with StubServer("judge", StubBehavior(mode="fixed-score:9")) as stub:
            client = HttpJudgeClient(JudgeEndpointConfig(url=stub.judge_url))
            assert [client.complete(f"ciao {k}") for k in range(10)] == ["9"] * 10
            assert stub.stats["requests"] == 10
            assert stub.stats["connections"] == 1

    def test_pairwise_through_stub(self):
        with StubServer("judge", StubBehavior(mode="prefer-longer")) as stub:
            client = HttpJudgeClient(JudgeEndpointConfig(url=stub.judge_url))
            reply = client.complete(build_pair_prompt("q", "molto molto lunga",
                                                      "breve"))
            assert parse_verdict_reply(reply) == "1"

    def test_transport_failure_raises_after_retries(self):
        cfg = JudgeEndpointConfig(url="http://127.0.0.1:9/v1/chat/completions",
                                  timeout=0.2)
        with pytest.raises(JudgeServiceError):
            HttpJudgeClient(cfg).complete("ciao")

    def test_http_503_sent_post_attempts_times(self):
        # the embed stub answers a POST to any path with its failure status
        with StubServer("embed", StubBehavior(mode="fail-with-status",
                                              fail_status=503)) as stub:
            client = HttpJudgeClient(JudgeEndpointConfig(url=stub.judge_url))
            with pytest.raises(JudgeServiceError, match="503"):
                client.complete("ciao")
            assert stub.stats["requests"] == POST_ATTEMPTS

    def test_2xx_reply_without_choices_is_not_sent_again(self):
        with ScriptedServer(reply(200, {"model": "stub"})) as server:
            with pytest.raises(JudgeServiceError, match="choices"):
                HttpJudgeClient(JudgeEndpointConfig(url=server.url)).complete("ciao")
        assert server.requests == 1

    @pytest.mark.parametrize("content", [7, None, ["7"]])
    def test_content_not_a_string_raises_service_error(self, content):
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        with ScriptedServer(reply(200, body)) as server:
            with pytest.raises(JudgeServiceError, match="not text"):
                HttpJudgeClient(JudgeEndpointConfig(url=server.url)).complete("ciao")
        assert server.requests == 1

    def test_named_by_url(self):
        url = "http://127.0.0.1:1/v1/chat/completions"
        client = make_judge(url, JudgeEndpointConfig(url="ignored", model="m"))
        assert client.name == url

    def test_make_judge_specs(self):
        assert isinstance(make_judge("mock:prefer-longer"), MockJudge)
        client = make_judge("http://127.0.0.1:1/v1/chat/completions",
                            JudgeEndpointConfig(url="ignored", model="m"))
        assert isinstance(client, HttpJudgeClient)
        assert client.cfg.url == "http://127.0.0.1:1/v1/chat/completions"
        with pytest.raises(ValueError):
            make_judge("carrier-pigeon:fast")

    @pytest.mark.parametrize("mode", ["nope", "fixed-score:x", "fixed-score:11"])
    def test_unknown_mock_mode_rejected_when_built(self, mode):
        with pytest.raises(ValueError, match="unknown judge mode"):
            make_judge(f"mock:{mode}")
        with pytest.raises(ValueError, match="unknown judge mode"):
            StubServer("judge", StubBehavior(mode=mode))

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_timeout_validated(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            JudgeEndpointConfig(url="http://x", timeout=timeout)
