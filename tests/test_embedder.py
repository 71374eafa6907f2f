import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semrank.embedder import (EncoderEndpointConfig, RemoteEncoder, ToyEmbedder,
                              cosine, embed_toy, fnv1a_64, reference_centroid,
                              sample_reference_texts)
from semrank._http import HttpTransportError
from semrank.errors import DegenerateVectorError, EmbeddingServiceError
from semrank.mockserve import StubBehavior, StubServer


class TestToyEmbedder:
    def test_unit_norm(self):
        for text in ("", "ab", "abc", "la membrana cellulare", "x" * 500):
            assert np.linalg.norm(embed_toy(text, 64)) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        a = embed_toy("la cellula", 256)
        b = embed_toy("la cellula", 256)
        assert np.array_equal(a, b)

    def test_identical_text_cosine_one(self):
        u = embed_toy("the cell membrane", 256)
        v = embed_toy("the cell membrane", 256)
        assert cosine(u, v) == pytest.approx(1.0)

    def test_empty_and_whitespace_fixed_vector(self):
        for text in ("", "   ", "\n\t "):
            v = embed_toy(text, 32)
            assert v[0] == 1.0 and np.count_nonzero(v) == 1

    def test_fnv1a_known_vectors(self):
        # published FNV-1a 64 test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_case_and_whitespace_folding(self):
        assert np.array_equal(embed_toy("La  Cellula", 64), embed_toy("la cellula", 64))

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            embed_toy("x", 4)

    def test_related_texts_share_mass(self):
        sim = cosine(embed_toy("la membrana cellulare", 256),
                     embed_toy("la membrana della cellula", 256))
        assert 0.3 < sim < 1.0


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -2.0, 5.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed_45_degrees(self):
        # dot = 1, norms 1 and sqrt(2): frozen from direct arithmetic
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == \
            pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50)
    def test_symmetry_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        a, b = rng.uniform(0.1, 50, size=2)
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert cosine(a * u, b * v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_clamped_against_drift(self):
        v = np.full(1000, 1e-8)
        assert cosine(v, v) <= 1.0


class TestReferenceCentroid:
    def test_single_text_is_its_embedding(self):
        provider = ToyEmbedder(64)
        assert np.array_equal(reference_centroid(["ciao"], provider),
                              provider(["ciao"])[0])

    def test_mean_of_equal_vectors(self):
        provider = ToyEmbedder(64)
        c = reference_centroid(["uno", "uno"], provider)
        assert np.allclose(c, provider(["uno"])[0])

    def test_arithmetic_mean(self):
        def provider(texts):
            table = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
            return [table[t] for t in texts]
        assert np.allclose(reference_centroid(["x", "y"], provider), [0.5, 0.5])

    def test_permutation_invariant(self):
        provider = ToyEmbedder(64)
        texts = ["uno", "due", "tre", "quattro"]
        a = reference_centroid(texts, provider)
        b = reference_centroid(texts[::-1], provider)
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference_centroid([], ToyEmbedder(64))

    def test_sampling_is_seeded_and_capped(self):
        texts = [f"testo {i}" for i in range(40)]
        a = sample_reference_texts(texts, 10, seed=3)
        b = sample_reference_texts(texts, 10, seed=3)
        assert a == b and len(a) == 10
        assert sample_reference_texts(texts, 100, seed=3) == texts

    def test_sample_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="sample_size"):
            sample_reference_texts(["testo"], 0)


class TestRemoteEncoder:
    def test_single_text_shape(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=32)) as stub:
            client = RemoteEncoder(EncoderEndpointConfig(base_url=stub.base_url))
            (v,) = client.embed(["ciao"])
            assert v.shape == (32,)

    def test_vectors_match_local_toy_embedder(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=64)) as stub:
            client = RemoteEncoder(EncoderEndpointConfig(base_url=stub.base_url))
            remote = client.embed(["la cellula", "il mitocondrio"])
            local = ToyEmbedder(64)(["la cellula", "il mitocondrio"])
            for r, l in zip(remote, local):
                assert np.allclose(r, l, atol=1e-12)

    def test_batching_request_sizes(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as stub:
            cfg = EncoderEndpointConfig(base_url=stub.base_url, batch_size=3)
            client = RemoteEncoder(cfg)
            out = client.embed([f"t{i}" for i in range(7)])
            assert len(out) == 7
            assert stub.stats["requests"] == 3
            assert stub.stats["batch_sizes"] == [3, 3, 1]

    def test_order_preserved(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=64)) as stub:
            cfg = EncoderEndpointConfig(base_url=stub.base_url, batch_size=2)
            client = RemoteEncoder(cfg)
            texts = ["alpha", "beta", "gamma", "delta", "epsilon"]
            remote = client.embed(texts)
            local = ToyEmbedder(64)(texts)
            for r, l in zip(remote, local):
                assert np.allclose(r, l)

    def test_http_500_names_batch_index(self):
        with StubServer("embed", StubBehavior(mode="fail-with-status",
                                              fail_status=500)) as stub:
            cfg = EncoderEndpointConfig(base_url=stub.base_url, batch_size=2)
            client = RemoteEncoder(cfg)
            with pytest.raises(EmbeddingServiceError) as excinfo:
                client.embed(["a", "b", "c"])
            assert excinfo.value.batch_index == 0
            assert excinfo.value.status == 500

    def test_retry_then_surface(self):
        with StubServer("embed", StubBehavior(mode="fail-with-status",
                                              fail_status=503)) as stub:
            cfg = EncoderEndpointConfig(base_url=stub.base_url)
            client = RemoteEncoder(cfg)
            with pytest.raises(EmbeddingServiceError):
                client.embed(["x"])
            assert stub.stats["requests"] == 2  # initial + 1 retry

    def test_embeds_share_one_connection(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as stub:
            client = RemoteEncoder(EncoderEndpointConfig(base_url=stub.base_url))
            for k in range(10):
                client.embed([f"testo {k}"])
            assert stub.stats["requests"] == 10
            assert stub.stats["connections"] == 1

    def test_stopped_stub_answers_nothing(self):
        stub = StubServer("embed", StubBehavior(mode="toy-embed", dim=16)).start()
        cfg = EncoderEndpointConfig(base_url=stub.base_url)
        client = RemoteEncoder(cfg)
        try:
            client.embed(["prima"])  # leaves its connection open
        finally:
            stub.stop()
        with pytest.raises(EmbeddingServiceError) as excinfo:
            client.embed(["dopo"])
        assert isinstance(excinfo.value.__cause__, HttpTransportError)

    def test_transport_failure_distinct(self):
        cfg = EncoderEndpointConfig(base_url="http://127.0.0.1:9",  # discard port
                                    timeout=0.2)
        with pytest.raises(EmbeddingServiceError) as excinfo:
            RemoteEncoder(cfg).embed(["x"])
        assert excinfo.value.status is None

    def test_empty_input_rejected(self):
        cfg = EncoderEndpointConfig(base_url="http://127.0.0.1:1")
        with pytest.raises(ValueError):
            RemoteEncoder(cfg).embed([])

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            EncoderEndpointConfig(base_url="http://x", batch_size=0)

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_timeout_validated(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            EncoderEndpointConfig(base_url="http://x", timeout=timeout)


class TestRemoteEncoderContracts:
    def test_bearer_token_header_sent(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as stub:
            cfg = EncoderEndpointConfig(base_url=stub.base_url,
                                        auth_token="segreto")
            RemoteEncoder(cfg).embed(["x"])
            assert stub.stats["auth_headers"] == ["Bearer segreto"]

    def test_no_auth_header_without_token(self):
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as stub:
            RemoteEncoder(EncoderEndpointConfig(base_url=stub.base_url)).embed(["x"])
            assert stub.stats["auth_headers"] == [None]

    def test_dimension_drift_between_batches_rejected(self):
        client = RemoteEncoder(EncoderEndpointConfig(base_url="http://x"))
        client._parse_batch({"embeddings": [[1.0, 0.0]], "dim": 2}, ["a"], 0)
        with pytest.raises(EmbeddingServiceError, match="dimension changed"):
            client._parse_batch({"embeddings": [[1.0, 0.0, 0.0]], "dim": 3},
                                ["b"], 1)

    def test_wrong_vector_count_rejected(self):
        client = RemoteEncoder(EncoderEndpointConfig(base_url="http://x"))
        with pytest.raises(EmbeddingServiceError):
            client._parse_batch({"embeddings": [[1.0]], "dim": 1},
                                ["a", "b"], 0)

    def test_non_finite_vector_rejected(self):
        client = RemoteEncoder(EncoderEndpointConfig(base_url="http://x"))
        with pytest.raises(EmbeddingServiceError):
            client._parse_batch({"embeddings": [[float("nan")]], "dim": 1},
                                ["a"], 0)
