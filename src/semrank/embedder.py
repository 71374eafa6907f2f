"""Dense text embeddings and the cosine machinery behind the semantic reward.

Two providers share one interface (a callable mapping a list of texts to a
list of vectors): ToyEmbedder, a deterministic hashed character-trigram
embedder that makes the whole pipeline runnable offline, and RemoteEncoder,
an HTTP client for an external encoder service.

Embedding vectors are 1-D float64 numpy arrays; the array carries both the
values and the dimension d.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ._http import POST_ATTEMPTS, HttpStatusError, HttpTransportError, post_json
from .errors import DegenerateVectorError, EmbeddingServiceError

logger = logging.getLogger(__name__)

EMBED_URL_ENV = "SEMRANK_EMBED_URL"
EMBED_TOKEN_ENV = "SEMRANK_EMBED_TOKEN"

# Sample size for the dataset reference centroid; seeded draw, configurable.
DEFAULT_CENTROID_SAMPLE = 256
DEFAULT_TOY_DIM = 256

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


class EmbeddingProvider(Protocol):
    def __call__(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed here so toy embeddings are stable across
    platforms and processes (unlike Python's randomized hash())."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def embed_toy(text: str, d: int = DEFAULT_TOY_DIM) -> np.ndarray:
    """Hashed character-trigram count vector, L2-normalized.

    The text is case-folded and whitespace runs are collapsed, then every
    3-character window is hashed with FNV-1a 64 into bucket hash % d.
    Texts shorter than 3 characters hash as a single gram; empty or
    all-whitespace text maps to the fixed unit vector e0.
    """
    if d < 8:
        raise ValueError(f"toy embedding dimension must be >= 8, got {d}")
    canon = " ".join(text.casefold().split())
    vec = np.zeros(d, dtype=np.float64)
    if not canon:
        vec[0] = 1.0
        return vec
    grams = (
        [canon[i:i + 3] for i in range(len(canon) - 2)]
        if len(canon) >= 3 else [canon]
    )
    for g in grams:
        vec[fnv1a_64(g.encode("utf-8")) % d] += 1.0
    return vec / np.linalg.norm(vec)


class ToyEmbedder:
    """Provider wrapper around embed_toy with a fixed dimension."""

    def __init__(self, d: int = DEFAULT_TOY_DIM):
        self.d = d

    def __call__(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [embed_toy(t, self.d) for t in texts]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), clamped to [-1, 1] against rounding drift."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine of a zero-norm vector is undefined")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def reference_centroid(texts: Sequence[str], provider: EmbeddingProvider) -> np.ndarray:
    """Component-wise mean embedding of the given texts.

    Not re-normalized: cosine is scale-invariant in this argument, so the
    raw mean is the canonical representative.
    """
    if not texts:
        raise ValueError("reference_centroid needs at least one text")
    vectors = provider(texts)
    return np.mean(np.stack(vectors, axis=0), axis=0)


def sample_reference_texts(texts: Sequence[str], sample_size: int = DEFAULT_CENTROID_SAMPLE,
                           seed: int = 0) -> list[str]:
    """Seeded without-replacement draw of centroid texts (all of them when
    fewer than sample_size are available)."""
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if len(texts) <= sample_size:
        return list(texts)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(texts), size=sample_size, replace=False)
    return [texts[i] for i in sorted(idx)]


@dataclass
class EncoderEndpointConfig:
    """Client settings for the remote encoder service."""

    base_url: str
    timeout: float = 30.0
    batch_size: int = 32
    auth_token: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    @classmethod
    def from_env(cls, **overrides) -> "EncoderEndpointConfig":
        url = overrides.pop("base_url", None) or os.environ.get(EMBED_URL_ENV)
        if not url:
            raise ValueError(f"no encoder URL: set {EMBED_URL_ENV} or pass base_url")
        token = overrides.pop("auth_token", None) or os.environ.get(EMBED_TOKEN_ENV)
        return cls(base_url=url, auth_token=token, **overrides)


class RemoteEncoder:
    """HTTP client for the /embed wire contract.

    POST {base_url}/embed with {"texts": [...]} and expect
    {"embeddings": [[...], ...], "dim": d}. Batches are sent sequentially
    in input order, at most cfg.batch_size texts per request.
    """

    def __init__(self, cfg: EncoderEndpointConfig):
        self.cfg = cfg
        self._url = cfg.base_url.rstrip("/") + "/embed"
        self._dim: int | None = None

    def __call__(self, texts: Sequence[str]) -> list[np.ndarray]:
        return self.embed(texts)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise ValueError("embed() needs a non-empty sequence of texts")
        out: list[np.ndarray] = []
        bs = self.cfg.batch_size
        for batch_index, start in enumerate(range(0, len(texts), bs)):
            batch = list(texts[start:start + bs])
            reply = self._post_batch(batch, batch_index)
            out.extend(self._parse_batch(reply, batch, batch_index))
        return out

    def _post_batch(self, batch: list[str], batch_index: int) -> dict:
        last: Exception | None = None
        for attempt in range(POST_ATTEMPTS):
            try:
                return post_json(self._url, {"texts": batch},
                                 timeout=self.cfg.timeout,
                                 auth_token=self.cfg.auth_token)
            except HttpStatusError as exc:
                last = exc
                err = EmbeddingServiceError(
                    f"encoder returned HTTP {exc.status} for batch {batch_index}",
                    batch_index=batch_index, status=exc.status)
            except HttpTransportError as exc:
                last = exc
                err = EmbeddingServiceError(
                    f"encoder transport failure for batch {batch_index}: {exc}",
                    batch_index=batch_index)
            if attempt + 1 < POST_ATTEMPTS:
                logger.warning("retrying embed batch %d after %s", batch_index, last)
        raise err from last

    def _parse_batch(self, reply: dict, batch: list[str],
                     batch_index: int) -> list[np.ndarray]:
        embeddings = reply.get("embeddings")
        dim = reply.get("dim")
        if not isinstance(embeddings, list) or len(embeddings) != len(batch):
            raise EmbeddingServiceError(
                f"encoder returned {0 if not isinstance(embeddings, list) else len(embeddings)}"
                f" vectors for {len(batch)} texts in batch {batch_index}",
                batch_index=batch_index)
        vectors = [np.asarray(e, dtype=np.float64) for e in embeddings]
        for v in vectors:
            if v.ndim != 1 or (dim is not None and v.shape[0] != dim):
                raise EmbeddingServiceError(
                    f"malformed vector shape {v.shape} in batch {batch_index}",
                    batch_index=batch_index)
            if not np.all(np.isfinite(v)):
                raise EmbeddingServiceError(
                    f"non-finite embedding values in batch {batch_index}",
                    batch_index=batch_index)
        d = vectors[0].shape[0]
        if self._dim is None:
            self._dim = d
        elif d != self._dim:
            raise EmbeddingServiceError(
                f"dimension changed between batches: {self._dim} then {d} "
                f"(batch {batch_index})", batch_index=batch_index)
        return vectors


PROVIDER_KINDS = ("toy", "remote")
