"""Dense text embeddings and the cosine machinery behind the semantic reward.

Two providers share one interface (a callable mapping a list of texts to a
list of vectors): ToyEmbedder, a deterministic hashed character-trigram
embedder that makes the whole pipeline runnable offline, and RemoteEncoder,
an HTTP client for an external encoder service.

Embedding vectors are 1-D float64 numpy arrays; the array carries both the
values and the dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ._http import HttpError, post_json
from .errors import DegenerateVectorError, EmbeddingServiceError

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
            try:
                reply = post_json(self._url, {"texts": batch}, timeout=self.cfg.timeout,
                                  auth_token=self.cfg.auth_token)
            except HttpError as exc:
                raise EmbeddingServiceError(
                    f"encoder failed on batch {batch_index}: {exc}",
                    batch_index=batch_index, status=exc.status) from exc
            out.extend(self._parse_batch(reply, batch, batch_index))
        return out

    def _parse_batch(self, reply, batch: list[str],
                     batch_index: int) -> list[np.ndarray]:
        """The batch's vectors; a reply that is not an object of len(batch) finite
        vectors, all as wide as dim and the earlier batches, raises EmbeddingServiceError."""
        def malformed(what: str) -> EmbeddingServiceError:
            return EmbeddingServiceError(f"encoder reply for batch {batch_index}: {what}",
                                         batch_index=batch_index)
        if not isinstance(reply, dict):
            raise malformed("not a JSON object")
        try:
            vectors = np.asarray(reply.get("embeddings"))
            if vectors.dtype.kind not in "iuf":  # float64 would take "1.5" and true
                raise ValueError(f"values of type {vectors.dtype}")
        except ValueError as exc:  # a ragged batch, too
            raise malformed(f"embeddings are not a list of numeric vectors ({exc})") from exc
        vectors = vectors.astype(np.float64)
        if vectors.ndim != 2 or len(vectors) != len(batch) or not vectors.shape[1]:
            raise malformed(f"embeddings of shape {vectors.shape} for {len(batch)} texts")
        if not np.isfinite(vectors).all():
            raise malformed("non-finite embedding values")
        d, dim = vectors.shape[1], reply.get("dim")
        if dim is not None and d != dim:
            raise malformed(f"vectors of width {d}, but dim {dim!r}")
        if self._dim is None:
            self._dim = d
        elif d != self._dim:
            raise malformed(f"dimension changed between batches: {self._dim} then {d}")
        return list(vectors)


PROVIDER_KINDS = ("toy", "remote")
