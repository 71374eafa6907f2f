"""A tiny fixed-context autoregressive LM with exact analytic gradients.

Architecture: the C most recent token ids are embedded and concatenated,
pushed through one tanh hidden layer, and projected to vocabulary logits:

    x      = concat(E[ctx])                       (C*d_e,)
    h      = tanh(W1_eff^T x + b1)                (h,)
    logits = W2_eff^T h + b2                      (V,)

where X_eff = X + (alpha/r) * B @ A when a LoRA adapter is attached to X.
Every training objective in this package reduces to a weighted sum of
token log-probabilities, so one kernel, `token_forward`, serves them all:
one forward over stacked context windows gives the log-probs and the exact
gradient of sum_n g_n * log pi(target_n) for caller-supplied weights g_n
(in LoRA mode, of the adapter factors only: the host tensors are frozen).

Contexts shorter than C are left-padded with PAD_ID. Sampling and
log-probability bookkeeping share one temperature convention: logits are
divided by the temperature before the softmax, and recorded logprobs are
those of the tempered distribution actually sampled from.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .tokenizers import EOS_ID, PAD_ID

GREEDY_TEMPERATURE_CUTOFF = 1e-6

LORA_TARGETS = ("W1", "W2")
BASE_TENSORS = ("E", "W1", "b1", "W2", "b2")

CKPT_MAGIC = b"SRCK0001"


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 32
    alpha: float = 64.0
    targets: tuple[str, ...] = ("W1", "W2")

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        if self.alpha <= 0:
            raise ValueError("LoRA alpha must be positive")
        bad = set(self.targets) - set(LORA_TARGETS)
        if bad:
            raise ValueError(f"LoRA targets must be among {LORA_TARGETS}, got {sorted(bad)}")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


@dataclass
class PolicyParams:
    """All model tensors plus the optional LoRA factor pairs.

    lora maps a target name to (A, B) with A: (rank, cols) and B: (rows,
    rank) for a host of shape (rows, cols); the adapter delta is
    scale * B @ A.
    """

    E: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    context_size: int
    lora: dict[str, tuple[np.ndarray, np.ndarray]] | None = None
    lora_cfg: LoraConfig | None = None

    @property
    def vocab_size(self) -> int:
        return self.E.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.E.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.b1.shape[0]

    def base_tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BASE_TENSORS}

    def trainable(self) -> dict[str, np.ndarray]:
        """Tensors the optimizer may update: LoRA factors when an adapter
        is attached, otherwise all base tensors."""
        if self.lora is not None:
            out = {}
            for name, (a, b) in self.lora.items():
                out[f"lora.{name}.A"] = a
                out[f"lora.{name}.B"] = b
            return out
        return self.base_tensors()

    def effective(self, name: str) -> np.ndarray:
        """Host matrix with its LoRA delta applied (the host itself when no
        adapter targets it)."""
        base = getattr(self, name)
        if self.lora is not None and name in self.lora:
            a, b = self.lora[name]
            return base + self.lora_cfg.scale * (b @ a)
        return base

    def copy(self) -> "PolicyParams":
        lora = None
        if self.lora is not None:
            lora = {k: (a.copy(), b.copy()) for k, (a, b) in self.lora.items()}
        return PolicyParams(
            E=self.E.copy(), W1=self.W1.copy(), b1=self.b1.copy(),
            W2=self.W2.copy(), b2=self.b2.copy(),
            context_size=self.context_size, lora=lora, lora_cfg=self.lora_cfg)

    def digest(self) -> str:
        """Stable content hash, used by the reference-freezing check."""
        h = hashlib.sha256()
        for name in BASE_TENSORS:
            h.update(name.encode())
            h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        if self.lora is not None:
            for name in sorted(self.lora):
                a, b = self.lora[name]
                h.update(name.encode())
                h.update(np.ascontiguousarray(a).tobytes())
                h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SampledSequence:
    """One sampled completion with its sampling-time log-probabilities."""

    tokens: tuple[int, ...]
    logprobs: tuple[float, ...]
    prompt_len: int

    def __post_init__(self):
        if len(self.tokens) != len(self.logprobs):
            raise ValueError("tokens and logprobs must have equal length")


def init_params(vocab_size: int = 64, context_size: int = 16, embed_dim: int = 32,
                hidden_dim: int = 64, seed: int = 0, init_scale: float = 0.08) -> PolicyParams:
    """Gaussian-initialized weights, zero biases."""
    rng = np.random.default_rng(seed)
    return PolicyParams(
        E=rng.normal(0.0, init_scale, (vocab_size, embed_dim)),
        W1=rng.normal(0.0, init_scale, (context_size * embed_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        W2=rng.normal(0.0, init_scale, (hidden_dim, vocab_size)),
        b2=np.zeros(vocab_size),
        context_size=context_size)


def attach_lora(params: PolicyParams, cfg: LoraConfig, seed: int = 0) -> PolicyParams:
    """Fresh adapter: A ~ N(0, 1/rank), B = 0, so the initial delta is zero."""
    rng = np.random.default_rng(seed)
    lora = {}
    for name in cfg.targets:
        host = getattr(params, name)
        rows, cols = host.shape
        if cfg.rank > min(rows, cols):
            raise ValueError(
                f"LoRA rank {cfg.rank} exceeds min dimension of {name} {host.shape}")
        a = rng.normal(0.0, 1.0 / cfg.rank, (cfg.rank, cols))
        b = np.zeros((rows, cfg.rank))
        lora[name] = (a, b)
    out = params.copy()
    out.lora = lora
    out.lora_cfg = cfg
    return out


def merge_lora(params: PolicyParams) -> PolicyParams:
    """Fold the adapter into the hosts (W <- W + scale*B@A) and drop it.

    forward_logits of the merged model matches the adapted model exactly.
    """
    if params.lora is None:
        return params.copy()
    merged = params.copy()
    for name in params.lora:
        setattr(merged, name, params.effective(name).copy())
    merged.lora = None
    merged.lora_cfg = None
    return merged


def detach_lora(params: PolicyParams) -> PolicyParams:
    """Base weights with the adapter removed (the GRPO reference policy)."""
    out = params.copy()
    out.lora = None
    out.lora_cfg = None
    return out


def _check_tokens(params: PolicyParams, tokens) -> np.ndarray:
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= params.vocab_size):
        raise ValueError(
            f"token id out of range [0, {params.vocab_size}): "
            f"min={arr.min()}, max={arr.max()}")
    return arr


def forward_logits(params: PolicyParams, context) -> np.ndarray:
    """Logits for the next token after an exactly-C-token context."""
    ctx = _check_tokens(params, context)
    if ctx.shape != (params.context_size,):
        raise ValueError(
            f"context must have exactly {params.context_size} tokens, got {ctx.shape}")
    return _next_logits(params, params.effective("W1"), params.effective("W2"),
                        ctx[None])[0]


def _next_logits(params: PolicyParams, w1: np.ndarray, w2: np.ndarray,
                 windows: np.ndarray) -> np.ndarray:
    """Next-token logits for (B, C) windows, given the effective W1 and W2."""
    x = params.E.take(windows, axis=0).reshape(len(windows), -1)
    return np.tanh(x @ w1 + params.b1) @ w2 + params.b2


def stack_windows(params: PolicyParams, pairs) -> tuple[np.ndarray, np.ndarray]:
    """token_forward's inputs for (prompt, completion) pairs, completions in
    order: the (N, C) windows, row n the left-padded context preceding
    target n, and the (N,) targets."""
    pad = np.full(params.context_size, PAD_ID, dtype=np.int64)
    windows, targets = [], []
    for prompt, completion in pairs:
        prompt, completion = _check_tokens(params, prompt), _check_tokens(params, completion)
        if len(completion) == 0:
            raise ValueError("completion must be non-empty")
        full = np.concatenate([pad, prompt, completion])
        windows.append(np.lib.stride_tricks.sliding_window_view(full, len(pad))[len(prompt):-1])
        targets.append(completion)
    return np.concatenate(windows), np.concatenate(targets)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def token_forward(params: PolicyParams, windows, targets, temperature: float = 1.0):
    """One forward over N stacked (N, C) context windows.

    Returns (logp, grad_of): logp[n] is the tempered log-prob of targets[n],
    and grad_of(g) the exact gradient of sum_n g[n] * logp[n] w.r.t.
    params.trainable() (in LoRA mode the adapter factors only, the hosts
    are frozen), from this same forward. The first layer is summed
    one context position at a time, so the (N, C*d) gathered embeddings are
    never built; dW1 and dE are likewise computed per position.
    """
    windows = _check_tokens(params, windows)
    targets = _check_tokens(params, targets)
    N = len(targets)
    C, d = params.context_size, params.embed_dim
    if windows.shape != (N, C):
        raise ValueError(f"windows must have shape ({N}, {C}), got {windows.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    w1, w2 = params.effective("W1"), params.effective("W2")
    blocks = [slice(c * d, (c + 1) * d) for c in range(C)]

    pre = np.zeros((N, params.hidden_dim))
    for c, block in enumerate(blocks):
        pre += params.E[windows[:, c]] @ w1[block]
    H = np.tanh(pre + params.b1)
    logp_all = _log_softmax((H @ w2 + params.b2) / temperature)
    rows = np.arange(N)

    def grad_of(g) -> dict[str, np.ndarray]:
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (N,):
            raise ValueError(f"need one loss gradient per token, "
                             f"got {g.shape} for {N} tokens")
        # dL/dlogits = g * (onehot(target) - softmax) / temperature
        gt = g / temperature
        dlogits = -np.exp(logp_all) * gt[:, None]
        dlogits[rows, targets] += gt
        dW2 = H.T @ dlogits
        dA1 = (dlogits @ w2.T) * (1.0 - H * H)
        dW1 = np.empty_like(w1)
        for c, block in enumerate(blocks):
            dW1[block] = params.E[windows[:, c]].T @ dA1

        if params.lora is not None:
            scale = params.lora_cfg.scale
            host_grads = {"W1": dW1, "W2": dW2}
            grads: dict[str, np.ndarray] = {}
            for name, (a, b) in params.lora.items():
                dhost = host_grads[name]
                grads[f"lora.{name}.A"] = scale * (b.T @ dhost)
                grads[f"lora.{name}.B"] = scale * (dhost @ a.T)
            return grads

        dE = np.zeros_like(params.E)
        for c, block in enumerate(blocks):
            np.add.at(dE, windows[:, c], dA1 @ w1[block].T)
        return {"E": dE, "W1": dW1, "b1": dA1.sum(axis=0),
                "W2": dW2, "b2": dlogits.sum(axis=0)}

    return logp_all[rows, targets], grad_of


def logprob_sequence(params: PolicyParams, prompt, completion,
                     temperature: float = 1.0) -> np.ndarray:
    """Teacher-forced log-probabilities of each completion token.

    Logits are divided by the temperature before the log-softmax, matching
    the bookkeeping convention of sample_sequence.
    """
    windows, targets = stack_windows(params, [(prompt, completion)])
    return token_forward(params, windows, targets, temperature)[0]


def generate(params: PolicyParams, prompts, temperature: float, max_len: int,
             seeds=None, stop_token: int = EOS_ID) -> list[SampledSequence]:
    """Ancestral sampling from softmax(logits / temperature), all prompts in
    lockstep: each step is one forward over the live rows, and a row stops
    after emitting stop_token or at max_len. Row b draws its uniforms up
    front from default_rng(seeds[b]) and compares each with the token cdf,
    the one draw Generator.choice(p=...) makes, so rows are independent.
    Temperatures below 1e-6 switch to greedy argmax and need no seeds; a
    greedy token's recorded logprob is 0.0 (that of the argmax distribution).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive (use <1e-6 for greedy)")
    prompts = [_check_tokens(params, p) for p in prompts]
    greedy = temperature < GREEDY_TEMPERATURE_CUTOFF
    if not greedy:
        if seeds is None or len(seeds) != len(prompts):
            raise ValueError("sampling needs one seed per prompt")
        uniforms = np.array([np.random.default_rng(s).random(max_len) for s in seeds])

    # Row b's window at step t is buf[b, t:t + C]: its prompt's last C ids,
    # left-padded with PAD_ID, then the tokens it has emitted.
    C = params.context_size
    buf = np.full((len(prompts), C + max_len), PAD_ID, dtype=np.int64)
    for b, prompt in enumerate(prompts):
        tail = prompt[-C:]
        buf[b, C - len(tail):C] = tail
    logprobs = np.zeros((len(prompts), max_len))
    lengths = np.full(len(prompts), max_len)
    # All rows until one stops: a slice, not an index array, keeps the
    # one-row greedy shell as cheap per token as a plain loop.
    live = slice(None)
    w1, w2 = params.effective("W1"), params.effective("W2")
    for t in range(max_len):
        logits = _next_logits(params, w1, w2, buf[live, t:t + C])
        if greedy:
            tok = logits.argmax(axis=1)
        else:
            logp = _log_softmax(logits / temperature)
            p = np.exp(logp)
            p /= p.sum(axis=1, keepdims=True)
            cdf = p.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            tok = (cdf <= uniforms[live, t, None]).sum(axis=1)
            logprobs[live, t] = logp[np.arange(len(tok)), tok]
        buf[live, C + t] = tok
        if stop_token in tok.tolist():  # cheaper per token than an array test
            rows = np.arange(len(prompts))[live]
            lengths[rows[tok == stop_token]] = t + 1
            live = rows[tok != stop_token]
            if not len(live):
                break
    return [SampledSequence(tokens=tuple(buf[b, C:C + n].tolist()),
                            logprobs=tuple(logprobs[b, :n].tolist()),
                            prompt_len=len(prompt))
            for b, (prompt, n) in enumerate(zip(prompts, lengths))]


def sample_sequence(params: PolicyParams, prompt, temperature: float = 1.0,
                    max_len: int = 128, stop_token: int = EOS_ID,
                    rng_seed: int = 0) -> SampledSequence:
    """One prompt sampled by generate, with seed rng_seed."""
    return generate(params, [prompt], temperature, max_len, [rng_seed], stop_token)[0]


def greedy_decode(params: PolicyParams, prompt, max_len: int = 128,
                  stop_token: int = EOS_ID) -> list[int]:
    seq = generate(params, [prompt], GREEDY_TEMPERATURE_CUTOFF / 10, max_len,
                   stop_token=stop_token)[0]
    return list(seq.tokens)


def backward(params: PolicyParams, prompt, completion, per_token_loss_grads,
             temperature: float = 1.0) -> dict[str, np.ndarray]:
    """Exact gradient of L = sum_t g_t * log pi(o_t | ctx_t) w.r.t. the
    trainable tensors, keyed like params.trainable() (see token_forward)."""
    windows, targets = stack_windows(params, [(prompt, completion)])
    return token_forward(params, windows, targets, temperature)[1](per_token_loss_grads)


# ---------------------------------------------------------------------------
# Checkpoint container: deterministic bytes (no timestamps), exact float64.
# Layout: magic, u32 header length, UTF-8 JSON header, then the raw C-order
# float64 buffers in header order.
# ---------------------------------------------------------------------------

def save_checkpoint(params: PolicyParams, path, extra: dict | None = None) -> None:
    tensors: list[tuple[str, np.ndarray]] = list(params.base_tensors().items())
    if params.lora is not None:
        for name in sorted(params.lora):
            a, b = params.lora[name]
            tensors.append((f"lora.{name}.A", a))
            tensors.append((f"lora.{name}.B", b))
    header = {
        "format_version": 1,
        "context_size": params.context_size,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors],
        "lora_cfg": (
            {"rank": params.lora_cfg.rank, "alpha": params.lora_cfg.alpha,
             "targets": list(params.lora_cfg.targets)}
            if params.lora_cfg is not None else None),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # Renamed onto the target only when complete, so an interrupted save keeps
    # the previous checkpoint. No fsync: it slowed the work that follows.
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for _, t in tensors:
                f.write(np.ascontiguousarray(t, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Returns (params, extra metadata dict)."""
    try:
        with open(path, "rb") as f:
            magic = f.read(len(CKPT_MAGIC))
            if magic != CKPT_MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
            (hlen,) = struct.unpack("<I", f.read(4))
            header = json.loads(f.read(hlen).decode("utf-8"))
            if header.get("format_version") != 1:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {header.get('format_version')}")
            loaded: dict[str, np.ndarray] = {}
            for spec in header["tensors"]:
                shape = tuple(spec["shape"])
                count = int(np.prod(shape)) if shape else 1
                buf = f.read(count * 8)
                if len(buf) != count * 8:
                    raise CheckpointError(f"{path}: truncated tensor {spec['name']}")
                loaded[spec["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    lora_cfg = None
    lora = None
    if header.get("lora_cfg"):
        c = header["lora_cfg"]
        lora_cfg = LoraConfig(rank=c["rank"], alpha=c["alpha"],
                              targets=tuple(c["targets"]))
        lora = {name: (loaded[f"lora.{name}.A"], loaded[f"lora.{name}.B"])
                for name in lora_cfg.targets}
    params = PolicyParams(
        E=loaded["E"], W1=loaded["W1"], b1=loaded["b1"],
        W2=loaded["W2"], b2=loaded["b2"],
        context_size=int(header["context_size"]),
        lora=lora, lora_cfg=lora_cfg)
    return params, header.get("extra", {})
