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
Its first layer reads a per-position lookup table, row c*V + v holding
E[v] @ W1[c] (Devlin et al., 2014): a window's pre-activation is the sum
of C table rows, and the backward sums the pre-activation gradients
grouped by table row, from which dW1 and dE follow by small products. A W1
adapter stays factored, x @ W1 + scale * (x @ B1) @ A1, so the kernel never
forms W1_eff or the full dW1. The decoder, `generate`, multiplies by W1_eff.

Contexts shorter than C are left-padded with PAD_ID. Sampling and
log-probability bookkeeping share one temperature convention: logits are
divided by the temperature before the softmax, and recorded logprobs are
those of the tempered distribution actually sampled from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, replace
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
        object.__setattr__(self, "targets", tuple(self.targets))
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


def _aligned_copy(a: np.ndarray) -> np.ndarray:
    """A copy of a whose data starts on a 64-byte boundary. numpy only
    promises 16 bytes, and one-row greedy decoding ran up to 1.6x slower
    with W1 off a 64-byte boundary, so heap history set its speed."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _lora_names(host: str) -> tuple[str, str]:
    """tensors() names of the (A, B) factors of host's adapter."""
    return f"lora.{host}.A", f"lora.{host}.B"


@dataclass
class PolicyParams:
    """All model tensors plus the optional LoRA factor pairs.

    lora maps a target name to (A, B) with A: (rank, cols) and B: (rows,
    rank) for a host of shape (rows, cols); the adapter delta is
    scale * B @ A. tensors() names them all, in one order.
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

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by name: the base tensors in BASE_TENSORS order, then
        each adapter host's lora.<host>.A and lora.<host>.B in host-name
        order. Checkpoints and digest() store and hash this table."""
        out = self.base_tensors()
        for host, pair in sorted((self.lora or {}).items()):
            out.update(zip(_lora_names(host), pair))
        return out

    def trainable(self) -> dict[str, np.ndarray]:
        """Tensors the optimizer may update: the adapter's part of tensors()
        when one is attached, otherwise all base tensors."""
        if self.lora is None:
            return self.base_tensors()
        return {n: t for n, t in self.tensors().items() if n not in BASE_TENSORS}

    def effective(self, name: str) -> np.ndarray:
        """Host matrix with its LoRA delta applied (the host itself when no
        adapter targets it)."""
        base = getattr(self, name)
        if self.lora is not None and name in self.lora:
            a, b = self.lora[name]
            return base + self.lora_cfg.scale * (b @ a)
        return base

    def copy(self) -> "PolicyParams":
        """Independent copies; the base tensors start on 64-byte boundaries."""
        lora = self.lora and {host: (a.copy(), b.copy())
                              for host, (a, b) in self.lora.items()}
        return replace(self, lora=lora,
                       **{n: _aligned_copy(t) for n, t in self.base_tensors().items()})

    def digest(self) -> str:
        """Stable content hash of tensors(), used by the reference-freezing
        check."""
        h = hashlib.sha256()
        for name, t in self.tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(t).tobytes())
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


def check_init(init_scale: float, **sizes: int) -> None:
    """Raise ValueError unless init_scale > 0 and every size is >= 1."""
    small = {name: n for name, n in sizes.items() if n < 1}
    if small:
        raise ValueError(f"policy sizes must be >= 1, got {small}")
    if not init_scale > 0:
        raise ValueError(f"init_scale must be > 0, got {init_scale}")


def init_params(vocab_size: int = 64, context_size: int = 16, embed_dim: int = 32,
                hidden_dim: int = 64, seed: int = 0, init_scale: float = 0.08) -> PolicyParams:
    """Gaussian-initialized weights, zero biases; see check_init."""
    check_init(init_scale, vocab_size=vocab_size, context_size=context_size,
               embed_dim=embed_dim, hidden_dim=hidden_dim)
    rng = np.random.default_rng(seed)
    return PolicyParams(
        E=rng.normal(0.0, init_scale, (vocab_size, embed_dim)),
        W1=rng.normal(0.0, init_scale, (context_size * embed_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        W2=rng.normal(0.0, init_scale, (hidden_dim, vocab_size)),
        b2=np.zeros(vocab_size),
        context_size=context_size).copy()


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
    return replace(detach_lora(params), lora=lora, lora_cfg=cfg)


def detach_lora(params: PolicyParams) -> PolicyParams:
    """Base weights with the adapter removed (the GRPO reference policy)."""
    return replace(params, lora=None, lora_cfg=None).copy()


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


def _position_table(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (C*V, k) first-layer table of a (C*d, k) matrix w: row c*V + v is
    E[v] @ w[c*d:(c+1)*d], token v's product at context position c."""
    return np.matmul(E, w.reshape(-1, E.shape[1], w.shape[1])).reshape(-1, w.shape[1])


def _position_table_grad(E: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """The adjoint of _position_table in w: block c of dw is E^T dT[c]."""
    return np.matmul(E.T, dT.reshape(-1, E.shape[0], dT.shape[1])).reshape(-1, dT.shape[1])


def _lookup_sum(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """x @ w for N windows given their (C, N) table keys: the sum over
    positions c of table[keys[c]], added in position order."""
    out = np.zeros((keys.shape[1], table.shape[1]))
    for col in keys:
        out += table.take(col, axis=0)
    return out


def _grouped_row_sums(keys: np.ndarray, rows: np.ndarray, n_keys: int) -> np.ndarray:
    """The adjoint of _lookup_sum: row k of the (n_keys, cols) result is the
    sum of rows[n] over every (c, n) with keys[c, n] == k. One bincount per
    column keeps the scratch memory at one (C*N,) weight vector."""
    flat = keys.ravel()
    out = np.empty((rows.shape[1], n_keys))
    for j, col in enumerate(rows.T):
        out[j] = np.bincount(flat, np.tile(col, len(keys)), n_keys)
    return out.T


def token_forward(params: PolicyParams, windows, targets, temperature: float = 1.0):
    """One forward over N stacked (N, C) context windows.

    Returns (logp, grad_of): logp[n] is the tempered log-prob of targets[n],
    and grad_of(g) the exact gradient of sum_n g[n] * logp[n] w.r.t.
    params.trainable() (in LoRA mode the adapter factors only, the hosts
    are frozen), from this same forward.

    The first layer reads a per-position lookup table (Devlin et al., 2014):
    T = E @ W1[c] is (C*V, h), and a window's pre-activation is the sum of
    its rows at keys window[c] + c*V, so the (N, C*d) gathered embeddings
    are never built. The backward sums the rows of dpre grouped by key into
    dT, then dW1[c] = E^T dT[c] and dE = sum_c dT[c] W1[c]^T. A W1 adapter
    is factored: a second table of B1 gives U = x @ B1 (N, r), the policy
    adds s * U @ A1, and dA1 = s * U^T dpre while dB1 comes from the grouped
    sums of s * dpre @ A1^T at rank r, so neither W1 + s*B1@A1 nor the
    full dW1 is formed.
    """
    windows = _check_tokens(params, windows)
    targets = _check_tokens(params, targets)
    N = len(targets)
    C, V = params.context_size, params.vocab_size
    if windows.shape != (N, C):
        raise ValueError(f"windows must have shape ({N}, {C}), got {windows.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    lora = params.lora or {}
    scale = params.lora_cfg.scale if params.lora else 0.0
    # keys[c, n]: the table row of window n's token at position c
    keys = np.ascontiguousarray((windows + V * np.arange(C)).T)
    pre = _lookup_sum(_position_table(params.E, params.W1), keys)
    if "W1" in lora:
        A1, B1 = lora["W1"]
        U = _lookup_sum(_position_table(params.E, B1), keys)
        pre += scale * (U @ A1)
    w2 = params.effective("W2")
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
        dpre = (dlogits @ w2.T) * (1.0 - H * H)

        if params.lora is not None:
            grads: dict[str, np.ndarray] = {}
            if "W1" in lora:
                grads["lora.W1.A"] = scale * (U.T @ dpre)
                grads["lora.W1.B"] = _position_table_grad(
                    params.E, _grouped_row_sums(keys, scale * (dpre @ A1.T), C * V))
            if "W2" in lora:
                A2, B2 = lora["W2"]
                grads["lora.W2.A"] = scale * (B2.T @ dW2)
                grads["lora.W2.B"] = scale * (dW2 @ A2.T)
            return grads

        dT = _grouped_row_sums(keys, dpre, C * V)
        h = params.hidden_dim
        dE = np.matmul(dT.reshape(C, V, h),
                       params.W1.reshape(C, -1, h).transpose(0, 2, 1)).sum(axis=0)
        return {"E": dE, "W1": _position_table_grad(params.E, dT), "b1": dpre.sum(axis=0),
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
    tensors = params.tensors()
    header = {
        "format_version": 1,
        "context_size": params.context_size,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors.items()],
        "lora_cfg": params.lora_cfg and asdict(params.lora_cfg),
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
            for t in tensors.values():
                f.write(np.ascontiguousarray(t, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Returns (params, extra metadata dict). A file that is not exactly one
    checkpoint whose tensors fit each other raises CheckpointError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not data.startswith(CKPT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    try:
        return _parse_checkpoint(data)
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc


def _parse_checkpoint(data: bytes) -> tuple[PolicyParams, dict]:
    offset = len(CKPT_MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", data, len(CKPT_MAGIC))
    header = json.loads(data[offset:offset + hlen])
    if not isinstance(header, dict):
        raise ValueError("the header is not a JSON object")
    if header.get("format_version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('format_version')}")
    offset += hlen
    loaded: dict[str, np.ndarray] = {}
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset + 8 * count > len(data):
            raise ValueError(f"truncated tensor {spec['name']}")
        loaded[spec["name"]] = np.frombuffer(
            data, np.float64, count, offset).reshape(shape)
        offset += 8 * count
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} bytes after the last tensor")

    lora_cfg = header["lora_cfg"] and LoraConfig(**header["lora_cfg"])
    lora = lora_cfg and {host: tuple(loaded[n] for n in _lora_names(host))
                         for host in lora_cfg.targets}
    params = PolicyParams(**{n: loaded[n] for n in BASE_TENSORS},
                          context_size=int(header["context_size"]),
                          lora=lora, lora_cfg=lora_cfg)
    _check_shapes(params, loaded)
    return params.copy(), header.get("extra", {})


def _check_shapes(params: PolicyParams, loaded: dict[str, np.ndarray]) -> None:
    """ValueError unless loaded is exactly params.tensors() and each tensor
    fits E's (V, d), b1's h, the context size and the adapter rank."""
    names, want_names = sorted(loaded), sorted(params.tensors())
    if names != want_names:
        raise ValueError(f"tensors {names} do not match {want_names}")
    if params.E.ndim != 2 or params.b1.ndim != 1:
        raise ValueError(f"E must be a matrix and b1 a vector, got "
                         f"{params.E.shape} and {params.b1.shape}")
    (V, d), (h,) = params.E.shape, params.b1.shape
    want = {"E": (V, d), "W1": (params.context_size * d, h), "b1": (h,),
            "W2": (h, V), "b2": (V,)}
    for host in params.lora or ():
        (rows, cols), r = want[host], params.lora_cfg.rank
        want.update(zip(_lora_names(host), [(r, cols), (rows, r)]))
    bad = [f"{n} {t.shape} (expected {want[n]})"
           for n, t in params.tensors().items() if t.shape != want[n]]
    if bad:
        raise ValueError("tensor shapes do not fit: " + ", ".join(bad))
