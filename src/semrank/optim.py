"""AdamW, Muon with Newton-Schulz orthogonalization, and the warmup-cosine
learning-rate schedule.

Muon replaces each matrix parameter's momentum update with its approximate
nearest semi-orthogonal matrix, computed by a fixed-coefficient quintic
Newton-Schulz iteration, then rescales by 0.2*sqrt(max(rows, cols)) so one
learning rate works for both optimizers. Everything that is not routed to
Muon (the embedding table E and every 1-D parameter) falls back to an
embedded AdamW with the same learning rate and weight decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Quintic iteration coefficients from the reference Muon implementation.
NS_COEFFS = (3.4445, -4.7750, 2.0315)
NS_EPS = 1e-7


def newton_schulz(G: np.ndarray, steps: int = 5) -> np.ndarray:
    """Approximate the semi-orthogonal factor U V^T of G's SVD.

    The input is normalized by its Frobenius norm, then refined with
    X <- a X + (b (X X^T) + c (X X^T)^2) X. Wide orientation (rows <= cols)
    is required by the polynomial, so tall matrices are transposed in and
    back out. A zero matrix returns zero (documented degenerate case).

    The quintic's slope at 0 is a = 3.4445, so 5 steps lift a singular
    value by at most a**5, about 486x: a singular value below about
    1e-3 * ||G||_F ends below 0.5 instead of near 1.
    """
    if steps < 1:
        raise ValueError("newton_schulz needs steps >= 1")
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise ValueError(f"newton_schulz expects a matrix, got shape {G.shape}")
    if np.isnan(G).any():
        raise ValueError("newton_schulz input contains NaN")
    transposed = G.shape[0] > G.shape[1]
    X = G.T if transposed else G
    norm = np.linalg.norm(X)
    if norm < NS_EPS:  # zero (or vanishing) matrix: documented degenerate case
        return np.zeros_like(G)
    # exact Frobenius normalization keeps the iteration scale-free; the
    # zero case is handled above instead of by an absolute epsilon
    X = X / norm
    a, b, c = NS_COEFFS
    for _ in range(steps):
        A = X @ X.T
        X = a * X + (b * A + c * (A @ A)) @ X
    return X.T if transposed else X


@dataclass
class LrSchedule:
    """Linear warmup to base_lr, then cosine decay to zero."""

    base_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("need 0 <= warmup_steps <= total_steps")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if schedule.warmup_steps > 0 and step < schedule.warmup_steps:
        return schedule.base_lr * step / schedule.warmup_steps
    if step >= schedule.total_steps:
        return 0.0
    span = schedule.total_steps - schedule.warmup_steps
    if span == 0:
        return schedule.base_lr
    progress = (step - schedule.warmup_steps) / span
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class AdamWState:
    """Bias-corrected Adam moments with decoupled weight decay."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(state: AdamWState, params: dict[str, np.ndarray],
               grads: dict[str, np.ndarray], lr: float | None = None) -> None:
    """One AdamW update, in place. lr overrides state.lr (for schedules)."""
    lr = state.lr if lr is None else lr
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * (g * g)
        m_hat = m / (1 - state.beta1 ** t)
        v_hat = v / (1 - state.beta2 ** t)
        if state.weight_decay:
            p -= lr * state.weight_decay * p
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class MuonState:
    """Momentum buffers for matrix params plus an AdamW fallback for the rest.

    The embedding table E goes to the fallback with the 1-D params,
    following the convention of excluding embeddings from orthogonalized
    updates.
    """

    lr: float = 1e-3
    momentum: float = 0.95
    weight_decay: float = 0.0
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    fallback: AdamWState | None = None

    def __post_init__(self):
        if self.fallback is None:
            self.fallback = AdamWState(lr=self.lr, weight_decay=self.weight_decay)


def muon_step(state: MuonState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], lr: float | None = None) -> None:
    """One Muon update, in place.

    Matrix params other than E: M <- mu*M + g, O = newton_schulz(M),
    P <- P - lr * 0.2*sqrt(max(rows, cols)) * O - lr*weight_decay*P.
    Everything else goes through the embedded AdamW at the same lr.
    """
    lr = state.lr if lr is None else lr
    fallback_params = {}
    fallback_grads = {}
    for name, p in params.items():
        g = grads[name]
        if p.ndim != 2 or name == "E":
            fallback_params[name] = p
            fallback_grads[name] = g
            continue
        buf = state.buffers.setdefault(name, np.zeros_like(p))
        buf *= state.momentum
        buf += g
        ortho = newton_schulz(buf)
        scale = 0.2 * math.sqrt(max(p.shape))
        if state.weight_decay:
            p -= lr * state.weight_decay * p
        p -= lr * scale * ortho
    if fallback_params:
        adamw_step(state.fallback, fallback_params, fallback_grads, lr=lr)


def make_optimizer(kind: str, lr: float,
                   weight_decay: float = 0.0) -> AdamWState | MuonState:
    """A fresh optimizer of kind; lr must be > 0 and weight_decay >= 0."""
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if weight_decay < 0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
    if kind == "adamw":
        return AdamWState(lr=lr, weight_decay=weight_decay)
    if kind == "muon":
        return MuonState(lr=lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer: {kind!r}")


def optimizer_step(state: AdamWState | MuonState, params: dict[str, np.ndarray],
                   grads: dict[str, np.ndarray], lr: float | None = None) -> None:
    if isinstance(state, MuonState):
        muon_step(state, params, grads, lr=lr)
    else:
        adamw_step(state, params, grads, lr=lr)
