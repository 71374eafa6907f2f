"""The three training stages: causal-LM pre-training, supervised fine-tuning
with prompt masking, and GRPO.

GRPO, per step: sample K completions per prompt at the configured
temperature, score each with the reward pipeline, standardize rewards
within each group into advantages, then minimize

    loss_t = -min(rho_t * A, clip(rho_t, 1-eps, 1+eps) * A) + beta * kl_t

per completion token, averaged over tokens, then over the group and the
prompt batch. rho_t compares the current policy to the sampling-time
snapshot (both at the sampling temperature); kl_t is the non-negative k3
estimator exp(d) - d - 1 with d = logpi_ref - logpi_new against the frozen
reference policy. Only the LoRA adapter is updated; the reference is the
base model with the adapter detached. All three stages train through the
one stacked token kernel, policy.token_forward.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import policy
from .errors import SemrankError
from .optim import AdamWState, LrSchedule, MuonState, lr_at, optimizer_step
from .rewards import COMPONENT_NAMES, RewardBreakdown

logger = logging.getLogger(__name__)

METRICS_COLUMNS = ("step", "mean_total", "mean_semantic", "mean_rouge",
                   "mean_answer", "mean_format", "mean_think", "mean_kl",
                   "loss", "lr")


class GrpoNaNError(SemrankError):
    """Loss went non-finite; carries the step and offending prompt context."""

    def __init__(self, message: str, step: int, prompt_index: int,
                 rewards: list[RewardBreakdown]):
        super().__init__(message)
        self.step = step
        self.prompt_index = prompt_index
        self.rewards = rewards


class LmNaNError(SemrankError):
    """A CPT or SFT batch loss went non-finite; the message names the epoch
    and the batch, each counted from 1 as metrics.csv counts epochs."""


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 6
    clip_eps: float = 0.2
    kl_coeff: float = 0.05
    temperature: float = 0.7
    steps: int = 1000
    adv_eps: float = 1e-4
    prompts_per_step: int = 4
    max_new_tokens: int = 96
    lr: float = 1e-3
    checkpoint_interval: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip_eps must be in (0, 1)")
        if self.kl_coeff < 0:
            raise ValueError("kl_coeff must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.prompts_per_step < 1:
            raise ValueError("prompts_per_step must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if not self.adv_eps > 0:
            raise ValueError("adv_eps must be > 0")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")


@dataclass(frozen=True)
class GrpoItem:
    """One prompt plus whatever the reward pipeline needs to score it."""

    item_id: str
    prompt_tokens: tuple[int, ...]
    payload: object = None


# Maps (item, decoded generation text) to a scored breakdown.
ScoreFn = Callable[[GrpoItem, str], RewardBreakdown]


@dataclass
class RolloutGroup:
    prompt: tuple[int, ...]
    samples: list[policy.SampledSequence]
    rewards: list[RewardBreakdown]
    advantages: np.ndarray


@dataclass
class TrainState:
    params: policy.PolicyParams
    ref_params: policy.PolicyParams
    optimizer: AdamWState | MuonState
    step: int = 0
    history: list[dict] = field(default_factory=list)


def group_advantages(rewards: Sequence[float], adv_eps: float = 1e-4) -> np.ndarray:
    """Group-standardized advantages A_i = (r_i - mean) / (std_pop + adv_eps).

    A group whose population std is below adv_eps (uniform rewards) gets
    exactly zero advantages rather than a division blow-up.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.shape[0] < 2:
        raise ValueError("group_advantages needs K >= 2 rewards")
    std = float(r.std())  # population std
    if std < adv_eps:
        return np.zeros_like(r)
    return (r - r.mean()) / (std + adv_eps)


def k3_kl(logp_ref: np.ndarray, logp_new: np.ndarray) -> np.ndarray:
    """Per-token k3 KL estimate exp(d) - d - 1, d = logp_ref - logp_new.

    Non-negative for every input pair, zero iff the logprobs agree.
    """
    d = np.asarray(logp_ref) - np.asarray(logp_new)
    return np.expm1(d) - d


def _epoch_order(n: int, steps_needed: int, rng: np.random.Generator) -> list[int]:
    """Seeded shuffled indices, reshuffling epoch by epoch, long enough to
    cover steps_needed draws."""
    order: list[int] = []
    while len(order) < steps_needed:
        order.extend(rng.permutation(n).tolist())
    return order


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def _stack_pairs(params: policy.PolicyParams,
                 pairs: list[tuple[Sequence[int], Sequence[int]]]):
    """token_forward rows of (prompt, completion) pairs, weighted so that
    weights @ x is the mean over pairs of each completion's token mean."""
    windows, targets = policy.stack_windows(params, pairs)
    lengths = np.array([len(completion) for _, completion in pairs])
    return windows, targets, np.repeat(1.0 / (lengths * len(pairs)), lengths)


def _collect_rollouts(state: TrainState, items: Sequence[GrpoItem],
                      score_fn: ScoreFn, decode: Callable[[Sequence[int]], str],
                      cfg: GrpoConfig, step_seed: int) -> list[RolloutGroup]:
    """Every prompt's K completions from one generate call, row (i, k) seeded
    by (cfg.seed, step_seed, i, k), then scored prompt by prompt."""
    K = cfg.group_size
    samples = policy.generate(
        state.params, [item.prompt_tokens for item in items for _ in range(K)],
        cfg.temperature, cfg.max_new_tokens,
        seeds=[np.random.SeedSequence(entropy=cfg.seed, spawn_key=(step_seed, i, k))
               for i in range(len(items)) for k in range(K)])
    groups = []
    for i, item in enumerate(items):
        group = samples[i * K:(i + 1) * K]
        rewards = [score_fn(item, decode(seq.tokens)) for seq in group]
        advantages = group_advantages([b.total for b in rewards], cfg.adv_eps)
        groups.append(RolloutGroup(prompt=tuple(item.prompt_tokens), samples=group,
                                   rewards=rewards, advantages=advantages))
    return groups


def _grpo_pass(state: TrainState, groups: list[RolloutGroup],
               cfg: GrpoConfig) -> dict:
    """One optimization pass over fixed rollouts: compute the clipped
    surrogate + KL loss, its exact gradient, and take one optimizer step.
    The step's completions are stacked once: one token_forward call for the
    reference log-probs, one for the policy's log-probs and gradient."""
    params = state.params
    samples = [seq for grp in groups for seq in grp.samples]
    windows, targets, weights = _stack_pairs(
        params, [(grp.prompt, seq.tokens) for grp in groups for seq in grp.samples])
    lengths = [len(seq.tokens) for seq in samples]
    adv = np.repeat(np.concatenate([grp.advantages for grp in groups]), lengths)
    logp_old = np.concatenate([seq.logprobs for seq in samples])
    # [0] frees the reference's (N, V) temporaries before the policy
    # forward; holding both slowed later greedy decoding in the process.
    logp_ref = policy.token_forward(state.ref_params, windows, targets,
                                    cfg.temperature)[0]
    logp_new, grad_of = policy.token_forward(params, windows, targets,
                                             cfg.temperature)
    rho = np.exp(logp_new - logp_old)
    unclipped = rho * adv
    clipped = np.clip(rho, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv
    surrogate = np.minimum(unclipped, clipped)
    kl = k3_kl(logp_ref, logp_new)
    group_tokens = [sum(len(seq.tokens) for seq in grp.samples) for grp in groups]
    group_loss = np.add.reduceat(weights * (-surrogate + cfg.kl_coeff * kl),
                                 np.cumsum([0] + group_tokens[:-1]))
    finite = np.isfinite(group_loss)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite group
        raise GrpoNaNError(f"non-finite GRPO loss at step {state.step}, prompt {i}",
                           step=state.step, prompt_index=i, rewards=groups[i].rewards)
    moving = adv != 0.0
    bound = (1 + cfg.clip_eps) * np.abs(adv[moving])
    max_term_ratio = float(np.max(np.abs(surrogate[moving]) / bound, initial=0.0))

    # d loss / d logp_new, per token, with all averaging folded in:
    # the min() gate passes gradient only where the unclipped branch
    # is active, and d(kl)/d(logp_new) = 1 - exp(logp_ref - logp_new).
    active = unclipped <= clipped
    g = -rho * adv * active + cfg.kl_coeff * (1.0 - np.exp(logp_ref - logp_new))
    optimizer_step(state.optimizer, params.trainable(), grad_of(g * weights),
                   lr=cfg.lr)
    return {
        "loss": float(group_loss.sum()),
        "mean_kl": float(np.mean(kl)),
        "max_policy_term_ratio": max_term_ratio,
    }


def grpo_step(state: TrainState, items: Sequence[GrpoItem], score_fn: ScoreFn,
              decode: Callable[[Sequence[int]], str], cfg: GrpoConfig,
              step_seed: int) -> tuple[dict, list[RolloutGroup]]:
    """One GRPO step: sample the groups, then one optimization pass over
    them. Returns (metrics, rollouts).

    Sampling seeds derive from (cfg.seed, step_seed), so a fixed run seed
    reproduces the rollouts bit for bit. Reported loss/KL are those of the
    pass, where rho = 1 (on-policy).
    """
    groups = _collect_rollouts(state, items, score_fn, decode, cfg, step_seed)
    update = _grpo_pass(state, groups, cfg)
    state.step += 1

    rewards = [b for grp in groups for b in grp.rewards]
    metrics = {
        "step": state.step,
        "mean_total": float(np.mean([b.total for b in rewards])),
        **{f"mean_{name}": _mean_or_none([getattr(b, name) for b in rewards])
           for name in COMPONENT_NAMES},
        "mean_kl": update["mean_kl"],
        "loss": update["loss"],
        "lr": cfg.lr,
        "max_policy_term_ratio": update["max_policy_term_ratio"],
    }
    return metrics, groups


def write_metrics_csv(path, rows: list[dict],
                      columns: Sequence[str] = METRICS_COLUMNS) -> None:
    """Rows as UTF-8 CSV under a header of columns, in that order; a missing
    or None value is an empty cell. Every CSV the pipeline emits is written
    here."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])


def run_grpo(state: TrainState, dataset: Sequence[GrpoItem], score_fn: ScoreFn,
             decode: Callable[[Sequence[int]], str], cfg: GrpoConfig,
             out_dir: str | Path | None = None) -> tuple[policy.PolicyParams, list[dict]]:
    """cfg.steps GRPO steps over a seeded shuffle of the dataset.

    Emits metrics.csv and step{N}.ckpt checkpoints into out_dir when it is
    given; partial artifacts survive an aborted run.
    """
    if not dataset:
        raise ValueError("run_grpo needs a non-empty dataset")
    ref_digest = state.ref_params.digest()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(0xC0FFEE,)))
    order = _epoch_order(len(dataset), cfg.steps * cfg.prompts_per_step, rng)

    try:
        for step in range(cfg.steps):
            take = order[step * cfg.prompts_per_step:(step + 1) * cfg.prompts_per_step]
            batch = [dataset[i] for i in take]
            metrics, _ = grpo_step(state, batch, score_fn, decode, cfg,
                                   step_seed=step)
            state.history.append(metrics)
            if step % 50 == 0:
                logger.info("grpo step %d: mean_total=%.4f loss=%.5f kl=%.5f",
                            metrics["step"], metrics["mean_total"],
                            metrics["loss"], metrics["mean_kl"])
            # the last step's checkpoint is the one the finally clause writes
            if out_dir is not None and cfg.checkpoint_interval > 0 \
                    and (step + 1) % cfg.checkpoint_interval == 0 and step + 1 < cfg.steps:
                policy.save_checkpoint(state.params, out_dir / f"step{step + 1}.ckpt",
                                       extra={"seed": cfg.seed, "step": step + 1})
    finally:
        if out_dir is not None:
            policy.save_checkpoint(state.params, out_dir / f"step{state.step}.ckpt",
                                   extra={"seed": cfg.seed, "step": state.step})
            write_metrics_csv(out_dir / "metrics.csv", state.history)

    if state.ref_params.digest() != ref_digest:
        raise SemrankError("reference params changed during GRPO (bug)")
    return state.params, state.history


# ---------------------------------------------------------------------------
# Stage I / II: causal-LM training and SFT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SftItem:
    prompt_tokens: tuple[int, ...]
    completion_tokens: tuple[int, ...]


def _train_lm(pairs: list[tuple[Sequence[int], Sequence[int]]],
              params: policy.PolicyParams, optimizer, schedule: LrSchedule,
              epochs: int, batch_size: int,
              seed: int) -> tuple[policy.PolicyParams, list[float]]:
    """Cross-entropy of (prompt, completion) pairs: batches in a seeded
    order reshuffled per epoch, one token_forward call and one optimizer
    step each. Returns (params, per-epoch mean of the batch losses)."""
    rng = np.random.default_rng(seed)
    step = 0
    epoch_losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(pairs))
        losses = []
        for batch, start in enumerate(range(0, len(order), batch_size), start=1):
            windows, targets, weights = _stack_pairs(
                params, [pairs[i] for i in order[start:start + batch_size]])
            logp, grad_of = policy.token_forward(params, windows, targets)
            losses.append(float(-(weights @ logp)))
            if not math.isfinite(losses[-1]):
                raise LmNaNError(f"non-finite loss at epoch {epoch}, batch {batch}")
            optimizer_step(optimizer, params.trainable(), grad_of(-weights),
                           lr=lr_at(schedule, step))
            step += 1
        epoch_losses.append(float(np.mean(losses)))
    return params, epoch_losses


def train_clm(chunks: Sequence[Sequence[int]], params: policy.PolicyParams,
              optimizer, schedule: LrSchedule, epochs: int = 5,
              seq_len: int = 128, batch_size: int = 8,
              seed: int = 0) -> tuple[policy.PolicyParams, list[float]]:
    """Next-token cross-entropy over all positions of the corpus chunks.

    Chunks are cut into seq_len training sequences; order is reshuffled
    per epoch with the given seed. Returns (params, per-epoch mean loss).
    """
    sequences: list[list[int]] = []
    for chunk in chunks:
        chunk = list(chunk)
        for start in range(0, len(chunk), seq_len):
            piece = chunk[start:start + seq_len]
            if piece:
                sequences.append(piece)
    if not sequences:
        raise ValueError("train_clm needs a non-empty tokenized corpus")
    return _train_lm([((), seq) for seq in sequences], params, optimizer,
                     schedule, epochs, batch_size, seed)


def train_sft(items: Sequence[SftItem], params: policy.PolicyParams,
              optimizer, schedule: LrSchedule, epochs: int = 4,
              batch_size: int = 8,
              seed: int = 0) -> tuple[policy.PolicyParams, list[float]]:
    """Cross-entropy on completion tokens only (prompt masked from the loss)."""
    for it in items:
        if len(it.completion_tokens) == 0:
            raise ValueError(f"SFT item with empty completion: {it!r}")
    if not items:
        raise ValueError("train_sft needs at least one item")
    return _train_lm([(it.prompt_tokens, it.completion_tokens) for it in items],
                     params, optimizer, schedule, epochs, batch_size, seed)


def sft_loss(items: Sequence[SftItem], params: policy.PolicyParams) -> float:
    """Mean per-token SFT loss without updating anything."""
    windows, targets, weights = _stack_pairs(
        params, [(it.prompt_tokens, it.completion_tokens) for it in items])
    logp, _ = policy.token_forward(params, windows, targets)
    return float(-(weights @ logp))
