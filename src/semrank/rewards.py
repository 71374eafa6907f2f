"""The multi-component reward: adjusted-cosine semantic signal plus the
answer, format, and think checks, with ROUGE-L and judge-score variants.

The semantic component is the centerpiece: for a generated explanation with
embedding v_gen, reference embedding v_gt, and dataset centroid v_ref,

    raw = cos(v_gen, v_gt) - cos(v_gen, v_ref)
    semantic = c * raw          (c = 4 by default)

The centroid subtraction corrects for the uniformly high cosine among
explanation texts; the rescale puts the usable range near [0, 1]. Negative
values are floored at 0 by default (switchable for ablation); there is no
upper clamp, values above 1.5 are only logged as anomalies.

score_generation is the one entry: it parses a raw generation, embeds its
explanation text once, and returns the plain unweighted sum of whichever
components are enabled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .embedder import EmbeddingProvider, cosine
from .judge import (JudgeClient, build_score_prompt, parse_score_reply,
                    parsed_judgement)
from .text_protocol import TaggedOutput, normalize_answer, parse_tagged
from .tokenizers import word_tokenize

logger = logging.getLogger(__name__)

COMPONENT_NAMES = ("semantic", "rouge", "judge", "answer", "format", "think")
DEFAULT_COMPONENTS = frozenset({"semantic", "answer", "format", "think"})

SEMANTIC_ANOMALY_THRESHOLD = 1.5


@dataclass(frozen=True)
class RewardConfig:
    """Which components run and how the semantic one is scaled."""

    c: float = 4.0
    clamp_floor: bool = True
    enabled: frozenset[str] = DEFAULT_COMPONENTS

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("rescale coefficient c must be positive")
        unknown = set(self.enabled) - set(COMPONENT_NAMES)
        if unknown:
            raise ValueError(f"unknown reward components: {sorted(unknown)}")
        if not self.enabled:
            raise ValueError("at least one reward component must be enabled")


@dataclass(frozen=True)
class RewardContext:
    """Per-item ground truth against which one generation is scored."""

    v_gt: np.ndarray
    v_ref: np.ndarray
    gt_answer: str
    gt_explanation: str

    def __post_init__(self):
        if self.v_gt.shape != self.v_ref.shape:
            raise ValueError(
                f"v_gt and v_ref dimensions differ: {self.v_gt.shape} vs {self.v_ref.shape}")


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-component scores; a component is None iff it was not enabled."""

    semantic: float | None = None
    rouge: float | None = None
    judge: float | None = None
    answer: float | None = None
    format: float | None = None
    think: float | None = None
    total: float = 0.0

    def components(self) -> dict[str, float]:
        """Present components only, by name."""
        out = {}
        for f in fields(self):
            if f.name == "total":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out


def semantic_reward(v_gen: np.ndarray, ctx: RewardContext,
                    cfg: RewardConfig = RewardConfig()) -> float:
    """c * (cos(gen, gt) - cos(gen, ref)), floored at 0 when configured."""
    value = cfg.c * (cosine(v_gen, ctx.v_gt) - cosine(v_gen, ctx.v_ref))
    if cfg.clamp_floor and value < 0.0:
        value = 0.0
    if value > SEMANTIC_ANOMALY_THRESHOLD:
        logger.warning("semantic reward %.4f above %.1f (not clipped)",
                       value, SEMANTIC_ANOMALY_THRESHOLD)
    return value


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, O(len(a)*len(b)) single-row DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l_f1(generated: str, reference: str) -> float:
    """Word-level ROUGE-L F1: P = LCS/|gen|, R = LCS/|ref|, F1 = 2PR/(P+R)."""
    gen = word_tokenize(generated)
    ref = word_tokenize(reference)
    if not gen or not ref:
        return 0.0
    lcs = _lcs_length(gen, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(gen)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


def answer_reward(out: TaggedOutput, ctx: RewardContext) -> float:
    """1.0 iff the extracted risposta matches the ground truth exactly
    after normalization."""
    if out.risposta is None:
        return 0.0
    return 1.0 if normalize_answer(out.risposta) == normalize_answer(ctx.gt_answer) else 0.0


def format_reward(out: TaggedOutput) -> float:
    """1.0 iff the required tags are present, closed, and non-overlapping."""
    return 1.0 if out.structurally_valid else 0.0


def think_reward(out: TaggedOutput) -> float:
    """1.0 iff a think block exists and is non-empty after trimming."""
    return 1.0 if out.think is not None and out.think.strip() else 0.0


def judge_reward(generated: str, ctx: RewardContext, judge_client: JudgeClient) -> float:
    """Judge-scored variant: 0-10 rubric score mapped to [0, 1].

    An unparseable reply is retried once with the same prompt; a second
    failure scores 0 with a warning. Transport errors propagate.
    """
    prompt = build_score_prompt(candidate=generated, reference=ctx.gt_explanation)
    return parsed_judgement(judge_client, prompt, parse_score_reply, 0) / 10.0


def explanation_text(out: TaggedOutput, generated: str) -> str:
    """Text the semantic component embeds: the spiegazione field when the
    output is structurally valid, the whole raw generation otherwise."""
    if out.structurally_valid and out.spiegazione is not None:
        return out.spiegazione
    return generated


def score_generation(generated: str, ctx: RewardContext,
                     provider: EmbeddingProvider | None,
                     cfg: RewardConfig = RewardConfig(),
                     judge_client: JudgeClient | None = None) -> RewardBreakdown:
    """Score a raw generation: parse it once, embed its explanation text once,
    and return every enabled component and their plain, unweighted sum.

    Disabled components are absent (None) in the breakdown, not zero.
    provider may be None only when the semantic component is disabled, and
    judge_client only when the judge component is.
    """
    if "semantic" in cfg.enabled and provider is None:
        raise ValueError("semantic component enabled but no embedding provider")
    if "judge" in cfg.enabled and judge_client is None:
        raise ValueError("judge component enabled but no judge client given")
    out = parse_tagged(generated)
    text = explanation_text(out, generated)
    values: dict[str, float] = {}
    if "semantic" in cfg.enabled:
        values["semantic"] = semantic_reward(provider([text])[0], ctx, cfg)
    if "rouge" in cfg.enabled:
        values["rouge"] = rouge_l_f1(text, ctx.gt_explanation)
    if "judge" in cfg.enabled:
        values["judge"] = judge_reward(text, ctx, judge_client)
    if "answer" in cfg.enabled:
        values["answer"] = answer_reward(out, ctx)
    if "format" in cfg.enabled:
        values["format"] = format_reward(out)
    if "think" in cfg.enabled:
        values["think"] = think_reward(out)
    return RewardBreakdown(total=sum(values.values()), **values)
