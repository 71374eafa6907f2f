"""Where the traced run wraps the program, and the per-layer metrics it
derives from the recorded spans.

Each entry wraps a public function at the attribute its caller looks it up
through: `trainer.optimizer_step` and `rewards.parse_tagged` are imported by
name into their callers, `embedder.post_json` and `judge.post_json` likewise,
and `PolicyParams.effective`, `ByteBucketVocab.encode` and
`HttpJudgeClient.complete` are methods. The embedding provider is an object
passed to the reward code, so it is wrapped where the benchmark builds it.
"""

from __future__ import annotations

from semrank import (dataprep, embedder, judge, optim, policy, rewards,
                     tokenizers, trainer)

from spans import Recorder


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(key, size):
    def on_call(counters, args, kwargs, result):
        counters[key] += size(args, kwargs, result)
    return on_call


def _dedup_counts(counters, args, kwargs, result):
    counters["dedup.in"] += len(_arg(args, kwargs, 0, "paragraphs"))
    counters["dedup.out"] += len(result)


# (owner, attribute, span name, on_call hook, opaque)
WRAP_POINTS = [
    (policy, "sample_sequence", "policy.sample_sequence",
     _count("sampled_tokens", lambda a, k, r: len(r.tokens)), False),
    (policy, "logprob_sequence", "policy.logprob_sequence",
     _count("logprob_tokens", lambda a, k, r: len(r)), False),
    (policy, "backward", "policy.backward",
     _count("backward_tokens",
            lambda a, k, r: len(_arg(a, k, 2, "completion"))), False),
    (policy.PolicyParams, "effective", "policy.effective", None, False),
    (policy, "save_checkpoint", "policy.save_checkpoint", None, False),
    # greedy_decode is a thin shell around sample_sequence: keep its
    # sampling out of the rollout numbers by making it opaque.
    (policy, "greedy_decode", "policy.greedy_decode", None, True),
    (trainer, "optimizer_step", "optim.optimizer_step", None, False),
    (optim, "newton_schulz", "optim.newton_schulz", None, False),
    (trainer, "grpo_step", "trainer.grpo_step", None, False),
    (rewards, "score_generation", "rewards.score_generation", None, False),
    (rewards, "rouge_l_f1", "rewards.rouge_l_f1", None, False),
    (rewards, "judge_reward", "rewards.judge_reward", None, False),
    (rewards, "parse_tagged", "text_protocol.parse_tagged", None, False),
    (embedder, "post_json", "http.post_json", None, False),
    (judge, "post_json", "http.post_json", None, False),
    (judge.HttpJudgeClient, "complete", "judge.complete", None, False),
    (dataprep, "clean_text", "dataprep.clean_text", None, False),
    (dataprep, "dedup_paragraphs", "dataprep.dedup_paragraphs",
     _dedup_counts, False),
    (dataprep, "chunk_tokens", "dataprep.chunk_tokens", None, False),
    (dataprep, "write_jsonl", "dataprep.write_jsonl", None, False),
    (tokenizers.ByteBucketVocab, "encode", "tokenizers.encode", None, False),
]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every layer; returns what `uninstall` needs to restore them."""
    saved = []
    for owner, attr, name, on_call, opaque in WRAP_POINTS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, on_call, opaque))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def wrap_provider(rec: Recorder, provider):
    return rec.wrap("embedder.provider", provider,
                    _count("provider_texts", lambda a, k, r: len(a[0])))


def layer_metrics(rec: Recorder, wall_s: float, span_cost_s: float) -> dict:
    """Every per-layer metric of the spec except the trainer.* rollout
    statistics and ops.failed_frac, which the workload computes."""
    rows = rec.by_name()
    c = rec.counters

    def stat(name, key):
        return rows.get(name, {}).get(key, 0)

    out = {}
    for name in ("policy.sample_sequence", "policy.logprob_sequence",
                 "policy.backward", "policy.effective", "policy.save_checkpoint",
                 "policy.greedy_decode", "optim.optimizer_step",
                 "optim.newton_schulz", "rewards.score_generation",
                 "judge.complete", "embedder.provider", "http.post_json"):
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("rewards.rouge_l_f1", "rewards.judge_reward",
                 "text_protocol.parse_tagged", "trainer.grpo_step",
                 "dataprep.clean_text", "dataprep.dedup_paragraphs",
                 "dataprep.chunk_tokens", "dataprep.write_jsonl",
                 "tokenizers.encode"):
        out[f"{name}.self_s"] = stat(name, "self_s")
    sampled = c["sampled_tokens"]
    out["policy.sample_sequence.us_per_token"] = (
        1e6 * stat("policy.sample_sequence", "self_s") / sampled if sampled else 0.0)
    out["policy.logprob_sequence.tokens"] = c["logprob_tokens"]
    out["policy.backward.tokens"] = c["backward_tokens"]
    out["embedder.provider.texts"] = c["provider_texts"]
    calls = stat("embedder.provider", "calls")
    out["embedder.texts_per_call"] = c["provider_texts"] / calls if calls else 0.0
    out["http.post_json.failed"] = stat("http.post_json", "failed")
    out["dataprep.dedup_paragraphs.dropped_frac"] = (
        1.0 - c["dedup.out"] / c["dedup.in"] if c["dedup.in"] else 0.0)
    step_total = stat("trainer.grpo_step", "total_s")
    out["trace.unattributed_frac"] = (
        stat("trainer.grpo_step", "self_s") / step_total if step_total else 0.0)
    out["trace.overhead_frac"] = span_cost_s * len(rec.names) / wall_s
    return out
