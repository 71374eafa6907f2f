"""What the benchmark measures: its workloads and metrics, and the
BENCHMARK.json manifest derived from them."""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "grpo-desk": "criterion-5 tag-task GRPO (C=40, K=6, P=4, 110 tokens), toy embedder "
                 "in-process: rollout sampling dominates and no reward call leaves the process",
    "grpo-wire": "tag-task GRPO on a small policy scored over HTTP stubs (embed + judge): "
                 "reward calls take about a third of each step, against 2% on grpo-desk",
    "offline-stages": "prepare on a near-duplicate-laden corpus, CPT with AdamW and Muon, "
                      "SFT through the CLI: dedup and full-parameter training dominate",
}

# name: (unit, better, bound). On a shared 2-CPU machine that switches
# between two speeds 1.3x apart, the timings spread by 5-20% over ten runs
# and the grpo-desk quality guards by 10-14% over ten seeds, hence the
# widest bound allowed, 0.25.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "grpo_step_ms_p50": ("ms", "lower", 0.25),
    "grpo_step_ms_tail": ("ms", "lower", 0.25),
    "grpo_tokens_per_s": ("tokens/s", "higher", 0.25),
    "grpo_reward_mean": ("reward", "higher", 0.25),
    "heldout_reward": ("reward", "higher", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "prepare_s": ("s", "lower", 0.25),
    "cpt_tokens_per_s": ("tokens/s", "higher", 0.25),
    "cpt_muon_tokens_per_s": ("tokens/s", "higher", 0.25),
    "sft_tokens_per_s": ("tokens/s", "higher", 0.25),
    "cpt_final_loss": ("nats/token", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name: (unit, better)
PER_LAYER = {}
for _name in ("sample_sequence", "logprob_sequence", "backward", "effective",
              "save_checkpoint", "greedy_decode"):
    PER_LAYER[f"policy.{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"policy.{_name}.self_s"] = ("s", "lower")
PER_LAYER["policy.sample_sequence.us_per_token"] = ("us/token", "lower")
PER_LAYER["policy.logprob_sequence.tokens"] = ("tokens", "higher")
PER_LAYER["policy.backward.tokens"] = ("tokens", "higher")
for _name in ("optim.optimizer_step", "optim.newton_schulz",
              "rewards.score_generation", "judge.complete",
              "embedder.provider", "http.post_json"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "rewards.rouge_l_f1.self_s": ("s", "lower"),
    "rewards.judge_reward.self_s": ("s", "lower"),
    "text_protocol.parse_tagged.self_s": ("s", "lower"),
    "embedder.provider.texts": ("count", "higher"),
    "embedder.texts_per_call": ("texts/call", "higher"),
    "http.post_json.failed": ("count", "lower"),
    "trainer.grpo_step.self_s": ("s", "lower"),
    "trainer.zero_adv_group_frac": ("fraction", "lower"),
    "trainer.eos_frac": ("fraction", "higher"),
    "trainer.completion_tokens_mean": ("tokens", "higher"),
    "dataprep.clean_text.self_s": ("s", "lower"),
    "dataprep.dedup_paragraphs.self_s": ("s", "lower"),
    "dataprep.chunk_tokens.self_s": ("s", "lower"),
    "dataprep.write_jsonl.self_s": ("s", "lower"),
    "dataprep.dedup_paragraphs.dropped_frac": ("fraction", "higher"),
    "tokenizers.encode.self_s": ("s", "lower"),
    "ops.failed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
})


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
