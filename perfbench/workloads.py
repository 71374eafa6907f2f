"""The benchmark's workloads and the run that measures one of them.

A run has three parts:

1. Bootstrap, untimed: the seeded inputs, then one pass of the pipeline
   (prepare -> cpt -> sft) with every output checked, ending in the GRPO
   warm start. Caches fill and imports finish here.
2. Set-up: stub processes, reward contexts, tokenized prompts, the
   LoRA-adapted policy and its reference. GRPO trains in this one.
3. The measured window of --seconds: a closed loop of units (one more
   set-up, one prepare, one CPT arm, one SFT, one GRPO step, one held-out
   evaluation), always running the phase furthest below its share of the
   window. Interleaving spreads every metric's samples over the whole
   window, so a stretch of slow machine lands on every metric a little
   instead of on one metric entirely; each timing metric, setup_s too, is
   a median over its units.

After the window, the GRPO policy of quality_steps steps is evaluated once,
untimed, for heldout_reward.

Every workload runs every phase, so every end-to-end metric exists on every
workload; the inputs and the shares decide which layer dominates. GRPO
always trains on the criterion-5 tag task, the one task on which these tiny
policies reach a reward well above zero, so the quality metrics are steady
from seed to seed. Quality metrics (grpo_reward_mean, heldout_reward,
cpt_final_loss) come from a fixed amount of work, so they depend on the
seed and the program, never on speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semrank import cli, dataprep, policy, rewards, synthdata, trainer
from semrank.embedder import (EncoderEndpointConfig, RemoteEncoder,
                              ToyEmbedder, reference_centroid)
from semrank.judge import HttpJudgeClient, JudgeEndpointConfig
from semrank.optim import AdamWState, LrSchedule
from semrank.rewards import RewardConfig, RewardContext
from semrank.tokenizers import EOS_ID, ByteBucketVocab

import layers
import spans

# --seed makes the inputs; the program's own seeds (init, shuffles, sampling)
# stay fixed, as in a config file, so runs differ only in their data.
PROGRAM_SEED = 0
MIN_UNITS = {"setup": 5, "prepare": 5, "cpt": 8, "sft": 5, "eval": 5}  # grpo: see measure
SFT_UNIT_ITEMS = 64        # tag-task items in one in-process SFT unit
STUB_TIMEOUT_S = 30.0

# Words of the criterion-9 near-duplicate source: 200-word paragraphs, each
# closed by a unique marker, plus copies with one word changed.
DUP_WORDS = ("cellula", "energia", "membrana", "enzima", "nucleo", "acido",
             "massa", "forza", "campo", "onda", "limite", "derivata",
             "numero", "atomo", "legame", "sistema", "processo", "struttura")
DUP_SOURCE = "raccolta_lunga"


@dataclass(frozen=True)
class Workload:
    corpus_chars: int
    dup_paragraphs: int          # originals in the near-duplicate source
    dup_injected: int            # near-duplicates appended after them
    qa_items: int
    window: int
    overlap: int
    policy: dict
    cpt: dict
    grpo: dict
    rewards: tuple[str, ...]
    wire: bool
    cli_sft: bool
    quality_steps: int           # GRPO steps behind the quality metrics
    shares: dict                 # phase -> share of the measured window


SMALL_POLICY = {"context_size": 16, "embed_dim": 24, "hidden_dim": 48}
CLI_SFT = {"epochs": 2, "batch_size": 8, "lr": 5e-3}       # `semrank train sft`
TAG = {"items": 200, "heldout": 50, "epochs": 10, "batch_size": 8, "lr": 3e-3}

WORKLOADS = {
    "grpo-desk": Workload(
        corpus_chars=4000, dup_paragraphs=0,
        dup_injected=0, qa_items=40, window=1024, overlap=128,
        policy={"context_size": synthdata.TAG_TASK_CONTEXT, "embed_dim": 32,
                "hidden_dim": 64},
        cpt={"epochs": 2, "seq_len": 128, "batch_size": 8, "lr": 5e-3},
        grpo={"group_size": 6, "prompts_per_step": 4, "max_new_tokens": 110,
              "temperature": 0.7, "lora_rank": 16, "lora_alpha": 32.0,
              "lr": 2e-3, "checkpoint_interval": 5},
        rewards=("semantic", "answer", "format", "think"), wire=False,
        cli_sft=False, quality_steps=30,
        shares={"setup": 0.02, "prepare": 0.03, "cpt": 0.15, "sft": 0.1,
                "grpo": 0.63, "eval": 0.07}),
    "grpo-wire": Workload(
        corpus_chars=4000, dup_paragraphs=0,
        dup_injected=0, qa_items=40, window=1024, overlap=128,
        policy=SMALL_POLICY,
        cpt={"epochs": 2, "seq_len": 128, "batch_size": 8, "lr": 6e-3},
        grpo={"group_size": 6, "prompts_per_step": 4, "max_new_tokens": 80,
              "temperature": 0.7, "lora_rank": 4, "lora_alpha": 8.0,
              "lr": 2e-3, "checkpoint_interval": 0},
        rewards=("semantic", "rouge", "judge", "answer", "format", "think"),
        wire=True, cli_sft=False, quality_steps=40,
        shares={"setup": 0.1, "prepare": 0.03, "cpt": 0.14, "sft": 0.07,
                "grpo": 0.57, "eval": 0.09}),
    "offline-stages": Workload(
        corpus_chars=15000, dup_paragraphs=200,
        dup_injected=20, qa_items=80, window=2048, overlap=256,
        policy=SMALL_POLICY,
        cpt={"epochs": 2, "seq_len": 128, "batch_size": 8, "lr": 6e-3},
        grpo={"group_size": 4, "prompts_per_step": 2, "max_new_tokens": 80,
              "temperature": 0.7, "lora_rank": 4, "lora_alpha": 8.0,
              "lr": 2e-3, "checkpoint_interval": 0},
        rewards=("semantic", "answer", "format", "think"), wire=False,
        cli_sft=True, quality_steps=40,
        shares={"setup": 0.02, "prepare": 0.25, "cpt": 0.34, "sft": 0.2,
                "grpo": 0.13, "eval": 0.06}),
}


class CheckFailed(Exception):
    """An output check failed; the run reports it and exits non-zero."""


def near_duplicate_source(n: int, m: int, seed: int) -> tuple[list[str], list[str]]:
    """n distinct 200-word paragraphs and m copies with one word changed
    (shingle Jaccard about 0.95, above the 0.9 dedup threshold)."""
    rng = np.random.default_rng([seed, 9])
    originals = [" ".join(rng.choice(DUP_WORDS, size=199).tolist()
                          + [f"chiusura{i}"]) for i in range(n)]
    injected = []
    stride = max(1, n // max(m, 1))
    for i in range(m):
        words = originals[(i * stride) % n].split()
        words[int(rng.integers(10, 180))] = "mutata"
        injected.append(" ".join(words))
    return originals, injected


class StubProcess:
    """One `semrank serve` stub in its own process, on an ephemeral port."""

    def __init__(self, src_dir: Path, kind: str, mode: str, extra=()):
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "semrank.cli", "serve", kind,
             "--mode", mode, "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        line = self.proc.stdout.readline()
        if " on http://" not in line:
            self.stop()
            raise CheckFailed(f"{kind} stub did not start: {line!r}")
        self.base_url = line.rsplit(" on ", 1)[1].strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=STUB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Session:
    """What one set-up builds: the stubs, the reward provider and contexts,
    the tokenized GRPO prompts, and the LoRA-adapted policy next to its
    frozen reference."""

    def __init__(self):
        self.stubs: list[StubProcess] = []
        self.provider = None
        self.judge_client = None

    def stop(self) -> None:
        while self.stubs:
            self.stubs.pop().stop()


def step_summary(step_s: list[float]) -> dict:
    """What a run reports of its GRPO step times, in ms: the median, the
    tail (see spans.tail) with its percentile and sample count, and the
    quartiles."""
    ms = [1000.0 * t for t in step_s]
    percentile, tail_ms, n = spans.tail(ms)
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return {"p50": statistics.median(ms), "tail": tail_ms,
            "tail_percentile": percentile, "samples": n, "q1": q1, "q3": q3}


class Run:
    """One measured run of one workload with one seed."""

    def __init__(self, wl: Workload, seed: int, seconds: float,
                 recorder: spans.Recorder | None, workdir: Path, src_dir: Path):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.rec = recorder
        self.dir = workdir
        self.src_dir = src_dir
        self.out = workdir / "out"
        self.config = workdir / "config.json"
        self.vocab = ByteBucketVocab()
        self.attempted = 0
        self.metrics: dict[str, float] = {}
        self.details: dict = {}
        self.session: Session | None = None
        self.window_s = 0.0
        self.snapshot = None
        self.checkpoint_steps = 0
        self.samples: dict[str, list[float]] = {
            "setup": [], "prepare": [], "adamw": [], "muon": [], "sft": [],
            "eval": []}
        self.grpo_times: list[float] = []
        self.grpo_tokens: list[int] = []
        self.quality = {"reward": [], "zero_adv": 0, "groups": 0, "eos": 0,
                        "samples": 0, "completion_tokens": 0}

    # -- helpers ----------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def cli(self, *argv: str, config: Path | None = None) -> float:
        """Run one semrank command in-process; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--config", str(config or self.config)])
        elapsed = time.perf_counter() - t0
        self.check(code == 0, f"semrank {' '.join(argv)} exited with {code}")
        return elapsed

    def read_losses(self, path: Path) -> list[float]:
        with open(path, newline="", encoding="utf-8") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        self.check(len(losses) >= 2 and all(math.isfinite(x) for x in losses)
                   and losses[-1] < losses[0], f"loss did not fall in {path}: {losses}")
        return losses

    # -- bootstrap ----------------------------------------------------------------

    def make_inputs(self) -> None:
        """Corpus, Q&A items, tag-task items and configs from the seed. A
        near-duplicate source goes only into the corpus that prepare units
        time, so the training stages see the same small corpus everywhere."""
        wl = self.wl
        data = self.dir / "data"
        corpus = data / "corpus"
        corpus.mkdir(parents=True)
        for title, text in synthdata.corpus_documents(wl.corpus_chars, self.seed):
            (corpus / f"{title.replace(' ', '_')}.txt").write_text(text, encoding="utf-8")
        qa_file = data / "qa.jsonl"
        dataprep.write_jsonl(qa_file, [
            dataprep.qa_item_to_dict(it)
            for it in synthdata.qa_items(wl.qa_items, seed=self.seed,
                                         include_rejects=True)])
        config = {
            "version": 1, "seed": PROGRAM_SEED, "out_dir": str(self.out),
            "dataprep": {"corpus_dir": str(corpus), "qa_file": str(qa_file),
                         "window": wl.window, "overlap": wl.overlap},
            "policy": wl.policy, "cpt": wl.cpt, "sft": CLI_SFT,
        }
        self.config.write_text(json.dumps(config), encoding="utf-8")

        self.dup_originals, self.dup_injected = near_duplicate_source(
            wl.dup_paragraphs, wl.dup_injected, self.seed)
        self.prepare_config, self.prepare_out = self.config, self.out
        if wl.dup_paragraphs:
            dup_corpus = data / "corpus_with_duplicates"
            shutil.copytree(corpus, dup_corpus)
            (dup_corpus / f"{DUP_SOURCE}.txt").write_text(
                "\n\n".join(self.dup_originals + self.dup_injected), encoding="utf-8")
            self.prepare_out = self.dir / "out_prepare"
            self.prepare_config = self.dir / "prepare.json"
            config["out_dir"] = str(self.prepare_out)
            config["dataprep"]["corpus_dir"] = str(dup_corpus)
            self.prepare_config.write_text(json.dumps(config), encoding="utf-8")

        self.tag_train = synthdata.tag_task_items(TAG["items"], seed=2 * self.seed)
        self.tag_heldout = synthdata.tag_task_items(
            TAG["heldout"], seed=2 * self.seed + 1, start_index=TAG["items"])
        self.tag_sft_items = [
            trainer.SftItem(tuple(self.vocab.encode(it["prompt"])),
                            tuple(self.vocab.encode(it["completion"], add_eos=True)))
            for it in self.tag_train]

    def check_prepared(self, out: Path) -> None:
        """prepare wrote its documented artifacts and logged both rejects."""
        for name in ("corpus_chunks.jsonl", "train.jsonl", "dev.jsonl",
                     "test.jsonl", "rejections.csv", "config_echo.json"):
            self.check((out / name).is_file(), f"prepare did not write {name}")
        for name in ("corpus_chunks.jsonl", "train.jsonl"):
            self.check((out / name).stat().st_size > 0, f"prepare left {name} empty")
        with open(out / "rejections.csv", newline="", encoding="utf-8") as f:
            reasons = sorted(row["reason"] for row in csv.DictReader(f))
        self.check(reasons == ["brief_rationale", "image_reference"],
                   f"unexpected rejections: {reasons}")

    def check_dedup(self) -> None:
        """The near-duplicates are gone from the prepared chunks, and every
        original paragraph survived."""
        rows = sorted((r for r in dataprep.read_jsonl(self.prepare_out / "corpus_chunks.jsonl")
                       if r["source_title"] == DUP_SOURCE),
                      key=lambda r: r["chunk_index"])
        tokens = list(rows[0]["tokens"])
        for row in rows[1:]:
            tokens.extend(row["tokens"][self.wl.overlap:])
        kept = set(dataprep.split_paragraphs(self.vocab.decode(tokens)))
        missing = sum(1 for p in self.dup_originals if p not in kept)
        leaked = sum(1 for p in self.dup_injected if p in kept)
        self.check(missing == 0, f"dedup dropped {missing} original paragraphs")
        self.check(leaked == 0, f"dedup kept {leaked}/{len(self.dup_injected)} "
                                f"injected near-duplicates")

    def bootstrap(self) -> None:
        """One checked pass of the pipeline up to the GRPO warm start."""
        self.unit_prepare()
        self.check_prepared(self.prepare_out)
        if self.wl.dup_paragraphs:
            self.check_dedup()
            self.cli("prepare")
            self.check_prepared(self.out)
        chunks = dataprep.read_jsonl(self.out / "corpus_chunks.jsonl")
        self.cpt_tokens = sum(len(r["tokens"]) for r in chunks) * self.wl.cpt["epochs"]
        self.unit_cpt("adamw")
        self.metrics["cpt_final_loss"] = self.final_cpt_loss
        if self.wl.cli_sft:
            completions = 0
            for row in dataprep.read_jsonl(self.out / "train.jsonl"):
                _, completion = dataprep.to_instruction(dataprep.qa_item_from_dict(row))
                completions += len(self.vocab.encode(completion, add_eos=True))
            self.cli_sft_tokens = completions * CLI_SFT["epochs"]
        self.unit_sft()
        self.warm_start, _ = self.tag_sft(TAG["epochs"])
        for series in self.samples.values():
            series.clear()

    def tag_sft(self, epochs: int, n_items: int | None = None):
        """SFT on the first n_items tag-task items (all by default) from a
        seeded init; returns (params, seconds)."""
        items = self.tag_sft_items[:n_items]
        params = policy.init_params(vocab_size=64, seed=PROGRAM_SEED, **self.wl.policy)
        steps = -(-len(items) // TAG["batch_size"]) * epochs
        schedule = LrSchedule(base_lr=TAG["lr"], warmup_steps=steps // 10,
                              total_steps=steps)
        self.attempted += 1
        t0 = time.perf_counter()
        params, losses = trainer.train_sft(
            items, params, AdamWState(lr=TAG["lr"]), schedule,
            epochs=epochs, batch_size=TAG["batch_size"], seed=PROGRAM_SEED)
        elapsed = time.perf_counter() - t0
        self.check(all(math.isfinite(x) for x in losses),
                   f"tag-task SFT loss not finite: {losses}")
        if epochs > 1:
            self.check(losses[-1] < losses[0], f"tag-task SFT loss did not fall: {losses}")
        return params, elapsed

    # -- set-up ---------------------------------------------------------------------

    def new_session(self) -> Session:
        """Everything GRPO needs before its first step: stubs, reward
        contexts, tokenized prompts, the LoRA-adapted policy and its frozen
        reference."""
        wl = self.wl
        s = Session()
        try:
            if wl.wire:
                embed = StubProcess(self.src_dir, "embed", "toy-embed", ("--dim", "64"))
                s.stubs.append(embed)
                judge = StubProcess(self.src_dir, "judge", "prefer-lexical-overlap")
                s.stubs.append(judge)
                s.provider = RemoteEncoder(EncoderEndpointConfig(base_url=embed.base_url))
                s.judge_client = HttpJudgeClient(JudgeEndpointConfig(
                    url=f"{judge.base_url}/v1/chat/completions"))
            else:
                s.provider = ToyEmbedder(d=256)

            v_ref = reference_centroid([it["explanation"] for it in self.tag_train],
                                       s.provider)
            everything = self.tag_train + self.tag_heldout
            vectors = s.provider([it["explanation"] for it in everything])
            s.contexts = {it["item_id"]: RewardContext(
                v_gt=v, v_ref=v_ref, gt_answer=it["answer"],
                gt_explanation=it["explanation"]) for it, v in zip(everything, vectors)}
            s.train_items = [self.grpo_item(it) for it in self.tag_train]
            s.heldout_items = [self.grpo_item(it) for it in self.tag_heldout]

            g = wl.grpo
            adapted = policy.attach_lora(self.warm_start, policy.LoraConfig(
                rank=g["lora_rank"], alpha=g["lora_alpha"]), seed=PROGRAM_SEED)
            s.state = trainer.TrainState(params=adapted,
                                         ref_params=policy.detach_lora(adapted),
                                         optimizer=AdamWState(lr=g["lr"]))
        except BaseException:
            s.stop()
            raise
        return s

    def grpo_item(self, item: dict) -> trainer.GrpoItem:
        return trainer.GrpoItem(item_id=item["item_id"],
                                prompt_tokens=tuple(self.vocab.encode(item["prompt"])))

    def setup(self) -> None:
        """The set-up GRPO trains in; it is the first setup_s sample."""
        g = self.wl.grpo
        self.reward_cfg = RewardConfig(enabled=frozenset(self.wl.rewards))
        self.grpo_cfg = trainer.GrpoConfig(
            group_size=g["group_size"], temperature=g["temperature"],
            prompts_per_step=g["prompts_per_step"],
            max_new_tokens=g["max_new_tokens"], lr=g["lr"], seed=PROGRAM_SEED,
            checkpoint_interval=g["checkpoint_interval"])
        self.attempted += 1
        t0 = time.perf_counter()
        self.session = self.new_session()
        self.samples["setup"].append(time.perf_counter() - t0)
        self.ref_digest = self.session.state.ref_params.digest()
        self.order: list[int] = []
        self.order_rng = np.random.default_rng([PROGRAM_SEED, 0xC0FFEE])
        self.step = 0
        (self.dir / "grpo").mkdir()

    # -- units of the measured window ------------------------------------------------

    def score(self, item_id: str, text: str):
        s = self.session
        return rewards.score_generation(text, s.contexts[item_id], s.provider,
                                        self.reward_cfg, s.judge_client)

    def unit_setup(self) -> float:
        """One more set-up, timed, then torn down untimed; GRPO keeps its own."""
        self.attempted += 1
        t0 = time.perf_counter()
        session = self.new_session()
        elapsed = time.perf_counter() - t0
        session.stop()
        self.samples["setup"].append(elapsed)
        return elapsed

    def unit_prepare(self) -> float:
        elapsed = self.cli("prepare", config=self.prepare_config)
        self.samples["prepare"].append(elapsed)
        return elapsed

    def unit_cpt(self, arm: str) -> float:
        elapsed = self.cli("train", "cpt", "--optimizer", arm)
        self.samples[arm].append(self.cpt_tokens / elapsed)
        losses = self.read_losses(self.out / f"cpt_{arm}" / "metrics.csv")
        if arm == "adamw":
            self.final_cpt_loss = losses[-1]
            self.check(losses[-1] == self.metrics.get("cpt_final_loss", losses[-1]),
                       f"cpt final loss not repeatable: {losses[-1]}")
        return elapsed

    def unit_sft(self) -> float:
        """`semrank train sft` when the workload runs it, else one epoch of
        in-process tag-task SFT over SFT_UNIT_ITEMS items."""
        if self.wl.cli_sft:
            elapsed = self.cli("train", "sft")
            self.read_losses(self.out / "sft" / "metrics.csv")
            tokens = self.cli_sft_tokens
        else:
            _, elapsed = self.tag_sft(1, SFT_UNIT_ITEMS)
            tokens = sum(len(it.completion_tokens)
                         for it in self.tag_sft_items[:SFT_UNIT_ITEMS])
        self.samples["sft"].append(tokens / elapsed)
        return elapsed

    def unit_grpo(self) -> float:
        """One closed-loop GRPO step, with its checkpoint when one is due."""
        cfg, state = self.grpo_cfg, self.session.state
        items = self.session.train_items
        while len(self.order) < cfg.prompts_per_step:
            self.order.extend(self.order_rng.permutation(len(items)).tolist())
        batch = [items[i] for i in self.order[:cfg.prompts_per_step]]
        del self.order[:cfg.prompts_per_step]
        self.attempted += 1
        t0 = time.perf_counter()
        metrics, groups = trainer.grpo_step(
            state, batch, lambda item, text: self.score(item.item_id, text),
            self.vocab.decode, cfg, step_seed=self.step)
        if cfg.checkpoint_interval and (self.step + 1) % cfg.checkpoint_interval == 0:
            policy.save_checkpoint(state.params,
                                   self.dir / "grpo" / f"step{self.step + 1}.ckpt",
                                   extra={"seed": PROGRAM_SEED, "step": self.step + 1})
            self.checkpoint_steps += 1
        elapsed = time.perf_counter() - t0
        samples = [s for grp in groups for s in grp.samples]
        self.grpo_times.append(elapsed)
        self.grpo_tokens.append(sum(len(s.tokens) for s in samples))
        totals = [b.total for grp in groups for b in grp.rewards]
        self.check(all(math.isfinite(x) for x in totals) and math.isfinite(metrics["loss"]),
                   f"non-finite reward or loss at GRPO step {self.step}")
        if self.step < self.wl.quality_steps:
            q = self.quality
            q["reward"].append(metrics["mean_total"])
            q["groups"] += len(groups)
            q["zero_adv"] += sum(1 for grp in groups if not np.any(grp.advantages))
            q["samples"] += len(samples)
            q["eos"] += sum(1 for s in samples if s.tokens[-1] == EOS_ID)
            q["completion_tokens"] += self.grpo_tokens[-1]
        self.step += 1
        if self.step == self.wl.quality_steps:
            self.snapshot = state.params.copy()
        return elapsed

    def heldout_eval(self, params) -> tuple[float, int]:
        """Greedy-decode and score every held-out item: (mean total, tokens)."""
        max_len = self.wl.grpo["max_new_tokens"]
        totals, tokens = [], 0
        for item in self.session.heldout_items:
            out = policy.greedy_decode(params, list(item.prompt_tokens), max_len=max_len)
            tokens += len(out)
            totals.append(self.score(item.item_id, self.vocab.decode(out)).total)
        mean = float(np.mean(totals))
        self.check(math.isfinite(mean), f"held-out reward not finite: {mean}")
        return mean, tokens

    def unit_eval(self) -> float:
        """One greedy held-out evaluation of the warm start, the policy GRPO
        starts from. It exists before the window, so evaluations interleave
        with everything else from the first unit on; its output is fixed by
        the seed, so every evaluation does the same work."""
        self.attempted += 1
        t0 = time.perf_counter()
        mean, tokens = self.heldout_eval(self.warm_start)
        elapsed = time.perf_counter() - t0
        first = self.details.setdefault("eval", {"reward": mean, "tokens": tokens})
        self.check(first == {"reward": mean, "tokens": tokens},
                   f"held-out evaluation not repeatable: {mean}, {tokens} vs {first}")
        self.samples["eval"].append(elapsed)
        return elapsed

    def measure(self) -> None:
        """Run units, each time of the phase furthest below its share, until
        the window is spent and every phase has its minimum of units."""
        shares = self.wl.shares
        interval = self.wl.grpo["checkpoint_interval"]
        # Enough GRPO steps for the quality metrics and, with checkpoints
        # on, for more checkpoint steps than lie beyond the tail.
        minimum = dict(MIN_UNITS, grpo=max(self.wl.quality_steps,
                                           (spans.TAIL_MIN_BEYOND + 1) * interval))
        spent = dict.fromkeys(shares, 0.0)
        counts = dict.fromkeys(shares, 0)
        units = {
            "setup": self.unit_setup,
            "prepare": self.unit_prepare,
            "cpt": lambda: self.unit_cpt(("adamw", "muon")[counts["cpt"] % 2]),
            "sft": self.unit_sft,
            "grpo": self.unit_grpo,
            "eval": self.unit_eval,
        }
        if self.rec is not None:
            # A set-up unit's reward-context and tokenizer calls are not the
            # layers' work in training: keep them out of the layer spans.
            units["setup"] = self.rec.wrap("bench.setup", self.unit_setup, opaque=True)
        while True:
            ready = list(shares)
            if self.window_s >= self.seconds:
                ready = [p for p in ready if counts[p] < minimum[p]]
                if not ready:
                    break
            phase = min(ready, key=lambda p: spent[p] / shares[p])
            elapsed = units[phase]()
            spent[phase] += elapsed
            counts[phase] += 1
            self.window_s += elapsed
        self.details["units"] = counts

    def summarize(self) -> None:
        self.check(self.session.state.ref_params.digest() == self.ref_digest,
                   "GRPO changed the reference policy")
        self.details["checkpoint_steps"] = self.checkpoint_steps
        if self.wl.grpo["checkpoint_interval"]:
            self.check(self.checkpoint_steps > spans.TAIL_MIN_BEYOND,
                       f"only {self.checkpoint_steps} checkpoint steps: the tail "
                       f"cannot show checkpoint cost")
        m, s = self.metrics, self.samples
        m["setup_s"] = statistics.median(s["setup"])
        m["prepare_s"] = statistics.median(s["prepare"])
        m["cpt_tokens_per_s"] = statistics.median(s["adamw"])
        m["cpt_muon_tokens_per_s"] = statistics.median(s["muon"])
        m["sft_tokens_per_s"] = statistics.median(s["sft"])
        m["eval_s"] = statistics.median(s["eval"])
        steps = step_summary(self.grpo_times)
        m["grpo_step_ms_p50"] = steps["p50"]
        m["grpo_step_ms_tail"] = steps["tail"]
        m["grpo_tokens_per_s"] = sum(self.grpo_tokens) / sum(self.grpo_times)
        q = self.quality
        m["grpo_reward_mean"] = float(np.mean(q["reward"]))
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.details["grpo_steps"] = steps
        self.details["setup_units"] = len(s["setup"])
        self.details["window_s"] = self.window_s
        self.rollout_stats = {
            "trainer.zero_adv_group_frac": q["zero_adv"] / q["groups"],
            "trainer.eos_frac": q["eos"] / q["samples"],
            "trainer.completion_tokens_mean": q["completion_tokens"] / q["samples"],
        }

    def execute(self) -> None:
        """Bootstrap, set-up, the measured window, then the held-out
        evaluation of the GRPO snapshot; raises CheckFailed (or the
        program's own error) when anything goes wrong."""
        self.make_inputs()
        try:
            self.bootstrap()
            self.setup()
            provider = self.session.provider
            saved = layers.install(self.rec) if self.rec is not None else []
            if self.rec is not None:
                self.session.provider = layers.wrap_provider(self.rec, provider)
            try:
                self.measure()
            finally:
                layers.uninstall(saved)
                self.session.provider = provider
            self.attempted += 1
            self.metrics["heldout_reward"], self.details["heldout_tokens"] = (
                self.heldout_eval(self.snapshot))
        finally:
            if self.session is not None:
                self.session.stop()
        self.summarize()
