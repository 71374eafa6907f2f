"""Command-line entry point: prepare, train (cpt/sft/grpo), score, arena,
report, serve, and synth.

Configuration is a single versioned JSON file; CLI flags override the
matching config fields. Every command echoes the effective config into the
output directory and is reproducible from config + seed alone. Exit codes:
0 success, 2 validation/config error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import logging
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import arena as arena_mod
from . import dataprep, mockserve, policy, synthdata, trainer
from .embedder import (DEFAULT_CENTROID_SAMPLE, DEFAULT_TOY_DIM, PROVIDER_KINDS,
                       EncoderEndpointConfig, make_provider,
                       reference_centroid, sample_reference_texts)
from .errors import ConfigError, SemrankError
from .judge import JudgeEndpointConfig, make_judge
from .optim import LrSchedule, make_optimizer
from .report import render_reports
from .rewards import (COMPONENT_NAMES, RewardConfig, RewardContext,
                      score_generation)
from .tokenizers import ByteBucketVocab

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
CPT_OPTIMIZERS = ("adamw", "muon", "both")  # "both" runs the two ablation arms


def _defaults(cls) -> dict:
    """Field name -> declared default of a dataclass."""
    return {f.name: f.default for f in fields(cls)}


def _keyword_defaults(fn) -> dict:
    """Parameter name -> default of a function's defaulted parameters."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


# GrpoConfig's fields except its seed, which the top-level "seed" sets
_GRPO = {k: v for k, v in _defaults(trainer.GrpoConfig).items() if k != "seed"}
_REWARD, _LORA = _defaults(RewardConfig), _defaults(policy.LoraConfig)
_ENCODER, _JUDGE = _defaults(EncoderEndpointConfig), _defaults(JudgeEndpointConfig)
# init_params' seed is the top-level "seed"
_POLICY = {k: v for k, v in _keyword_defaults(policy.init_params).items() if k != "seed"}
_CLM = _keyword_defaults(trainer.train_clm)

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "out_dir": "runs/out",
    "dataprep": {
        "corpus_dir": None,
        "qa_file": None,
        "window": 4096,
        "overlap": 256,
        "dedup_threshold": dataprep.NEAR_DUP_THRESHOLD,
        "ratios": [0.8, 0.1, 0.1],
    },
    "policy": _POLICY,
    "cpt": {"epochs": _CLM["epochs"], "seq_len": _CLM["seq_len"],
            "batch_size": _CLM["batch_size"], "lr": 3e-3,
            "warmup_frac": 0.1, "weight_decay": 0.0, "optimizer": "adamw"},
    "sft": {"epochs": 4, "batch_size": 8, "lr": 3e-3, "warmup_frac": 0.1,
            "weight_decay": 0.0, "optimizer": "adamw",
            "init_checkpoint": None},
    "grpo": {**_GRPO, "weight_decay": 0.0,
             "lora_rank": _LORA["rank"], "lora_alpha": _LORA["alpha"],
             "rewards": [n for n in COMPONENT_NAMES if n in _REWARD["enabled"]],
             "c": _REWARD["c"], "clamp_floor": _REWARD["clamp_floor"],
             "centroid_sample": DEFAULT_CENTROID_SAMPLE, "init_checkpoint": None},
    "embedder": {"kind": "toy", "dim": DEFAULT_TOY_DIM, "base_url": None,
                 "batch_size": _ENCODER["batch_size"], "timeout": _ENCODER["timeout"]},
    # a null model leaves the choice to SEMRANK_JUDGE_MODEL, then JudgeEndpointConfig
    "judge": {"url": None, "model": None, "timeout": _JUDGE["timeout"]},
    "arena": {"k_factor": arena_mod.DEFAULT_K_FACTOR, "judges": ["mock:prefer-longer"],
              "items_file": None, "models_dir": None, "both_orders": False},
}


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with CLI flags.
    A wrong-typed or out-of-range value raises ConfigError here, before any
    command reads or writes a file."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            user = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(
                f"config version {user.get('version')} unsupported "
                f"(expected {CONFIG_VERSION})")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be an object")
                unknown = sorted(set(value) - set(cfg[key]))
                if unknown:
                    raise ConfigError(f"unknown key(s) in config section {key!r}: {unknown}")
                cfg[key].update(value)
            else:
                cfg[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, leaf = key.partition(".")
        if leaf:
            cfg.setdefault(section, {})[leaf] = value
        else:
            cfg[key] = value
    _check_types(cfg, DEFAULT_CONFIG)
    for stage, kinds in (("cpt", CPT_OPTIMIZERS), ("sft", CPT_OPTIMIZERS[:2])):
        sc = cfg[stage]
        if sc["optimizer"] not in kinds:
            raise ConfigError(f"config key '{stage}.optimizer' must be one of "
                              f"{list(kinds)}, got {sc['optimizer']!r}")
        for key in ("batch_size", "seq_len", "epochs"):
            if sc.get(key, 1) < 1:
                raise ConfigError(f"config key '{stage}.{key}' must be >= 1, "
                                  f"got {sc[key]}")
        if not 0 <= sc["warmup_frac"] <= 1:
            raise ConfigError(f"config key '{stage}.warmup_frac' must be in [0, 1], "
                              f"got {sc['warmup_frac']}")
    if cfg["embedder"]["kind"] not in PROVIDER_KINDS:
        raise ConfigError(f"config key 'embedder.kind' must be one of "
                          f"{list(PROVIDER_KINDS)}, got {cfg['embedder']['kind']!r}")
    grpo_settings(cfg)
    return cfg


def _check_types(value, default, name: str = "") -> None:
    """value has its default's type: bool is never int, int is accepted for
    float, a float is finite, a None default takes a string or null, and a
    list's items have the type of its default's items."""
    if isinstance(default, dict):
        for key, leaf in default.items():
            _check_types(value[key], leaf, f"{name}.{key}" if name else key)
        return
    if default is None:
        ok = value is None or isinstance(value, str)
    elif isinstance(value, bool) != isinstance(default, bool):
        ok = False
    else:
        ok = isinstance(value, (int, float) if isinstance(default, float)
                        else type(default))
    if not ok:
        expected = "str or null" if default is None else type(default).__name__
        raise ConfigError(f"config key {name!r} must be {expected}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {name!r} must be finite, got {value}")
    if isinstance(default, list):
        for item in value:
            _check_types(item, default[0], name + "[]")


def _build(keys: str, cls, **kwargs):
    """cls(**kwargs), with a rejected value reported against its config keys."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config {keys}: {exc}") from exc


def grpo_settings(cfg: dict) -> tuple[trainer.GrpoConfig, RewardConfig, policy.LoraConfig]:
    """The GRPO section read into the trainer's, the rewards' and LoRA's
    typed configs; a value they reject raises ConfigError."""
    gc = cfg["grpo"]
    return (
        _build("section 'grpo'", trainer.GrpoConfig, seed=cfg["seed"],
               **{k: gc[k] for k in _GRPO}),
        _build("keys grpo.c, grpo.clamp_floor, grpo.rewards", RewardConfig,
               c=gc["c"], clamp_floor=gc["clamp_floor"],
               enabled=frozenset(gc["rewards"])),
        _build("keys grpo.lora_rank, grpo.lora_alpha", policy.LoraConfig,
               rank=gc["lora_rank"], alpha=gc["lora_alpha"]))


def echo_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_echo.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_path(value, what: str) -> Path:
    if not value:
        raise ConfigError(f"{what} is not set in the config")
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{what} does not exist: {p}")
    return p


def _vocab() -> ByteBucketVocab:
    return ByteBucketVocab()


def _build_policy(cfg: dict, seed: int) -> policy.PolicyParams:
    return policy.init_params(seed=seed, **cfg["policy"])


def _provider(cfg: dict, kind_override: str | None = None):
    ec = cfg["embedder"]
    kind = kind_override or ec["kind"]
    endpoint = None
    if kind == "remote":
        endpoint = EncoderEndpointConfig.from_env(
            base_url=ec["base_url"], timeout=ec["timeout"],
            batch_size=ec["batch_size"])
    return make_provider(kind, toy_dim=ec["dim"], endpoint=endpoint)


def judge_endpoint(cfg: dict, url: str | None = None) -> JudgeEndpointConfig:
    """The judge section as an endpoint: its url (else `url`, else
    SEMRANK_JUDGE_URL), its model (else SEMRANK_JUDGE_MODEL, else
    JudgeEndpointConfig's default), its timeout."""
    jc = cfg["judge"]
    return JudgeEndpointConfig.from_env(url=jc["url"] or url, model=jc["model"],
                                        timeout=jc["timeout"])


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    dp = cfg["dataprep"]
    corpus_dir = _require_path(dp["corpus_dir"], "dataprep.corpus_dir")
    qa_file = _require_path(dp["qa_file"], "dataprep.qa_file")
    echo_config(cfg, out_dir)
    vocab = _vocab()

    chunk_rows = []
    for source in sorted(corpus_dir.glob("*.txt")):
        text = clean = dataprep.clean_text(source.read_text(encoding="utf-8"))
        paragraphs = dataprep.dedup_paragraphs(
            dataprep.split_paragraphs(clean), threshold=dp["dedup_threshold"])
        text = "\n\n".join(paragraphs)
        tokens = vocab.encode(text)
        for chunk in dataprep.chunk_tokens(tokens, dp["window"], dp["overlap"],
                                           source_title=source.stem):
            chunk_rows.append(dataprep.chunk_to_dict(chunk))
    dataprep.write_jsonl(out_dir / "corpus_chunks.jsonl", chunk_rows)

    raw_items = [dataprep.qa_item_from_dict(row, i)
                 for i, row in enumerate(dataprep.read_jsonl(qa_file))]
    kept, rejected = dataprep.filter_items(raw_items)
    with open(out_dir / "rejections.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["item_id", "reason"])
        for r in rejected:
            writer.writerow([r.item_id, r.reason])

    splits = dataprep.stratified_split(kept, ratios=tuple(dp["ratios"]),
                                       seed=cfg["seed"])
    for name, items in splits.items():
        dataprep.write_jsonl(out_dir / f"{name}.jsonl",
                             [dataprep.qa_item_to_dict(it) for it in items])
    print(f"prepare: {len(chunk_rows)} chunks, "
          f"{len(kept)} items kept ({len(rejected)} rejected), splits "
          f"{[len(splits[n]) for n in dataprep.SPLIT_NAMES]} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _write_simple_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def _schedule_and_optimizer(sc: dict, n_sequences: int, optimizer_kind: str):
    """A CPT/SFT section's warmup-cosine schedule over its optimizer steps,
    and its optimizer."""
    steps_per_epoch = max(1, (n_sequences + sc["batch_size"] - 1) // sc["batch_size"])
    total = steps_per_epoch * sc["epochs"]
    schedule = LrSchedule(base_lr=sc["lr"],
                          warmup_steps=int(total * sc["warmup_frac"]),
                          total_steps=total)
    return schedule, make_optimizer(optimizer_kind, lr=sc["lr"],
                                    weight_decay=sc["weight_decay"])


def _run_cpt(cfg: dict, optimizer_kind: str, out_dir: Path) -> tuple[Path, list[float]]:
    sc = cfg["cpt"]
    chunks_file = _require_path(Path(cfg["out_dir"]) / "corpus_chunks.jsonl",
                                "corpus chunks (run prepare first)")
    chunks = [row["tokens"] for row in dataprep.read_jsonl(chunks_file)]
    params = _build_policy(cfg, seed=cfg["seed"])
    n_sequences = sum((len(c) + sc["seq_len"] - 1) // sc["seq_len"] for c in chunks)
    schedule, optimizer = _schedule_and_optimizer(sc, n_sequences, optimizer_kind)
    run_dir = out_dir / f"cpt_{optimizer_kind}"
    run_dir.mkdir(parents=True, exist_ok=True)
    params, losses = trainer.train_clm(
        chunks, params, optimizer, schedule, epochs=sc["epochs"],
        seq_len=sc["seq_len"], batch_size=sc["batch_size"], seed=cfg["seed"])
    ckpt = run_dir / "final.ckpt"
    policy.save_checkpoint(params, ckpt, extra={"stage": "cpt",
                                                "optimizer": optimizer_kind,
                                                "seed": cfg["seed"]})
    rows = [{"step": i + 1, "loss": loss, "lr": ""}
            for i, loss in enumerate(losses)]
    _write_simple_csv(run_dir / "metrics.csv", rows, ["step", "loss", "lr"])
    print(f"cpt[{optimizer_kind}]: epoch losses "
          f"{[round(x, 4) for x in losses]} -> {ckpt}")
    return ckpt, losses


def _sft_items(cfg: dict, vocab: ByteBucketVocab) -> list[trainer.SftItem]:
    train_file = _require_path(Path(cfg["out_dir"]) / "train.jsonl",
                               "train split (run prepare first)")
    items = []
    for row in dataprep.read_jsonl(train_file):
        qa = dataprep.qa_item_from_dict(row)
        prompt, completion = dataprep.to_instruction(qa)
        items.append(trainer.SftItem(
            prompt_tokens=tuple(vocab.encode(prompt)),
            completion_tokens=tuple(vocab.encode(completion, add_eos=True))))
    return items


def _run_sft(cfg: dict, out_dir: Path) -> Path:
    sc = cfg["sft"]
    init = sc["init_checkpoint"] or (out_dir / "cpt_adamw" / "final.ckpt")
    init = _require_path(init, "sft.init_checkpoint (upstream CPT checkpoint)")
    params, _ = policy.load_checkpoint(init)
    vocab = _vocab()
    items = _sft_items(cfg, vocab)
    schedule, optimizer = _schedule_and_optimizer(sc, len(items), sc["optimizer"])
    run_dir = out_dir / "sft"
    run_dir.mkdir(parents=True, exist_ok=True)
    params, losses = trainer.train_sft(items, params, optimizer, schedule,
                                       epochs=sc["epochs"],
                                       batch_size=sc["batch_size"],
                                       seed=cfg["seed"])
    ckpt = run_dir / "final.ckpt"
    policy.save_checkpoint(params, ckpt, extra={"stage": "sft", "seed": cfg["seed"]})
    rows = [{"step": i + 1, "loss": loss, "lr": ""} for i, loss in enumerate(losses)]
    _write_simple_csv(run_dir / "metrics.csv", rows, ["step", "loss", "lr"])
    print(f"sft: epoch losses {[round(x, 4) for x in losses]} -> {ckpt}")
    return ckpt


def build_reward_contexts(items: list[dataprep.QaItem], provider,
                          centroid_sample: int, seed: int,
                          ) -> tuple[dict[str, RewardContext], np.ndarray]:
    """Embed every gold explanation and the dataset centroid once."""
    explanations = [it.rationale for it in items]
    sampled = sample_reference_texts(explanations, centroid_sample, seed=seed)
    v_ref = reference_centroid(sampled, provider)
    vectors = provider(explanations)
    contexts = {}
    for item, v_gt in zip(items, vectors):
        contexts[item.item_id] = RewardContext(
            v_gt=v_gt, v_ref=v_ref, gt_answer=item.answer,
            gt_explanation=item.rationale)
    return contexts, v_ref


def _run_grpo(cfg: dict, out_dir: Path, embedder_kind: str | None) -> Path:
    gc = cfg["grpo"]
    grpo_cfg, reward_cfg, lora_cfg = grpo_settings(cfg)
    init = gc["init_checkpoint"] or (out_dir / "sft" / "final.ckpt")
    init = _require_path(init, "grpo.init_checkpoint (upstream SFT checkpoint)")
    base, init_extra = policy.load_checkpoint(init)
    if gc["steps"] == 0:
        # zero steps: pass the input through untouched (byte-identical)
        run_dir = out_dir / "grpo"
        run_dir.mkdir(parents=True, exist_ok=True)
        final = run_dir / "step0.ckpt"
        policy.save_checkpoint(base, final, extra=init_extra)
        trainer.write_metrics_csv(run_dir / "metrics.csv", [])
        print(f"grpo: 0 steps -> {final}")
        return final
    params = policy.attach_lora(base, lora_cfg, seed=cfg["seed"])
    ref = policy.detach_lora(params)

    vocab = _vocab()
    train_file = _require_path(out_dir / "train.jsonl",
                               "train split (run prepare first)")
    qa_items = [dataprep.qa_item_from_dict(row)
                for row in dataprep.read_jsonl(train_file)]
    if not qa_items:
        raise ConfigError("train split is empty")
    provider = _provider(cfg, embedder_kind)
    judge_client = None
    if "judge" in reward_cfg.enabled:
        endpoint = judge_endpoint(cfg)
        judge_client = make_judge(endpoint.url, endpoint)

    contexts, _ = build_reward_contexts(qa_items, provider,
                                        gc["centroid_sample"], cfg["seed"])
    dataset = []
    for item in qa_items:
        prompt, _ = dataprep.to_instruction(item)
        dataset.append(trainer.GrpoItem(
            item_id=item.item_id, prompt_tokens=tuple(vocab.encode(prompt)),
            payload=contexts[item.item_id]))

    def score_fn(grpo_item: trainer.GrpoItem, text: str):
        return score_generation(text, grpo_item.payload, provider,
                                reward_cfg, judge_client)

    state = trainer.TrainState(
        params=params, ref_params=ref,
        optimizer=make_optimizer("adamw", lr=gc["lr"],
                                 weight_decay=gc["weight_decay"]))
    trainer.run_grpo(state, dataset, score_fn, vocab.decode, grpo_cfg,
                     out_dir=out_dir, run_id="grpo")
    final = out_dir / "grpo" / f"step{state.step}.ckpt"
    print(f"grpo: {state.step} steps -> {final}")
    return final


def cmd_train(cfg: dict, stage: str, optimizer: str | None,
              embedder_kind: str | None) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    if stage == "cpt":
        kind = optimizer or cfg["cpt"]["optimizer"]
        if kind == "both":
            _, losses_a = _run_cpt(cfg, "adamw", out_dir)
            _, losses_m = _run_cpt(cfg, "muon", out_dir)
            rows = [{"step": i + 1,
                     "loss_adamw": a, "loss_muon": m}
                    for i, (a, m) in enumerate(zip(losses_a, losses_m))]
            _write_simple_csv(out_dir / "cpt_ablation.csv", rows,
                              ["step", "loss_adamw", "loss_muon"])
        else:
            _run_cpt(cfg, kind, out_dir)
        return 0
    if stage == "sft":
        _run_sft(cfg, out_dir)
        return 0
    if stage == "grpo":
        _run_grpo(cfg, out_dir, embedder_kind)
        return 0
    raise ConfigError(f"unknown training stage: {stage!r}")


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCORE_COLUMNS = ["item_id", "semantic", "rouge", "judge", "answer", "format",
                 "think", "total", "error"]


def cmd_score(cfg: dict, generations_file: str,
              embedder_kind: str | None) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    gen_path = _require_path(generations_file, "generations file")
    _require_path(out_dir / "train.jsonl", "prepared splits (run prepare first)")
    qa_items = {}
    for split in dataprep.SPLIT_NAMES:
        split_path = out_dir / f"{split}.jsonl"
        if split_path.exists():
            for row in dataprep.read_jsonl(split_path):
                item = dataprep.qa_item_from_dict(row)
                qa_items[item.item_id] = item
    provider = _provider(cfg, embedder_kind)
    _, reward_cfg, _ = grpo_settings(cfg)
    reward_cfg = replace(reward_cfg, enabled=reward_cfg.enabled - {"judge"})
    contexts, _ = build_reward_contexts(list(qa_items.values()), provider,
                                        cfg["grpo"]["centroid_sample"], cfg["seed"])
    rows = []
    for row in dataprep.read_jsonl(gen_path):
        item_id = str(row.get("item_id"))
        text = row.get("text", "")
        if item_id not in contexts:
            rows.append({"item_id": item_id, "error": "missing_ground_truth"})
            continue
        breakdown = score_generation(text, contexts[item_id], provider, reward_cfg)
        entry = {"item_id": item_id, "total": breakdown.total, "error": ""}
        entry.update(breakdown.components())
        rows.append(entry)
    out_path = out_dir / "rewards.csv"
    _write_simple_csv(out_path, rows, SCORE_COLUMNS)
    print(f"score: {len(rows)} rows -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# arena
# ---------------------------------------------------------------------------

def cmd_arena(cfg: dict, judges_flag: str | None) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    ac = cfg["arena"]
    items_path = _require_path(ac["items_file"], "arena.items_file")
    models_dir = _require_path(ac["models_dir"], "arena.models_dir")
    items = dataprep.read_jsonl(items_path)
    if not items:
        raise ConfigError(f"no items in {items_path}")

    models: dict[str, dict[str, str]] = {}
    answers: dict[str, dict[str, str]] = {}
    for model_file in sorted(models_dir.glob("*.jsonl")):
        name = model_file.stem
        rows = dataprep.read_jsonl(model_file)
        models[name] = {str(r["item_id"]): r["explanation"] for r in rows}
        answers[name] = {str(r["item_id"]): r.get("answer", "") for r in rows}
    if len(models) < 2:
        raise ConfigError(f"arena needs >= 2 model files in {models_dir}")
    for name, explanations in models.items():
        for item in items:
            if str(item["item_id"]) not in explanations:
                raise ConfigError(
                    f"model {name!r} has no explanation for item "
                    f"{item['item_id']!r}")

    judge_specs = (judges_flag.split(",") if judges_flag else ac["judges"])
    base_judge_cfg = None
    if any(s.startswith("http") for s in judge_specs):
        base_judge_cfg = judge_endpoint(cfg, url=judge_specs[0])
    judges = [make_judge(s.strip(), base_judge_cfg) for s in judge_specs]

    gold = {str(it["item_id"]): it["answer"] for it in items if "answer" in it}
    accuracies = {}
    for name in models:
        if gold:
            outputs = {iid: f"<risposta>{answers[name].get(iid, '')}</risposta>"
                       for iid in gold}
            accuracies[name] = arena_mod.evaluate_accuracy(outputs, gold)

    report = arena_mod.run_tournament(models, items, judges,
                                      k=ac["k_factor"], seed=cfg["seed"],
                                      both_orders=ac["both_orders"],
                                      accuracies=accuracies)
    ratings_rows = []
    for jname, table in report.tables.items():
        for model in sorted(table.ratings):
            ratings_rows.append({"model": model, "judge": jname,
                                 "elo": table.ratings[model],
                                 "games": table.games[model]})
    _write_simple_csv(out_dir / "ratings.csv", ratings_rows,
                      list(arena_mod.RATINGS_COLUMNS))
    _write_simple_csv(out_dir / "aggregate.csv", report.aggregate,
                      list(arena_mod.AGGREGATE_COLUMNS))
    best = report.aggregate[0]
    print(f"arena: {len(report.matches)} matches, top model "
          f"{best['model']} (mean elo {best['mean_elo']:.1f}) -> "
          f"{out_dir / 'aggregate.csv'}")
    return 0


# ---------------------------------------------------------------------------
# synth / report / serve
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, target_chars: int, n_items: int) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    for title, text in synthdata.corpus_documents(target_chars, seed=cfg["seed"]):
        (corpus_dir / f"{title.replace(' ', '_')}.txt").write_text(
            text, encoding="utf-8")
    items = synthdata.qa_items(n_items, seed=cfg["seed"], include_rejects=True)
    dataprep.write_jsonl(out_dir / "qa.jsonl",
                         [dataprep.qa_item_to_dict(it) for it in items])
    print(f"synth: corpus ({target_chars} chars target) + {len(items)} "
          f"qa items -> {out_dir}")
    return 0


def cmd_report(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    if not out_dir.exists():
        raise ConfigError(f"output directory does not exist: {out_dir}")
    written = render_reports(out_dir)
    print(f"report: wrote {len(written)} chart(s): "
          + ", ".join(p.name for p in written))
    return 0


def cmd_serve(kind: str, mode: str, port: int, fail_status: int, dim: int) -> int:
    behavior = mockserve.StubBehavior(mode=mode, fail_status=fail_status, dim=dim)
    mockserve.run_forever(kind, behavior, port)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semrank",
        description="Three-stage alignment pipeline with semantic reward "
                    "shaping on a tiny, fully inspectable policy model.")
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("prepare", help="clean, dedup, chunk, filter, split")
    common(p)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("stage", choices=["cpt", "sft", "grpo"])
    common(p)
    p.add_argument("--optimizer", choices=CPT_OPTIMIZERS, default=None)
    p.add_argument("--steps", type=int, default=None, help="GRPO steps override")
    p.add_argument("--embedder", choices=PROVIDER_KINDS, default=None)

    p = sub.add_parser("score", help="reward breakdown CSV for generations")
    common(p)
    p.add_argument("--generations", required=True,
                   help="JSON-lines file with {item_id, text}")
    p.add_argument("--embedder", choices=PROVIDER_KINDS, default=None)

    p = sub.add_parser("arena", help="pairwise judged tournament")
    common(p)
    p.add_argument("--judges", default=None,
                   help="comma list: mock:<mode> or judge endpoint URLs")

    p = sub.add_parser("report", help="SVG charts from the emitted CSVs")
    common(p)

    p = sub.add_parser("synth", help="generate demo corpus and qa data")
    common(p)
    p.add_argument("--chars", type=int, default=50_000)
    p.add_argument("--items", type=int, default=60)

    p = sub.add_parser("serve", help="run an embedding or judge stub server")
    p.add_argument("kind", choices=["embed", "judge"])
    p.add_argument("--mode", default="toy-embed")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--fail-status", type=int, default=500)
    p.add_argument("--dim", type=int, default=DEFAULT_TOY_DIM)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "serve":
            return cmd_serve(args.kind, args.mode, args.port,
                             args.fail_status, args.dim)
        overrides = {"seed": getattr(args, "seed", None),
                     "out_dir": getattr(args, "out", None)}
        if getattr(args, "steps", None) is not None:
            overrides["grpo.steps"] = args.steps
        cfg = load_config(getattr(args, "config", None), overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.stage, args.optimizer, args.embedder)
        if args.command == "score":
            return cmd_score(cfg, args.generations, args.embedder)
        if args.command == "arena":
            return cmd_arena(cfg, args.judges)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "synth":
            return cmd_synth(cfg, args.chars, args.items)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemrankError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.exception("unhandled failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
