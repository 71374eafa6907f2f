"""Command-line entry point: prepare, train (cpt/sft/grpo), score, arena,
report, serve, and synth.

Configuration is a single versioned JSON file; CLI flags override the
matching config fields, and are checked like them when the config loads.
Every command reads its settings from the loaded config alone, echoes it
into the output directory, and is reproducible from that echo. Exit codes:
0 success, 2 validation/config error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import arena as arena_mod
from . import dataprep, mockserve, policy, synthdata, trainer
from .embedder import (DEFAULT_CENTROID_SAMPLE, DEFAULT_TOY_DIM, PROVIDER_KINDS,
                       EncoderEndpointConfig, RemoteEncoder, ToyEmbedder,
                       embed_toy, reference_centroid, sample_reference_texts)
from .errors import ConfigError, SemrankError
from .judge import JudgeEndpointConfig, make_judge
from .optim import LrSchedule, lr_at, make_optimizer
from .report import render_reports
from .rewards import (COMPONENT_NAMES, RewardConfig, RewardContext,
                      score_generation)
from .text_protocol import TaggedOutput
from .tokenizers import ByteBucketVocab

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
CPT_OPTIMIZERS = ("adamw", "muon", "both")  # "both" runs the two ablation arms
STAGE_COLUMNS = ("step", "loss", "lr")  # CPT/SFT metrics.csv, one row per epoch


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
# init_params' seed is the top-level "seed", its vocab size the tokenizer's
_POLICY = {k: v for k, v in _keyword_defaults(policy.init_params).items()
           if k not in ("seed", "vocab_size")}
_CLM, _SFT = _keyword_defaults(trainer.train_clm), _keyword_defaults(trainer.train_sft)
_SPLIT = _keyword_defaults(dataprep.stratified_split)
_WEIGHT_DECAY = _keyword_defaults(make_optimizer)["weight_decay"]

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
        "ratios": list(_SPLIT["ratios"]),
    },
    "policy": _POLICY,
    "cpt": {"epochs": _CLM["epochs"], "seq_len": _CLM["seq_len"],
            "batch_size": _CLM["batch_size"], "lr": 3e-3,
            "warmup_frac": 0.1, "weight_decay": _WEIGHT_DECAY, "optimizer": "adamw"},
    "sft": {"epochs": _SFT["epochs"], "batch_size": _SFT["batch_size"], "lr": 3e-3,
            "warmup_frac": 0.1, "weight_decay": _WEIGHT_DECAY, "optimizer": "adamw",
            "init_checkpoint": None},
    "grpo": {**_GRPO, "weight_decay": _WEIGHT_DECAY,
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
    """Defaults, overlaid with the config file, overlaid with overrides
    ({"seed" or "section.leaf": value}, from CLI flags). A file or override
    value that is unknown, wrong-typed or out of range raises ConfigError
    here, before any command reads or writes a file."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            user = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {p} is not a JSON object")
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(
                f"config version {user.get('version')} unsupported "
                f"(expected {CONFIG_VERSION})")
        _overlay(cfg, user)
    for key, value in (overrides or {}).items():
        section, _, leaf = key.partition(".")
        _overlay(cfg, {section: {leaf: value}} if leaf else {key: value})
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
    dp, ec, ac = cfg["dataprep"], cfg["embedder"], cfg["arena"]
    if ec["kind"] not in PROVIDER_KINDS:
        raise ConfigError(f"config key 'embedder.kind' must be one of "
                          f"{list(PROVIDER_KINDS)}, got {ec['kind']!r}")
    # each value is checked by the code that will use it, on an empty input
    for stage in ("cpt", "sft", "grpo"):
        _build(f"keys {stage}.lr, {stage}.weight_decay", make_optimizer, "adamw",
               cfg[stage]["lr"], cfg[stage]["weight_decay"])
    _build("section 'policy'", policy.check_init, **cfg["policy"])
    _build("keys dataprep.window, dataprep.overlap", dataprep.chunk_tokens,
           [], dp["window"], dp["overlap"])
    _build("key dataprep.ratios", dataprep.stratified_split, [], tuple(dp["ratios"]))
    _build("key dataprep.dedup_threshold", dataprep.dedup_paragraphs, [],
           dp["dedup_threshold"])
    _build("key embedder.dim", embed_toy, "", ec["dim"])
    _build("keys embedder.batch_size, embedder.timeout", EncoderEndpointConfig,
           base_url="", batch_size=ec["batch_size"], timeout=ec["timeout"])
    _build("key grpo.centroid_sample", sample_reference_texts, [],
           cfg["grpo"]["centroid_sample"])
    _build("key judge.timeout", JudgeEndpointConfig, url="",
           timeout=cfg["judge"]["timeout"])
    _build("key arena.k_factor", arena_mod.elo_update, 0.0, 0.0, "TIE", ac["k_factor"])
    if not ac["judges"]:
        raise ConfigError("config key 'arena.judges' must name at least one judge")
    if len(set(ac["judges"])) != len(ac["judges"]):
        raise ConfigError(f"config key 'arena.judges' names a judge twice: {ac['judges']}")
    for spec in ac["judges"]:
        _build("key arena.judges", make_judge, spec)
    grpo_settings(cfg)
    return cfg


def _overlay(cfg: dict, user: dict) -> None:
    """Write user's values into cfg; a key cfg lacks, or a non-object where
    cfg has a section, raises ConfigError."""
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


def _build(keys: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a rejected value reported against its config
    keys."""
    try:
        return fn(*args, **kwargs)
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


def _rows(path: Path, what: str, required: tuple[str, ...],
          strings: tuple[str, ...] = ()) -> list[dict]:
    """The rows of a JSON-lines input file; a line that is not JSON, or a row
    that is not an object, lacks a required field or holds a non-string in
    one of strings, raises ConfigError naming what, the file and the line or
    the row's index."""
    try:
        rows = dataprep.read_jsonl(path)
    except ValueError as exc:
        raise ConfigError(f"{what} {exc}") from exc
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(f"{what} {path}: row {i} is not an object")
        missing = [key for key in required if key not in row]
        if missing:
            raise ConfigError(f"{what} {path}: row {i} has no {', '.join(missing)}")
        wrong = [key for key in strings if key in row and not isinstance(row[key], str)]
        if wrong:
            raise ConfigError(f"{what} {path}: row {i}: {', '.join(wrong)} is not a string")
    return rows


def _qa_items(path: Path, what: str) -> list[dataprep.QaItem]:
    """The QA items of a JSON-lines file; a row _rows or QaItem rejects
    raises ConfigError naming what, the file and the row's index."""
    items = []
    for i, row in enumerate(_rows(path, what, ("question", "answer"))):
        try:
            items.append(dataprep.qa_item_from_dict(row, i))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what} {path}: row {i}: {exc}") from exc
    return items


def _service_url(url: str | None, key: str, var: str) -> str:
    """url, the value of config key, else the environment variable var;
    neither set raises ConfigError naming both."""
    url = url or os.environ.get(var)
    if not url:
        raise ConfigError(f"config key {key!r} is not set, nor is {var}")
    return url


def _provider(cfg: dict):
    """The embedder section's provider; a remote one posts to its base_url
    (else SEMRANK_EMBED_URL) with SEMRANK_EMBED_TOKEN, and a URL that is
    missing or not http(s) raises ConfigError."""
    ec = cfg["embedder"]
    if ec["kind"] != "remote":
        return ToyEmbedder(d=ec["dim"])
    url = _service_url(ec["base_url"], "embedder.base_url", "SEMRANK_EMBED_URL")
    if not url.startswith(("http://", "https://")):
        raise ConfigError(f"config key 'embedder.base_url' (else SEMRANK_EMBED_URL) "
                          f"must be an http(s) URL, got {url!r}")
    return RemoteEncoder(EncoderEndpointConfig(
        base_url=url, timeout=ec["timeout"], batch_size=ec["batch_size"],
        auth_token=os.environ.get("SEMRANK_EMBED_TOKEN")))


def _judge(cfg: dict, spec: str | None = None):
    """The judge of an arena.judges spec, else of judge.url (else
    SEMRANK_JUDGE_URL); an HTTP one takes the judge section's model (else
    SEMRANK_JUDGE_MODEL, else JudgeEndpointConfig's), its timeout and
    SEMRANK_JUDGE_TOKEN. No URL, or a bad spec, raises ConfigError."""
    jc = cfg["judge"]
    key = "arena.judges" if spec else "judge.url"
    spec = spec or _service_url(jc["url"], "judge.url", "SEMRANK_JUDGE_URL")
    model = jc["model"] or os.environ.get("SEMRANK_JUDGE_MODEL") or _JUDGE["model"]
    endpoint = None if spec.startswith("mock:") else JudgeEndpointConfig(
        url=spec, model=model, timeout=jc["timeout"],
        auth_token=os.environ.get("SEMRANK_JUDGE_TOKEN"))
    return _build(f"key {key}", make_judge, spec, endpoint)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    dp = cfg["dataprep"]
    corpus_dir = _require_path(dp["corpus_dir"], "dataprep.corpus_dir")
    qa_file = _require_path(dp["qa_file"], "dataprep.qa_file")
    raw_items = _qa_items(qa_file, "dataprep.qa_file")
    echo_config(cfg, out_dir)
    vocab = ByteBucketVocab()

    chunk_rows = []
    for source in sorted(corpus_dir.glob("*.txt")):
        clean = dataprep.clean_text(source.read_text(encoding="utf-8"))
        paragraphs = dataprep.dedup_paragraphs(
            dataprep.split_paragraphs(clean), threshold=dp["dedup_threshold"])
        text = "\n\n".join(paragraphs)
        tokens = vocab.encode(text)
        for chunk in dataprep.chunk_tokens(tokens, dp["window"], dp["overlap"],
                                           source_title=source.stem):
            chunk_rows.append(dataprep.chunk_to_dict(chunk))
    dataprep.write_jsonl(out_dir / "corpus_chunks.jsonl", chunk_rows)

    kept, rejected = dataprep.filter_items(raw_items)
    trainer.write_metrics_csv(out_dir / "rejections.csv",
                              [asdict(r) for r in rejected], ["item_id", "reason"])

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


def _save_stage(params: policy.PolicyParams, run_dir: Path, losses: list[float],
                schedule: LrSchedule, label: str, extra: dict) -> None:
    """A CPT/SFT run's outputs: final.ckpt, metrics.csv (each epoch's loss
    and its last step's learning rate) and the epoch-loss line."""
    run_dir.mkdir(parents=True, exist_ok=True)
    ckpt = run_dir / "final.ckpt"
    policy.save_checkpoint(params, ckpt, extra=extra)
    steps_per_epoch = schedule.total_steps // len(losses)
    rows = [{"step": e + 1, "loss": loss,
             "lr": lr_at(schedule, (e + 1) * steps_per_epoch - 1)}
            for e, loss in enumerate(losses)]
    trainer.write_metrics_csv(run_dir / "metrics.csv", rows, STAGE_COLUMNS)
    print(f"{label}: epoch losses {[round(x, 4) for x in losses]} -> {ckpt}")


def _run_cpt(cfg: dict, optimizer_kind: str, out_dir: Path) -> list[float]:
    sc = cfg["cpt"]
    chunks_file = _require_path(out_dir / "corpus_chunks.jsonl",
                                "corpus chunks (run prepare first)")
    chunks = [row["tokens"] for row in _rows(chunks_file, "corpus chunks", ("tokens",))]
    if not any(chunks):
        raise ConfigError(f"no tokens in {chunks_file}: no .txt file in "
                          "dataprep.corpus_dir holds text")
    params = policy.init_params(vocab_size=ByteBucketVocab.size, seed=cfg["seed"],
                                **cfg["policy"])
    n_sequences = sum((len(c) + sc["seq_len"] - 1) // sc["seq_len"] for c in chunks)
    schedule, optimizer = _schedule_and_optimizer(sc, n_sequences, optimizer_kind)
    params, losses = trainer.train_clm(
        chunks, params, optimizer, schedule, epochs=sc["epochs"],
        seq_len=sc["seq_len"], batch_size=sc["batch_size"], seed=cfg["seed"])
    _save_stage(params, out_dir / f"cpt_{optimizer_kind}", losses, schedule,
                f"cpt[{optimizer_kind}]",
                {"stage": "cpt", "optimizer": optimizer_kind, "seed": cfg["seed"]})
    return losses


def _run_sft(cfg: dict, out_dir: Path) -> None:
    sc = cfg["sft"]
    init = sc["init_checkpoint"] or (out_dir / "cpt_adamw" / "final.ckpt")
    init = _require_path(init, "sft.init_checkpoint (upstream CPT checkpoint)")
    params, _ = policy.load_checkpoint(init)
    vocab = ByteBucketVocab()
    items = [trainer.SftItem(tuple(vocab.encode(prompt)),
                             tuple(vocab.encode(completion, add_eos=True)))
             for prompt, completion in map(dataprep.to_instruction, _train_items(out_dir))]
    schedule, optimizer = _schedule_and_optimizer(sc, len(items), sc["optimizer"])
    params, losses = trainer.train_sft(items, params, optimizer, schedule,
                                       epochs=sc["epochs"],
                                       batch_size=sc["batch_size"],
                                       seed=cfg["seed"])
    _save_stage(params, out_dir / "sft", losses, schedule, "sft",
                {"stage": "sft", "seed": cfg["seed"]})


def _split_items(out_dir: Path, split: str) -> list[dataprep.QaItem]:
    """A prepared split's items; a missing split file, or a row _qa_items
    rejects, raises ConfigError."""
    path = _require_path(out_dir / f"{split}.jsonl", f"{split} split (run prepare first)")
    return _qa_items(path, f"{split} split")


def _train_items(out_dir: Path) -> list[dataprep.QaItem]:
    """The prepared train split; missing or empty raises ConfigError."""
    items = _split_items(out_dir, "train")
    if not items:
        raise ConfigError(f"train split is empty: {out_dir / 'train.jsonl'}")
    return items


def build_reward_contexts(items: list[dataprep.QaItem],
                          train_items: list[dataprep.QaItem], provider,
                          centroid_sample: int, seed: int) -> dict[str, RewardContext]:
    """Each item's context, by item id: its gold explanation's embedding
    against one centroid of sampled train-split explanations, so GRPO and
    score share v_ref."""
    sampled = sample_reference_texts([it.rationale for it in train_items],
                                     centroid_sample, seed=seed)
    v_ref = reference_centroid(sampled, provider)
    vectors = provider([it.rationale for it in items])
    return {item.item_id: RewardContext(v_gt=v_gt, v_ref=v_ref, gt_answer=item.answer,
                                        gt_explanation=item.rationale)
            for item, v_gt in zip(items, vectors)}


def _run_grpo(cfg: dict, out_dir: Path) -> Path:
    gc = cfg["grpo"]
    grpo_cfg, reward_cfg, lora_cfg = grpo_settings(cfg)
    # the services first: a missing URL fails before any file is read
    provider = _provider(cfg)
    judge_client = _judge(cfg) if "judge" in reward_cfg.enabled else None
    init = gc["init_checkpoint"] or (out_dir / "sft" / "final.ckpt")
    init = _require_path(init, "grpo.init_checkpoint (upstream SFT checkpoint)")
    base, init_extra = policy.load_checkpoint(init)
    run_dir = out_dir / "grpo"
    if gc["steps"] == 0:
        # zero steps: pass the input through untouched (byte-identical)
        run_dir.mkdir(parents=True, exist_ok=True)
        final = run_dir / "step0.ckpt"
        policy.save_checkpoint(base, final, extra=init_extra)
        trainer.write_metrics_csv(run_dir / "metrics.csv", [])
        print(f"grpo: 0 steps -> {final}")
        return final
    # the checkpoint, not the policy section, fixes the shapes the rank must fit
    params = _build("key grpo.lora_rank", policy.attach_lora, base, lora_cfg,
                    seed=cfg["seed"])
    ref = policy.detach_lora(params)

    vocab = ByteBucketVocab()
    qa_items = _train_items(out_dir)
    contexts = build_reward_contexts(qa_items, qa_items, provider,
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
    trainer.run_grpo(state, dataset, score_fn, vocab.decode, grpo_cfg, out_dir=run_dir)
    final = run_dir / f"step{state.step}.ckpt"
    print(f"grpo: {state.step} steps -> {final}")
    return final


def cmd_train(cfg: dict, stage: str) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    if stage == "cpt":
        kind = cfg["cpt"]["optimizer"]
        if kind == "both":
            losses_a = _run_cpt(cfg, "adamw", out_dir)
            losses_m = _run_cpt(cfg, "muon", out_dir)
            rows = [{"step": i + 1,
                     "loss_adamw": a, "loss_muon": m}
                    for i, (a, m) in enumerate(zip(losses_a, losses_m))]
            trainer.write_metrics_csv(out_dir / "cpt_ablation.csv", rows,
                                      ["step", "loss_adamw", "loss_muon"])
        else:
            _run_cpt(cfg, kind, out_dir)
    elif stage == "sft":
        _run_sft(cfg, out_dir)
    else:  # argparse's choices leave grpo
        _run_grpo(cfg, out_dir)
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCORE_COLUMNS = ["item_id", *COMPONENT_NAMES, "total", "error"]


def cmd_score(cfg: dict, generations_file: str) -> int:
    out_dir = Path(cfg["out_dir"])
    _, reward_cfg, _ = grpo_settings(cfg)
    reward_cfg = _build("key grpo.rewards (score runs no judge)", replace, reward_cfg,
                        enabled=reward_cfg.enabled - {"judge"})
    provider = _provider(cfg)
    echo_config(cfg, out_dir)
    gen_path = _require_path(generations_file, "generations file")
    train_items = _train_items(out_dir)
    qa_items = {item.item_id: item for split in dataprep.SPLIT_NAMES
                for item in _split_items(out_dir, split)}
    contexts = build_reward_contexts(list(qa_items.values()), train_items, provider,
                                     cfg["grpo"]["centroid_sample"], cfg["seed"])
    rows = []
    for row in _rows(gen_path, "generations file", (), ("text",)):
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
    trainer.write_metrics_csv(out_path, rows, SCORE_COLUMNS)
    print(f"score: {len(rows)} rows -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# arena
# ---------------------------------------------------------------------------

def cmd_arena(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    ac = cfg["arena"]
    items_path = _require_path(ac["items_file"], "arena.items_file")
    models_dir = _require_path(ac["models_dir"], "arena.models_dir")
    items = _rows(items_path, "arena.items_file", ("item_id",), ("question", "answer"))

    models: dict[str, dict[str, str]] = {}
    answers: dict[str, dict[str, TaggedOutput]] = {}
    for model_file in sorted(models_dir.glob("*.jsonl")):
        name = model_file.stem
        rows = _rows(model_file, "arena.models_dir", ("item_id",),
                     ("answer", "explanation"))
        models[name] = {str(r["item_id"]): r.get("explanation") for r in rows}
        answers[name] = {str(r["item_id"]): TaggedOutput(risposta=r.get("answer", ""))
                         for r in rows}
    gold = {str(it["item_id"]): it["answer"] for it in items if "answer" in it}
    accuracies = {name: arena_mod.evaluate_accuracy(answers[name], gold)
                  for name in models} if gold else {}
    judges = [_judge(cfg, spec) for spec in ac["judges"]]
    # run_tournament checks the models, the items and their coverage
    report = _build("keys arena.items_file, arena.models_dir", arena_mod.run_tournament,
                    models, items, judges, k=ac["k_factor"], seed=cfg["seed"],
                    both_orders=ac["both_orders"], accuracies=accuracies)
    ratings_rows = []
    for jname, table in report.tables.items():
        for model in sorted(table.ratings):
            ratings_rows.append({"model": model, "judge": jname,
                                 "elo": table.ratings[model],
                                 "games": table.games[model]})
    trainer.write_metrics_csv(out_dir / "ratings.csv", ratings_rows,
                              arena_mod.RATINGS_COLUMNS)
    trainer.write_metrics_csv(out_dir / "aggregate.csv", report.aggregate,
                              arena_mod.AGGREGATE_COLUMNS)
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


def serve_stub(args: argparse.Namespace) -> mockserve.StubServer:
    """The unstarted stub that `semrank serve` runs, in its kind's default
    mode when --mode is not given. A mode the kind does not serve, or a
    dimension embed_toy rejects, raises ConfigError before binding a port."""
    mode = args.mode or mockserve.DEFAULT_MODES[args.kind]
    behavior = mockserve.StubBehavior(mode=mode, fail_status=args.fail_status,
                                      dim=args.dim)
    try:
        return mockserve.StubServer(args.kind, behavior, args.port)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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

    # an option's dest is the config key it overrides ("seed", "out_dir" or
    # "section.leaf"); main() hands every one that is set to load_config
    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")

    p = sub.add_parser("prepare", help="clean, dedup, chunk, filter, split")
    common(p)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("stage", choices=["cpt", "sft", "grpo"])
    common(p)
    p.add_argument("--optimizer", choices=CPT_OPTIMIZERS, default=None,
                   help="<stage>.optimizer: cpt and sft only (GRPO uses adamw)")
    p.add_argument("--steps", dest="grpo.steps", type=int, default=None,
                   help="GRPO steps override")
    p.add_argument("--embedder", dest="embedder.kind", choices=PROVIDER_KINDS,
                   default=None)

    p = sub.add_parser("score", help="reward breakdown CSV for generations")
    common(p)
    p.add_argument("--generations", required=True,
                   help="JSON-lines file with {item_id, text}")
    p.add_argument("--embedder", dest="embedder.kind", choices=PROVIDER_KINDS,
                   default=None)

    p = sub.add_parser("arena", help="pairwise judged tournament")
    common(p)
    p.add_argument("--judges", dest="arena.judges", default=None,
                   type=lambda specs: [s.strip() for s in specs.split(",")],
                   help="comma list: mock:<mode> or judge endpoint URLs")

    p = sub.add_parser("report", help="SVG charts from the emitted CSVs")
    common(p)

    p = sub.add_parser("synth", help="generate demo corpus and qa data")
    common(p)
    p.add_argument("--chars", type=int, default=50_000)
    p.add_argument("--items", type=int, default=60)

    p = sub.add_parser("serve", help="run an embedding or judge stub server")
    p.add_argument("kind", choices=["embed", "judge"])
    defaults = ", ".join(f"{mode} for {kind}"
                         for kind, mode in mockserve.DEFAULT_MODES.items())
    p.add_argument("--mode", default=None, help=f"stub mode (default: {defaults})")
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
            mockserve.run_forever(serve_stub(args))
            return 0
        overrides = {key: value for key, value in vars(args).items()
                     if value is not None and (key in DEFAULT_CONFIG or "." in key)}
        if getattr(args, "optimizer", None) is not None:
            overrides[f"{args.stage}.optimizer"] = args.optimizer
        cfg = load_config(args.config, overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.stage)
        if args.command == "score":
            return cmd_score(cfg, args.generations)
        if args.command == "arena":
            return cmd_arena(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        return cmd_synth(cfg, args.chars, args.items)  # argparse's choices leave synth
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
