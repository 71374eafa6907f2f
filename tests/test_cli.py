import argparse
import csv
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semrank import cli
from semrank._http import post_json
from semrank.arena import AGGREGATE_COLUMNS, RATINGS_COLUMNS
from semrank.cli import (SCORE_COLUMNS, STAGE_COLUMNS, _judge, _provider,
                         build_parser, load_config, main, serve_stub)
from semrank.dataprep import read_jsonl
from semrank.embedder import RemoteEncoder
from semrank.errors import ConfigError
from semrank.judge import build_score_prompt
from semrank.mockserve import StubBehavior, StubServer
from semrank.optim import lr_at
from semrank.policy import load_checkpoint, save_checkpoint
from semrank.trainer import METRICS_COLUMNS
from test_policy import JSON_VALUES

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
        "dataprep": {
            "corpus_dir": str(tmp_path / "data" / "corpus"),
            "qa_file": str(tmp_path / "data" / "qa.jsonl"),
            "window": 512,
            "overlap": 64,
        },
        "policy": {"context_size": 8, "embed_dim": 8, "hidden_dim": 16},
        "cpt": {"epochs": 1, "seq_len": 32, "batch_size": 8, "lr": 5e-3},
        "sft": {"epochs": 1, "batch_size": 8, "lr": 5e-3},
        "grpo": {"steps": 2, "group_size": 2, "prompts_per_step": 1,
                 "max_new_tokens": 8, "lora_rank": 2, "lora_alpha": 4.0,
                 "checkpoint_interval": 1},
        "embedder": {"dim": 64},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def synth_inputs(tmp_path, chars=3000, items=30):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "7",
                 "--chars", str(chars), "--items", str(items)]) == 0
    return data


class TestPrepare:
    def test_end_to_end_partition(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["prepare", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        splits = {name: read_jsonl(out / f"{name}.jsonl")
                  for name in ("train", "dev", "test")}
        kept = sum(len(v) for v in splits.values())
        raw = read_jsonl(tmp_path / "data" / "qa.jsonl")
        with open(out / "rejections.csv") as f:
            rejected = sum(1 for _ in f) - 1
        assert kept + rejected == len(raw)
        assert rejected >= 2  # synth injects image + brief rejects
        assert (out / "corpus_chunks.jsonl").exists()
        assert (out / "config_echo.json").exists()

    def test_missing_input_dir_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)  # no synth: corpus dir absent
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        def run_and_read(out_name):
            assert main(["prepare", "--config", str(cfg),
                         "--out", str(tmp_path / out_name)]) == 0
            return {p.name: p.read_bytes()
                    for p in sorted((tmp_path / out_name).glob("*.jsonl"))}
        assert run_and_read("out_a") == run_and_read("out_b")


class TestTrain:
    @pytest.fixture()
    def prepared(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["prepare", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out"

    def test_cpt_then_sft_then_grpo(self, prepared):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        assert (out / "cpt_adamw" / "final.ckpt").exists()
        assert (out / "cpt_adamw" / "metrics.csv").exists()
        assert main(["train", "sft", "--config", str(cfg)]) == 0
        assert (out / "sft" / "final.ckpt").exists()
        assert main(["train", "grpo", "--config", str(cfg),
                     "--embedder", "toy"]) == 0
        assert (out / "grpo" / "metrics.csv").exists()
        assert (out / "grpo" / "step2.ckpt").exists()

    def test_grpo_without_sft_checkpoint_exit_2(self, prepared):
        cfg, out = prepared
        assert main(["train", "grpo", "--config", str(cfg)]) == 2

    def test_sft_without_cpt_checkpoint_exit_2(self, prepared):
        cfg, out = prepared
        assert main(["train", "sft", "--config", str(cfg)]) == 2

    def test_sft_from_non_finite_checkpoint_exit_1(self, prepared, tmp_path,
                                                   capsys):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        params, _ = load_checkpoint(out / "cpt_adamw" / "final.ckpt")
        params.E[0, 0] = float("nan")
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(params, bad)
        cfg = write_config(tmp_path, sft={"init_checkpoint": str(bad)})
        capsys.readouterr()
        assert main(["train", "sft", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"runtime error: {bad}: tensor E holds a NaN or Inf"]
        assert not (out / "sft" / "final.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_cpt_non_finite_loss_exit_1(self, prepared, tmp_path, capsys):
        _, out = prepared
        # a step this large overflows the weights, so a later batch's loss is NaN
        cfg = write_config(tmp_path, cpt={"lr": 1e300})
        capsys.readouterr()
        assert main(["train", "cpt", "--config", str(cfg)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"runtime error: non-finite loss at epoch 1, batch \d+", line)
        assert not (out / "cpt_adamw" / "final.ckpt").exists()

    def test_optimizer_both_emits_ablation_csv(self, prepared):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg),
                     "--optimizer", "both"]) == 0
        assert (out / "cpt_adamw" / "metrics.csv").exists()
        assert (out / "cpt_muon" / "metrics.csv").exists()
        header = (out / "cpt_ablation.csv").read_text().splitlines()[0]
        assert header == "step,loss_adamw,loss_muon"
        assert main(["report", "--config", str(cfg)]) == 0
        svg = (out / "cpt_ablation.svg").read_text()
        assert "loss_adamw" in svg and "loss_muon" in svg

    def test_stage_lr_is_each_epochs_last_step_rate(self, prepared, tmp_path):
        _, out = prepared
        cfg = write_config(tmp_path, cpt={"epochs": 3})
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        sc = load_config(str(cfg))["cpt"]
        n_sequences = sum(-(-len(row["tokens"]) // sc["seq_len"])
                          for row in read_jsonl(out / "corpus_chunks.jsonl"))
        schedule, _ = cli._schedule_and_optimizer(sc, n_sequences, "adamw")
        steps_per_epoch = schedule.total_steps // 3
        with open(out / "cpt_adamw" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["lr"]) for r in rows] == [
            lr_at(schedule, (e + 1) * steps_per_epoch - 1) for e in range(3)]
        assert 0 < float(rows[-1]["lr"]) < float(rows[0]["lr"])

    def test_grpo_steps_zero_checkpoint_byte_identical(self, prepared):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        assert main(["train", "sft", "--config", str(cfg)]) == 0
        assert main(["train", "grpo", "--config", str(cfg), "--steps", "0"]) == 0
        src = (out / "sft" / "final.ckpt").read_bytes()
        dst = (out / "grpo" / "step0.ckpt").read_bytes()
        assert src == dst


class TestScoreAndReport:
    @pytest.fixture()
    def trained(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["prepare", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out"

    def test_score_rows_and_missing_gt(self, trained, tmp_path):
        cfg, out = trained
        train_items = read_jsonl(out / "train.jsonl")
        gens = [{"item_id": train_items[0]["item_id"],
                 "text": "<think>t</think><spiegazione>"
                         + train_items[0]["rationale"]
                         + "</spiegazione><risposta>"
                         + train_items[0]["answer"] + "</risposta>"},
                {"item_id": "sconosciuto", "text": "niente"},
                {"item_id": train_items[1]["item_id"], "text": ""}]
        gen_path = tmp_path / "gens.jsonl"
        gen_path.write_text("\n".join(json.dumps(g) for g in gens))
        assert main(["score", "--config", str(cfg),
                     "--generations", str(gen_path)]) == 0
        rows = (out / "rewards.csv").read_text().splitlines()
        assert rows[0] == "item_id,semantic,rouge,judge,answer,format,think,total,error"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 3
        perfect = body[0]
        assert perfect[4] == "1.0" and perfect[5] == "1.0" and perfect[6] == "1.0"
        missing = body[1]
        assert missing[-1] == "missing_ground_truth"
        empty = body[2]
        assert empty[4] == "0.0" and empty[5] == "0.0"

    def test_score_semantic_matches_grpo_reward(self, trained, tmp_path,
                                                monkeypatch):
        # score and GRPO draw v_ref from the same pool (the train split),
        # so one text for one train item gets one semantic value
        cfg, out = trained
        assert read_jsonl(out / "dev.jsonl")  # a centroid over every split differs
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        assert main(["train", "sft", "--config", str(cfg)]) == 0
        captured = {}

        def capture(state, dataset, score_fn, *args, **kwargs):
            captured.update(dataset={it.item_id: it for it in dataset},
                            score_fn=score_fn)

        monkeypatch.setattr(cli.trainer, "run_grpo", capture)
        assert main(["train", "grpo", "--config", str(cfg)]) == 0
        train_items = read_jsonl(out / "train.jsonl")[:3]
        gens = [{"item_id": it["item_id"],
                 "text": "<think>t</think><spiegazione>" + it["rationale"]
                         + "</spiegazione><risposta>" + it["answer"] + "</risposta>"}
                for it in train_items]
        gen_path = tmp_path / "gens.jsonl"
        gen_path.write_text("\n".join(json.dumps(g) for g in gens))
        assert main(["score", "--config", str(cfg),
                     "--generations", str(gen_path)]) == 0
        with open(out / "rewards.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["item_id"] for r in rows] == [g["item_id"] for g in gens]
        for row, gen in zip(rows, gens):
            expected = captured["score_fn"](captured["dataset"][gen["item_id"]],
                                            gen["text"])
            assert expected.semantic > 0
            assert float(row["semantic"]) == expected.semantic
            assert float(row["total"]) == expected.total

    def test_generation_text_is_a_string_or_absent(self, trained, tmp_path, capsys):
        cfg, out = trained
        item_id = read_jsonl(out / "train.jsonl")[0]["item_id"]
        gens = [{"item_id": item_id}, {"item_id": item_id, "text": ""}]
        gen_path = tmp_path / "gens.jsonl"
        gen_path.write_text("\n".join(json.dumps(g) for g in gens))
        argv = ["score", "--config", str(cfg), "--generations", str(gen_path)]
        assert main(argv) == 0
        with open(out / "rewards.csv", newline="") as f:
            without_text, empty = csv.DictReader(f)
        assert without_text == empty and empty["error"] == ""
        (out / "rewards.csv").unlink()
        gens.append({"item_id": item_id, "text": 5})
        gen_path.write_text("\n".join(json.dumps(g) for g in gens))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in ("generations file", "gens.jsonl", "row 2",
                                            "text", "string")) and "Traceback" not in err
        assert not (out / "rewards.csv").exists()

    def test_report_renders_svgs(self, trained, tmp_path):
        cfg, out = trained
        # synthesize the CSVs a full run would emit
        (out / "grpo").mkdir(parents=True, exist_ok=True)
        (out / "grpo" / "metrics.csv").write_text(
            "step,mean_total,mean_semantic,mean_rouge,mean_answer,"
            "mean_format,mean_think,mean_kl,loss,lr\n"
            "1,1.0,0.2,,0.3,0.4,0.1,0.01,-0.5,0.001\n"
            "2,2.0,0.4,,0.6,0.8,0.2,0.02,-0.7,0.001\n")
        (out / "aggregate.csv").write_text(
            "model,mean_elo,min_elo,max_elo,accuracy\n"
            "alpha,1540,1510,1570,0.58\n"
            "beta,1460,1430,1490,0.41\n")
        assert main(["report", "--config", str(cfg)]) == 0
        reward_svg = (out / "reward_curves.svg").read_text()
        assert "<svg" in reward_svg and "mean_total" in reward_svg
        elo_svg = (out / "elo.svg").read_text()
        assert "alpha" in elo_svg and "1540" in elo_svg

    def test_report_without_out_dir_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "nowhere"))
        assert main(["report", "--config", str(cfg)]) == 2


class TestArenaCommand:
    def test_mock_judges_end_to_end(self, tmp_path):
        items = [{"item_id": f"i{k}", "question": f"domanda {k}?",
                  "answer": "a"} for k in range(6)]
        items_path = tmp_path / "items.jsonl"
        items_path.write_text("\n".join(json.dumps(i) for i in items))
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        for name, mult, answer in (("verboso", 6, "a"), ("conciso", 1, "b")):
            rows = [{"item_id": it["item_id"],
                     "explanation": ("parole tante " * mult) + it["item_id"],
                     "answer": answer} for it in items]
            (models_dir / f"{name}.jsonl").write_text(
                "\n".join(json.dumps(r) for r in rows))
        cfg = write_config(tmp_path, arena={
            "items_file": str(items_path), "models_dir": str(models_dir),
            "judges": ["mock:prefer-longer", "mock:prefer-shorter"]})
        assert main(["arena", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        ratings = (out / "ratings.csv").read_text().splitlines()
        assert ratings[0] == "model,judge,elo,games"
        assert len(ratings) == 1 + 4  # 2 models x 2 judges
        aggregate = (out / "aggregate.csv").read_text().splitlines()
        assert aggregate[0] == "model,mean_elo,min_elo,max_elo,accuracy"
        row = dict(zip(aggregate[0].split(","), aggregate[1].split(",")))
        assert float(row["min_elo"]) < float(row["mean_elo"]) < float(row["max_elo"])
        verboso = next(r for r in aggregate[1:] if r.startswith("verboso"))
        assert verboso.split(",")[4] == "1.0"  # all answers 'a' correct

    def test_judges_flag_overrides(self, tmp_path):
        items = [{"item_id": "i0", "question": "q?", "answer": "a"}]
        items_path = tmp_path / "items.jsonl"
        items_path.write_text(json.dumps(items[0]))
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        for name, text in (("a", "lungo testo qui"), ("b", "no")):
            (models_dir / f"{name}.jsonl").write_text(json.dumps(
                {"item_id": "i0", "explanation": text, "answer": "a"}))
        cfg = write_config(tmp_path, arena={
            "items_file": str(items_path), "models_dir": str(models_dir)})
        assert main(["arena", "--config", str(cfg),
                     "--judges", "mock:prefer-longer"]) == 0

    def test_missing_item_exit_2(self, tmp_path, capsys):
        items = [{"item_id": "i0", "question": "q?"},
                 {"item_id": "i1", "question": "q2?"}]
        items_path = tmp_path / "items.jsonl"
        items_path.write_text("\n".join(json.dumps(i) for i in items))
        models_dir = tmp_path / "models"
        models_dir.mkdir()
        (models_dir / "a.jsonl").write_text(json.dumps(
            {"item_id": "i0", "explanation": "x"}))
        (models_dir / "b.jsonl").write_text("\n".join(json.dumps(
            {"item_id": i["item_id"], "explanation": "y"}) for i in items))
        cfg = write_config(tmp_path, arena={
            "items_file": str(items_path), "models_dir": str(models_dir)})
        assert main(["arena", "--config", str(cfg)]) == 2
        assert "i1" in capsys.readouterr().err


class TestConfig:
    def test_bad_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["prepare", "--config", str(bad)]) == 2

    def test_unknown_version_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 99, "seed": 1}))
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_seed_must_be_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": "now"}))
        assert main(["prepare", "--config", str(cfg)]) == 2

    def test_unknown_leaf_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": 1,
                                   "grpo": {"stpes": 5}}))
        assert main(["train", "grpo", "--config", str(cfg)]) == 2
        assert "stpes" in capsys.readouterr().err

    def test_unknown_section_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": 1, "gpro": {}}))
        assert main(["prepare", "--config", str(cfg)]) == 2
        assert "gpro" in capsys.readouterr().err

    def test_scalar_section_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "seed": 1, "grpo": 5}))
        assert main(["train", "grpo", "--config", str(cfg)]) == 2
        assert "'grpo' must be an object" in capsys.readouterr().err

    def test_config_echoed(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["prepare", "--config", str(cfg)]) == 0
        echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert echo["seed"] == 7

    @pytest.mark.parametrize("section,key,value", [
        ("grpo", "group_size", 1),
        ("grpo", "clip_eps", 1.5),
        ("grpo", "rewards", ["nope"]),
        ("grpo", "lora_rank", 0),
        ("grpo", "c", 0),
        ("grpo", "steps", "2"),
        (None, "seed", True),
        ("cpt", "epochs", "1"),
        ("cpt", "optimizer", "sgd"),
        ("cpt", "batch_size", 0),
        ("grpo", "lr", float("nan")),
        ("grpo", "temperature", float("inf")),
        ("grpo", "steps", -3),
        ("grpo", "prompts_per_step", 0),
        ("grpo", "inner_epochs", 2),
        ("cpt", "epochs", -1),
        ("cpt", "warmup_frac", 2),
        ("sft", "epochs", 0),
        ("sft", "warmup_frac", -0.5),
        ("embedder", "kind", "nope"),
        ("policy", "vocab_size", 32),
        ("dataprep", "overlap", 512),
        ("dataprep", "ratios", [0.5, 0.3, 0.1]),
        ("dataprep", "ratios", [0.5, 0.5]),
        ("dataprep", "dedup_threshold", -1),
        ("dataprep", "dedup_threshold", 0),
        ("embedder", "dim", 4),
        ("embedder", "batch_size", 0),
        ("embedder", "timeout", -1),
        ("grpo", "centroid_sample", 0),
        ("arena", "k_factor", 0),
        ("arena", "judges", ["mock:nope"]),
        ("arena", "judges", []),
        ("judge", "timeout", -1),
        ("grpo", "max_new_tokens", 0),
        ("grpo", "adv_eps", -1),
        ("grpo", "adv_eps", 0),
        ("grpo", "lr", 0),
        ("grpo", "lr", -1e-3),
        ("cpt", "lr", 0),
        ("sft", "lr", -1),
        ("cpt", "weight_decay", -0.1),
        ("sft", "weight_decay", -0.1),
        ("grpo", "weight_decay", -0.1),
        ("policy", "context_size", 0),
        ("policy", "embed_dim", 0),
        ("policy", "hidden_dim", -1),
        ("policy", "hidden_dim", 0),
        ("policy", "init_scale", -1),
        ("arena", "judges", ["mock:prefer-longer", "mock:prefer-longer"]),
    ])
    def test_bad_value_exit_2_before_any_output(self, tmp_path, capsys,
                                                section, key, value):
        overrides = {section: {key: value}} if section else {key: value}
        cfg = write_config(tmp_path, **overrides)
        assert main(["train", "grpo", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "config_echo.json").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("grpo", "lr", 1),
        ("grpo", "init_checkpoint", None),
        ("sft", "init_checkpoint", None),
    ])
    def test_accepted_value_loads_as_given(self, tmp_path, section, key, value):
        cfg = load_config(str(write_config(tmp_path, **{section: {key: value}})))
        assert cfg[section][key] == value

    @pytest.mark.parametrize("argv,config,names", [
        (["train", "grpo"], {"grpo": {"rewards": ["semantic", "judge"]}},
         ["judge.url", "SEMRANK_JUDGE_URL"]),
        (["train", "grpo", "--embedder", "remote"], {},
         ["embedder.base_url", "SEMRANK_EMBED_URL"]),
        (["score", "--generations", "gens.jsonl", "--embedder", "remote"], {},
         ["embedder.base_url", "SEMRANK_EMBED_URL"]),
    ])
    def test_missing_service_url_exit_2(self, tmp_path, monkeypatch, capsys,
                                        argv, config, names):
        for var in ("SEMRANK_JUDGE_URL", "SEMRANK_EMBED_URL"):
            monkeypatch.delenv(var, raising=False)
        cfg = write_config(tmp_path, **config)
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    def test_readme_quick_start_config_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        quick_start = text.split("<<'JSON'\n")[1].split("\nJSON\n")[0]
        path = tmp_path / "config.json"
        path.write_text(quick_start)
        cfg = load_config(str(path))
        assert cfg["grpo"]["max_new_tokens"] == 96 and cfg["seed"] == 7


# every key an override can name: "seed", a section, or "section.leaf"
CONFIG_KEYS = [*cli.DEFAULT_CONFIG,
               *(f"{section}.{leaf}" for section, value in cli.DEFAULT_CONFIG.items()
                 if isinstance(value, dict) for leaf in value)]


class TestConfigProperties:
    @given(overlay=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES,
                                   min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_any_overlay_loads_or_raises_config_error(self, overlay):
        try:
            load_config(None, overlay)
        except ConfigError:
            pass

    @given(content=JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    @settings(max_examples=50, deadline=None)
    def test_non_object_file_raises_config_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "not-an-object.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ConfigError, match="not a JSON object"):
            load_config(str(path))


def arena_inputs(tmp_path):
    """Two models of different explanation lengths over three items."""
    items = [{"item_id": f"i{k}", "question": f"domanda {k}?", "answer": "a"}
             for k in range(3)]
    items_path = tmp_path / "items.jsonl"
    items_path.write_text("\n".join(json.dumps(i) for i in items))
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    for name, mult in (("verboso", 5), ("conciso", 1)):
        (models_dir / f"{name}.jsonl").write_text("\n".join(json.dumps(
            {"item_id": it["item_id"], "answer": "a",
             "explanation": "parole " * mult + it["item_id"]}) for it in items))
    return {"items_file": str(items_path), "models_dir": str(models_dir)}


def arena_with_last_row(tmp_path, row):
    """arena_inputs with the last row of model conciso (item i2) replaced."""
    inputs = arena_inputs(tmp_path)
    model_file = Path(inputs["models_dir"]) / "conciso.jsonl"
    rows = [*read_jsonl(model_file)[:-1], row]
    model_file.write_text("\n".join(json.dumps(r) for r in rows))
    return {"arena": inputs}


def arena_with_last_item(tmp_path, row):
    """arena_inputs with the last items-file row (item i2) replaced."""
    inputs = arena_inputs(tmp_path)
    items_path = Path(inputs["items_file"])
    rows = [*read_jsonl(items_path)[:-1], row]
    items_path.write_text("\n".join(json.dumps(r) for r in rows))
    return {"arena": inputs}


def qa_with_first_row(tmp_path, row):
    """The synthesized QA file with row as its first row; no overrides."""
    qa_path = tmp_path / "data" / "qa.jsonl"
    qa_path.write_text(json.dumps(row) + "\n" + qa_path.read_text())
    return {}


def prepared_then_appended(tmp_path, name, line, *stages):
    """The synthesized inputs prepared and run through stages under the test
    config, then line appended to out/name; no overrides."""
    cfg = write_config(tmp_path)
    for command in ["prepare", *stages]:
        assert run(command, tmp_path, cfg) == 0
    with open(tmp_path / "out" / name, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    return {}


def arena_with_bad_line(tmp_path, name):
    """arena_inputs with the last line of tmp_path/name not JSON."""
    inputs = arena_inputs(tmp_path)
    path = tmp_path / name
    path.write_text("\n".join([*path.read_text().splitlines()[:-1], "{not json"]))
    return {"arena": inputs}


def input_file(tmp_path, name, *lines):
    """tmp_path/name holding lines, for a command that names it; no overrides."""
    (tmp_path / name).write_text("\n".join(lines))
    return {}


def run(command, tmp_path, cfg):
    """main() on command with {tmp} filled in, under cfg unless the command
    names its own --config."""
    argv = command.format(tmp=tmp_path).split()
    return main(argv if "--config" in argv else [*argv, "--config", str(cfg)])


@pytest.mark.parametrize("overrides,commands,names", [
    (lambda tmp: {"dataprep": {"ratios": [0, 0.5, 0.5]}},
     ["prepare", "train cpt", "train sft"], ["train.jsonl"]),
    # synth's output directory holds no .txt file of its own
    (lambda tmp: {"dataprep": {"corpus_dir": str(tmp / "data")}},
     ["prepare", "train cpt"], ["corpus_chunks.jsonl", "dataprep.corpus_dir"]),
    # write_config's hidden_dim is 16
    (lambda tmp: {"grpo": {"lora_rank": 32}},
     ["prepare", "train cpt", "train sft", "train grpo"], ["grpo.lora_rank"]),
    (lambda tmp: arena_with_last_row(tmp, {"item_id": "i2", "explanation": ""}),
     ["arena"], ["arena.models_dir", "conciso", "i2"]),
    (lambda tmp: arena_with_last_row(tmp, {"item_id": "i2", "answer": "a"}),
     ["arena"], ["arena.models_dir", "conciso", "i2"]),
    (lambda tmp: arena_with_last_row(tmp, {"explanation": "x"}),
     ["arena"], ["arena.models_dir", "conciso", "row 2", "item_id"]),
    (lambda tmp: arena_with_last_item(tmp, {"question": "q?"}),
     ["arena"], ["arena.items_file", "items.jsonl", "row 2", "item_id"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": "q?"}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "answer"]),
    (lambda tmp: input_file(tmp, "list.json", "[1, 2]"),
     ["prepare --config {tmp}/list.json"], ["list.json", "not a JSON object"]),
    (lambda tmp: input_file(tmp, "data/qa.jsonl", "{not json"),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "line 1", "not JSON"]),
    (lambda tmp: arena_with_bad_line(tmp, "items.jsonl"),
     ["arena"], ["arena.items_file", "items.jsonl", "line 3", "not JSON"]),
    (lambda tmp: arena_with_bad_line(tmp, "models/conciso.jsonl"),
     ["arena"], ["arena.models_dir", "conciso.jsonl", "line 3", "not JSON"]),
    (lambda tmp: input_file(tmp, "gens.jsonl", '{"item_id": "x", "text": "t"}', "oops"),
     ["prepare", "score --generations {tmp}/gens.jsonl"],
     ["generations file", "gens.jsonl", "line 2", "not JSON"]),
    (lambda tmp: input_file(tmp, "gens.jsonl", "[1]"),
     ["prepare", "score --generations {tmp}/gens.jsonl"],
     ["generations file", "gens.jsonl", "row 0", "not an object"]),
    (lambda tmp: prepared_then_appended(tmp, "train.jsonl", "{oops", "train cpt"),
     ["train sft"], ["train split", "train.jsonl", "line", "not JSON"]),
    (lambda tmp: prepared_then_appended(tmp, "train.jsonl", '{"question": "q"}',
                                        "train cpt"),
     ["train sft"], ["train split", "train.jsonl", "row", "answer"]),
    (lambda tmp: prepared_then_appended(tmp, "corpus_chunks.jsonl", '{"nope": 1}'),
     ["train cpt"], ["corpus chunks", "corpus_chunks.jsonl", "row", "tokens"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": "q?", "answer": "z",
                                         "options": {"a": "x"}}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "not an option label"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": "q?", "answer": "a",
                                         "difficulty": "hard"}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "hard"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": "q?", "answer": "a",
                                         "rationale": 7}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "rationale", "string"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": ["q?"], "answer": "a"}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "question", "string"]),
    (lambda tmp: qa_with_first_row(tmp, {"question": "q?", "answer": "a",
                                         "options": {"a": 1}}),
     ["prepare"], ["dataprep.qa_file", "qa.jsonl", "row 0", "options"]),
    (lambda tmp: prepared_then_appended(
        tmp, "train.jsonl", '{"question": "q", "answer": "a", "rationale": 7}', "train cpt"),
     ["train sft"], ["train split", "train.jsonl", "row", "rationale", "string"]),
    # score strips the judge; it fails before reading the generations file
    (lambda tmp: {"grpo": {"rewards": ["judge"]}},
     ["score --generations {tmp}/gens.jsonl"], ["grpo.rewards"]),
    # no checkpoint exists: the judge is built before one is read
    (lambda tmp: {"grpo": {"rewards": ["semantic", "judge"]},
                  "judge": {"url": "localhost:8082/v1"}},
     ["train grpo"], ["judge.url", "localhost:8082/v1"]),
    # the encoder is built before the splits or a checkpoint are read
    (lambda tmp: {"embedder": {"kind": "remote", "base_url": "ftp://127.0.0.1:9"}},
     ["prepare", "train cpt", "train sft", "train grpo --embedder remote"],
     ["embedder.base_url", "ftp://127.0.0.1:9"]),
    (lambda tmp: {**input_file(tmp, "gens.jsonl", '{"item_id": "x", "text": "t"}'),
                  "embedder": {"kind": "remote", "base_url": "ftp://127.0.0.1:9"}},
     ["prepare", "score --generations {tmp}/gens.jsonl --embedder remote"],
     ["embedder.base_url", "ftp://127.0.0.1:9"]),
    (lambda tmp: arena_with_last_item(tmp, {"item_id": "i2", "question": "q?",
                                            "answer": 5}),
     ["arena"], ["arena.items_file", "items.jsonl", "row 2", "answer", "string"]),
    (lambda tmp: arena_with_last_item(tmp, {"item_id": "i2", "question": "q?",
                                            "answer": None}),
     ["arena"], ["arena.items_file", "items.jsonl", "row 2", "answer", "string"]),
    (lambda tmp: arena_with_last_item(tmp, {"item_id": "i2", "question": 5}),
     ["arena"], ["arena.items_file", "items.jsonl", "row 2", "question", "string"]),
    (lambda tmp: arena_with_last_row(tmp, {"item_id": "i2", "answer": 7,
                                           "explanation": "x"}),
     ["arena"], ["arena.models_dir", "conciso.jsonl", "row 2", "answer", "string"]),
    (lambda tmp: arena_with_last_row(tmp, {"item_id": "i2", "answer": "a",
                                           "explanation": 7}),
     ["arena"], ["arena.models_dir", "conciso.jsonl", "row 2", "explanation",
                 "string"]),
], ids=["empty-train-split", "corpus-without-tokens", "lora-rank-above-checkpoint",
        "empty-arena-explanation", "arena-row-without-explanation",
        "arena-row-without-item-id", "arena-item-without-item-id",
        "qa-row-without-answer", "config-not-object", "qa-line-not-json",
        "arena-item-line-not-json", "arena-model-line-not-json",
        "generations-line-not-json", "generations-row-not-object",
        "split-line-not-json", "split-row-without-answer", "chunk-row-without-tokens",
        "qa-answer-not-an-option", "qa-difficulty-not-a-number",
        "qa-rationale-not-a-string", "qa-question-not-a-string",
        "qa-options-not-strings", "split-rationale-not-a-string",
        "score-with-only-the-judge", "grpo-judge-url-not-a-spec",
        "grpo-encoder-url-not-http", "score-encoder-url-not-http",
        "arena-item-answer-not-a-string", "arena-item-answer-null",
        "arena-item-question-not-a-string", "arena-model-answer-not-a-string",
        "arena-model-explanation-not-a-string"])
def test_bad_input_exit_2_naming_it(tmp_path, capsys, overrides, commands, names):
    synth_inputs(tmp_path)
    cfg = write_config(tmp_path, **overrides(tmp_path))
    *before, last = commands
    for command in before:
        assert run(command, tmp_path, cfg) == 0
    capsys.readouterr()
    assert run(last, tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err, err


class TestFlagsAreConfig:
    """A flag's value lands in the config, so the echo reproduces the run."""

    @pytest.fixture()
    def prepared(self, tmp_path):
        synth_inputs(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["prepare", "--config", str(cfg)]) == 0
        return cfg, tmp_path / "out"

    def test_cpt_optimizer_flag_reruns_from_echo(self, prepared, tmp_path):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg),
                     "--optimizer", "muon"]) == 0
        echo = out / "config_echo.json"
        assert json.loads(echo.read_text())["cpt"]["optimizer"] == "muon"
        fresh = tmp_path / "fresh"
        assert main(["prepare", "--config", str(echo), "--out", str(fresh)]) == 0
        assert main(["train", "cpt", "--config", str(echo), "--out", str(fresh)]) == 0
        assert ((fresh / "cpt_muon" / "final.ckpt").read_bytes()
                == (out / "cpt_muon" / "final.ckpt").read_bytes())

    def test_sft_honours_optimizer_flag(self, prepared):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg)]) == 0
        assert main(["train", "sft", "--config", str(cfg)]) == 0
        adamw = (out / "sft" / "final.ckpt").read_bytes()
        assert main(["train", "sft", "--config", str(cfg),
                     "--optimizer", "muon"]) == 0
        assert json.loads((out / "config_echo.json").read_text())["sft"]["optimizer"] == "muon"
        assert (out / "sft" / "final.ckpt").read_bytes() != adamw

    def test_judges_flag_reruns_from_echo(self, tmp_path):
        cfg = write_config(tmp_path, arena=arena_inputs(tmp_path))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["arena", "--config", str(cfg),
                     "--judges", "mock:prefer-shorter"]) == 0
        echo = out / "config_echo.json"
        assert json.loads(echo.read_text())["arena"]["judges"] == ["mock:prefer-shorter"]
        assert main(["arena", "--config", str(echo), "--out", str(fresh)]) == 0
        for name in ("ratings.csv", "aggregate.csv"):
            assert (fresh / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["train", "grpo", "--optimizer", "muon"],
        ["train", "sft", "--optimizer", "both"],
        ["arena", "--judges", "mock:nope"],
        ["arena", "--judges", "mock:prefer-longer, carrier-pigeon:x"],
    ])
    def test_bad_flag_exit_2_before_any_output(self, tmp_path, argv):
        cfg = write_config(tmp_path, arena=arena_inputs(tmp_path))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert not (tmp_path / "out" / "config_echo.json").exists()


# option dests that are command inputs, not settings; serve loads no config
COMMAND_INPUTS = {"command", "log_level", "config", "stage", "generations",
                  "chars", "items"}
SERVE_INPUTS = {"kind", "mode", "port", "fail_status", "dim"}


def test_every_option_is_a_config_override_or_a_command_input():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    defaults = load_config(None)
    for name, p in [("semrank", parser), *commands.items()]:
        allowed = COMMAND_INPUTS | (SERVE_INPUTS if name == "serve" else set())
        for action in p._actions:
            dest = action.dest
            section, _, leaf = dest.partition(".")
            is_key = (leaf in defaults[section]
                      if leaf and isinstance(defaults.get(section), dict)
                      else dest in ("seed", "out_dir"))
            assert dest == "help" or is_key or dest == "optimizer" or dest in allowed, \
                f"{name} option {action.option_strings or dest} bypasses the config"


class TestProvider:
    def test_config_url_keeps_env_token(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_EMBED_URL", "http://127.0.0.1:9/env")
        monkeypatch.setenv("SEMRANK_EMBED_TOKEN", "secret")
        cfg = load_config(str(write_config(
            tmp_path, embedder={"kind": "remote",
                                "base_url": "http://127.0.0.1:9/config"})))
        provider = _provider(cfg)
        assert isinstance(provider, RemoteEncoder)
        assert provider.cfg.base_url == "http://127.0.0.1:9/config"
        assert provider.cfg.auth_token == "secret"


def test_encoder_url_from_env_must_be_http(monkeypatch):
    monkeypatch.setenv("SEMRANK_EMBED_URL", "ftp://127.0.0.1:9")
    with pytest.raises(ConfigError, match="embedder.base_url.*ftp://127.0.0.1:9"):
        _provider(load_config(None, {"embedder.kind": "remote"}))


class TestJudgeEndpoint:
    URL = "http://127.0.0.1:9/v1/chat/completions"

    def test_env_model_applies_to_default_config(self, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_MODEL", "big")
        assert _judge(load_config(None), self.URL).cfg.model == "big"

    def test_config_model_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_MODEL", "big")
        cfg = load_config(str(write_config(
            tmp_path, judge={"url": self.URL, "model": "small"})))
        assert _judge(cfg).cfg.model == "small"

    def test_no_model_anywhere_takes_dataclass_default(self, monkeypatch):
        monkeypatch.delenv("SEMRANK_JUDGE_MODEL", raising=False)
        assert _judge(load_config(None), self.URL).cfg.model == "judge"

    def test_env_url_applies_when_config_sets_none(self, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_URL", self.URL)
        assert _judge(load_config(None)).cfg.url == self.URL


class TestJudgeToken:
    """Every HTTP judge the CLI builds sends SEMRANK_JUDGE_TOKEN as a bearer
    token."""

    def test_grpo_judge_sends_the_token(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_TOKEN", "segreto")
        synth_inputs(tmp_path)
        with StubServer("judge", StubBehavior(mode="fixed-score:5")) as stub:
            cfg = write_config(tmp_path, grpo={"rewards": ["semantic", "judge"]},
                               judge={"url": stub.judge_url})
            for command in ("prepare", "train cpt", "train sft", "train grpo"):
                assert run(command, tmp_path, cfg) == 0
        assert stub.stats["requests"] > 0
        assert set(stub.stats["auth_headers"]) == {"Bearer segreto"}

    def test_arena_url_judge_sends_the_token(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_TOKEN", "segreto")
        with StubServer("judge", StubBehavior(mode="prefer-longer")) as stub:
            cfg = write_config(tmp_path, arena={**arena_inputs(tmp_path),
                                                "judges": [stub.judge_url]})
            assert main(["arena", "--config", str(cfg)]) == 0
        assert stub.stats["requests"] > 0
        assert set(stub.stats["auth_headers"]) == {"Bearer segreto"}


class TestServe:
    @pytest.mark.parametrize("kind,mode", [
        ("judge", "toy-embed"),
        ("judge", "fixed-score:x"),
        ("judge", "fixed-score:11"),
        ("embed", "prefer-longer"),
    ])
    def test_mode_the_kind_does_not_serve_exit_2(self, capsys, kind, mode):
        assert main(["serve", kind, "--mode", mode, "--port", "0"]) == 2
        assert mode in capsys.readouterr().err

    def test_embedding_dimension_embed_toy_rejects_exit_2(self):
        # through serve_stub: were the check missing, main would serve forever
        args = build_parser().parse_args(["serve", "embed", "--dim", "4", "--port", "0"])
        with pytest.raises(ConfigError, match="dimension must be >= 8, got 4"):
            serve_stub(args)

    def test_default_judge_mode_answers_a_scoring_prompt(self):
        args = build_parser().parse_args(["serve", "judge", "--port", "0"])
        prompt = build_score_prompt(candidate="la cellula vive",
                                    reference="la cellula vive")
        with serve_stub(args) as stub:
            reply = post_json(stub.judge_url, {
                "model": "stub", "messages": [{"role": "user", "content": prompt}]},
                timeout=10)
        assert reply["choices"][0]["message"]["content"] == "10"


def readme_columns(label: str) -> list[str]:
    """The backticked column list that follows label in README's File
    formats section."""
    section = README.read_text(encoding="utf-8").split("## File formats")[1]
    after = section.split("\n## ")[0].split(label, 1)[1]
    listed = next(span for span in after.split("`")[1::2] if "," in span)
    return [name.strip() for name in listed.split(",")]


@pytest.mark.parametrize("label,columns", [
    ("GRPO metrics CSV", METRICS_COLUMNS),
    ("Rewards CSV", SCORE_COLUMNS),
    ("`ratings.csv` =", RATINGS_COLUMNS),
    ("`aggregate.csv` =", AGGREGATE_COLUMNS),
    ("CPT/SFT metrics are", STAGE_COLUMNS),
])
def test_readme_lists_the_written_columns(label, columns):
    assert readme_columns(label) == list(columns)
