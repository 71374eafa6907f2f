import json
import os
from pathlib import Path

import pytest

from semrank.cli import _provider, judge_endpoint, load_config, main
from semrank.dataprep import read_jsonl
from semrank.embedder import RemoteEncoder

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
        rejected = sum(1 for _ in open(out / "rejections.csv")) - 1
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

    def test_optimizer_both_emits_ablation_csv(self, prepared):
        cfg, out = prepared
        assert main(["train", "cpt", "--config", str(cfg),
                     "--optimizer", "both"]) == 0
        assert (out / "cpt_adamw" / "metrics.csv").exists()
        assert (out / "cpt_muon" / "metrics.csv").exists()
        header = (out / "cpt_ablation.csv").read_text().splitlines()[0]
        assert header == "step,loss_adamw,loss_muon"

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

    def test_readme_quick_start_config_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        quick_start = text.split("<<'JSON'\n")[1].split("\nJSON\n")[0]
        path = tmp_path / "config.json"
        path.write_text(quick_start)
        cfg = load_config(str(path))
        assert cfg["grpo"]["max_new_tokens"] == 96 and cfg["seed"] == 7


class TestProvider:
    def test_config_url_keeps_env_token(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_EMBED_URL", "http://127.0.0.1:9/env")
        monkeypatch.setenv("SEMRANK_EMBED_TOKEN", "secret")
        cfg = load_config(str(write_config(
            tmp_path, embedder={"base_url": "http://127.0.0.1:9/config"})))
        provider = _provider(cfg, "remote")
        assert isinstance(provider, RemoteEncoder)
        assert provider.cfg.base_url == "http://127.0.0.1:9/config"
        assert provider.cfg.auth_token == "secret"


class TestJudgeEndpoint:
    URL = "http://127.0.0.1:9/v1/chat/completions"

    def test_env_model_applies_to_default_config(self, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_MODEL", "big")
        assert judge_endpoint(load_config(None), url=self.URL).model == "big"

    def test_config_model_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_MODEL", "big")
        cfg = load_config(str(write_config(
            tmp_path, judge={"url": self.URL, "model": "small"})))
        assert judge_endpoint(cfg).model == "small"

    def test_no_model_anywhere_takes_dataclass_default(self, monkeypatch):
        monkeypatch.delenv("SEMRANK_JUDGE_MODEL", raising=False)
        assert judge_endpoint(load_config(None), url=self.URL).model == "judge"

    def test_env_url_applies_when_config_sets_none(self, monkeypatch):
        monkeypatch.setenv("SEMRANK_JUDGE_URL", self.URL)
        assert judge_endpoint(load_config(None)).url == self.URL
