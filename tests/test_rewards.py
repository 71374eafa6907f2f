import logging
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semrank import embedder, judge, rewards
from semrank.embedder import (EncoderEndpointConfig, RemoteEncoder, ToyEmbedder,
                              cosine, embed_toy)
from semrank.judge import HttpJudgeClient, JudgeEndpointConfig, MockJudge
from semrank.mockserve import StubBehavior, StubServer
from semrank.rewards import (COMPONENT_NAMES, RewardBreakdown, RewardConfig,
                             RewardContext,
                             answer_reward, explanation_text, format_reward,
                             judge_reward, rouge_l_f1, score_generation,
                             semantic_reward, think_reward)
from semrank.text_protocol import parse_tagged


def unit(x, y):
    v = np.array([x, y, 0.0])
    return v / np.linalg.norm(v)


def ctx_with(v_gt, v_ref, answer="b", explanation="spiegazione di riferimento"):
    return RewardContext(v_gt=v_gt, v_ref=v_ref, gt_answer=answer,
                         gt_explanation=explanation)


# --- oracles -----------------------------------------------------------------

def lcs_dp_full_matrix(a, b):
    """Independent LCS oracle: full O(nm) table (the implementation uses a
    rolling single row)."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


def lcs_brute_force(a, b):
    """Exponential oracle: longest b-subsequence that is also an
    a-subsequence, by enumeration. Tiny inputs only."""
    def is_subseq(s, t):
        it = iter(t)
        return all(c in it for c in s)
    best = 0
    for length in range(len(b), 0, -1):
        for combo in combinations(b, length):
            if is_subseq(combo, a):
                return length
    return best


def rouge_f1_oracle(gen_tokens, ref_tokens, lcs_fn):
    lcs = lcs_fn(gen_tokens, ref_tokens)
    if not gen_tokens or not ref_tokens or lcs == 0:
        return 0.0
    p = lcs / len(gen_tokens)
    r = lcs / len(ref_tokens)
    return 2 * p * r / (p + r)


# --- semantic ----------------------------------------------------------------

class TestSemanticReward:
    def test_adjusted_cosine_direct_arithmetic(self):
        # cos(gen, gt) = 1.0, cos(gen, ref) = 0.8 -> 4 * 0.2 = 0.8
        gen = unit(1, 0)
        ctx = ctx_with(v_gt=unit(1, 0), v_ref=unit(0.8, 0.6))
        assert semantic_reward(gen, ctx) == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_equality_is_zero(self):
        v = unit(0.3, 0.7)
        assert semantic_reward(v, ctx_with(v, v)) == 0.0

    def test_floor_applied_iff_configured(self):
        # cos(gen, gt) = 0.7, cos(gen, ref) = 0.8: raw = 4 * (-0.1) = -0.4
        gen = unit(1, 0)
        ctx = ctx_with(v_gt=unit(0.7, np.sqrt(1 - 0.49)), v_ref=unit(0.8, 0.6))
        raw_cfg = RewardConfig(clamp_floor=False)
        raw = semantic_reward(gen, ctx, raw_cfg)
        assert raw == pytest.approx(
            4 * (cosine(gen, ctx.v_gt) - cosine(gen, ctx.v_ref)), abs=1e-12)
        assert raw == pytest.approx(-0.4, abs=1e-9)
        assert semantic_reward(gen, ctx, RewardConfig(clamp_floor=True)) == 0.0

    def test_scale_invariance_in_generation(self):
        rng = np.random.default_rng(5)
        gen = rng.normal(size=16)
        ctx = ctx_with(rng.normal(size=16), rng.normal(size=16))
        cfg = RewardConfig(clamp_floor=False)
        assert semantic_reward(gen, ctx, cfg) == pytest.approx(
            semantic_reward(7.3 * gen, ctx, cfg), abs=1e-9)

    def test_monotone_in_gt_cosine(self):
        ref = unit(0, 1)
        cfg = RewardConfig(clamp_floor=False)
        values = []
        for angle in np.linspace(0.1, 1.4, 8):
            gen = unit(np.cos(angle), np.sin(angle))
            values.append(semantic_reward(gen, ctx_with(unit(1, 0), ref), cfg))
        # gen rotating away from gt strictly decreases the reward
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_anomaly_logged_not_clipped(self, caplog):
        gen = unit(1, 0)
        ctx = ctx_with(v_gt=unit(1, 0), v_ref=unit(-1, 0.01))
        with caplog.at_level(logging.WARNING, logger="semrank.rewards"):
            value = semantic_reward(gen, ctx)
        assert value > 1.5
        assert any("semantic reward" in r.message for r in caplog.records)

    def test_oracle_fidelity_on_toy_triples(self):
        provider = ToyEmbedder(64)
        rng = np.random.default_rng(11)
        words = ["cellula", "membrana", "energia", "enzima", "acido", "forza"]
        cfg = RewardConfig(clamp_floor=False)
        for _ in range(200):
            texts = [" ".join(rng.choice(words, size=rng.integers(2, 6)))
                     for _ in range(3)]
            v_gen, v_gt, v_ref = provider(texts)
            got = semantic_reward(v_gen, ctx_with(v_gt, v_ref), cfg)
            # independent plain-python dot products
            def dot(u, v):
                return sum(float(a) * float(b) for a, b in zip(u, v))
            def norm(u):
                return dot(u, u) ** 0.5
            want = 4.0 * (dot(v_gen, v_gt) / (norm(v_gen) * norm(v_gt))
                          - dot(v_gen, v_ref) / (norm(v_gen) * norm(v_ref)))
            assert got == pytest.approx(want, abs=1e-9)


# --- ROUGE-L -----------------------------------------------------------------

class TestRougeL:
    def test_identical_texts(self):
        assert rouge_l_f1("la membrana cellulare", "la membrana cellulare") == 1.0

    def test_disjoint_vocabulary(self):
        assert rouge_l_f1("x y", "a b") == 0.0

    def test_spec_example_against_both_oracles(self):
        gen, ref = "a b c d", "a c d e"
        assert lcs_brute_force(gen.split(), ref.split()) == 3
        assert lcs_dp_full_matrix(gen.split(), ref.split()) == 3
        assert rouge_l_f1(gen, ref) == pytest.approx(0.75)

    def test_empty_sides(self):
        assert rouge_l_f1("", "qualcosa") == 0.0
        assert rouge_l_f1("qualcosa", "") == 0.0
        assert rouge_l_f1("", "") == 0.0

    def test_tokenization_lowercases_and_strips_punctuation(self):
        assert rouge_l_f1("La, Cellula!", "la cellula") == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100)
    def test_matches_dp_oracle_on_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        vocab = list("abcdefg")
        gen = " ".join(rng.choice(vocab, size=rng.integers(0, 15)))
        ref = " ".join(rng.choice(vocab, size=rng.integers(0, 15)))
        want = rouge_f1_oracle(gen.split(), ref.split(), lcs_dp_full_matrix)
        assert rouge_l_f1(gen, ref) == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50)
    def test_symmetry_under_swap(self, seed):
        rng = np.random.default_rng(seed)
        vocab = list("abcd")
        a = " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
        b = " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
        assert rouge_l_f1(a, b) == pytest.approx(rouge_l_f1(b, a))

    def test_adding_tokens_never_increases_recall(self):
        ref = "a b c d e"
        gen = "a b c"
        lcs_short = lcs_dp_full_matrix(gen.split(), ref.split())
        for extra in ("x", "x y", "x y z"):
            longer = f"{gen} {extra}"
            lcs_long = lcs_dp_full_matrix(longer.split(), ref.split())
            assert lcs_long / 5 >= lcs_short / 5  # recall can only grow via LCS
            assert lcs_long >= lcs_short


# --- binary components -------------------------------------------------------

class TestBinaryComponents:
    def test_answer_match(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1), answer="B")
        out = parse_tagged("<spiegazione>e</spiegazione><risposta>B</risposta>")
        assert answer_reward(out, ctx) == 1.0

    def test_answer_mismatch(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1), answer="B")
        out = parse_tagged("<spiegazione>e</spiegazione><risposta>C</risposta>")
        assert answer_reward(out, ctx) == 0.0

    def test_answer_normalized_comparison(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1), answer="B")
        out = parse_tagged("<spiegazione>e</spiegazione><risposta> b </risposta>")
        assert answer_reward(out, ctx) == 1.0

    def test_answer_absent(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1), answer="B")
        assert answer_reward(parse_tagged("niente"), ctx) == 0.0

    def test_format_cases(self):
        good = parse_tagged("<spiegazione>e</spiegazione><risposta>b</risposta>")
        missing = parse_tagged("<spiegazione>e</spiegazione>")
        duplicated = parse_tagged("<spiegazione>e</spiegazione>"
                                  "<spiegazione>e2</spiegazione>"
                                  "<risposta>b</risposta>")
        assert format_reward(good) == 1.0
        assert format_reward(missing) == 0.0
        assert format_reward(duplicated) == 0.0

    def test_think_cases(self):
        assert think_reward(parse_tagged("<think>passo 1</think>")) == 1.0
        assert think_reward(parse_tagged("nessun tag")) == 0.0
        assert think_reward(parse_tagged("<think>   </think>")) == 0.0


# --- judge -------------------------------------------------------------------

class TestJudgeReward:
    def test_scale_contract(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1))
        assert judge_reward("x", ctx, MockJudge("fixed-score:10")) == 1.0
        assert judge_reward("x", ctx, MockJudge("fixed-score:0")) == 0.0
        assert judge_reward("x", ctx, MockJudge("fixed-score:7")) == 0.7

    def test_parse_rule_extracts_last_integer(self):
        class Wordy:
            name = "wordy"
            def complete(self, prompt):
                return "considerato tutto, score: 7"
        ctx = ctx_with(unit(1, 0), unit(0, 1))
        assert judge_reward("x", ctx, Wordy()) == 0.7

    def test_unparseable_retried_once_then_zero(self, caplog):
        calls = []
        class Garbage:
            name = "garbage"
            def complete(self, prompt):
                calls.append(prompt)
                return "boh"
        ctx = ctx_with(unit(1, 0), unit(0, 1))
        with caplog.at_level(logging.WARNING, logger="semrank.rewards"):
            assert judge_reward("x", ctx, Garbage()) == 0.0
            assert judge_reward("x", ctx, MockJudge("garbage")) == 0.0
        assert len(calls) == 2


# --- total -------------------------------------------------------------------

class TestTotalReward:
    def test_summation_example(self):
        gen_text = "<think>t</think><spiegazione>e</spiegazione><risposta>b</risposta>"
        gen = unit(1, 0)
        ctx = ctx_with(v_gt=unit(1, 0), v_ref=unit(0.8, 0.6), answer="b")
        breakdown = score_generation(gen_text, ctx, lambda texts: [gen])
        assert breakdown.semantic == pytest.approx(0.8)
        assert breakdown.answer == 1.0
        assert breakdown.format == 1.0
        assert breakdown.think == 1.0
        assert breakdown.total == pytest.approx(3.8)

    def test_all_zero(self):
        ctx = ctx_with(unit(1, 0), unit(1, 0), answer="b")
        breakdown = score_generation("", ctx, lambda texts: [unit(0, 1)])
        assert breakdown.total == 0.0

    def test_five_component_sum(self):
        gen_text = "<think>t</think><spiegazione>a c d</spiegazione><risposta>b</risposta>"
        cfg = RewardConfig(enabled=frozenset(
            {"semantic", "rouge", "answer", "format", "think"}))
        gen = unit(1, 0)
        ctx = ctx_with(v_gt=unit(1, 0), v_ref=unit(0.8, 0.6), answer="b",
                       explanation="a b c d")
        breakdown = score_generation(gen_text, ctx, lambda texts: [gen], cfg)
        expected_rouge = rouge_f1_oracle(["a", "c", "d"], ["a", "b", "c", "d"],
                                         lcs_dp_full_matrix)
        assert breakdown.rouge == pytest.approx(expected_rouge)
        want = 0.8 + expected_rouge + 1 + 1 + 1
        assert breakdown.total == pytest.approx(want)

    def test_disabled_components_absent_not_zero(self):
        cfg = RewardConfig(enabled=frozenset({"format", "think"}))
        gen_text = "<spiegazione>e</spiegazione><risposta>b</risposta>"
        ctx = ctx_with(unit(1, 0), unit(0, 1), answer="b")
        breakdown = score_generation(gen_text, ctx, None, cfg)
        assert breakdown.semantic is None
        assert breakdown.answer is None
        assert breakdown.components() == {"format": 1.0, "think": 0.0}
        assert breakdown.total == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200)
    def test_total_is_exact_sum_of_present_components(self, seed):
        rng = np.random.default_rng(seed)
        names = ["semantic", "rouge", "judge", "answer", "format", "think"]
        present = {n: float(rng.uniform(0, 1)) for n in names
                   if rng.random() < 0.7}
        breakdown = RewardBreakdown(total=sum(present.values()), **present)
        assert breakdown.total == sum(breakdown.components().values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(c=0)
        with pytest.raises(ValueError):
            RewardConfig(enabled=frozenset())
        with pytest.raises(ValueError):
            RewardConfig(enabled=frozenset({"nope"}))

    def test_explanation_text_selection(self):
        valid = "<spiegazione>solo questa</spiegazione><risposta>b</risposta>"
        assert explanation_text(parse_tagged(valid), valid) == "solo questa"
        broken = "<spiegazione>mezza"
        assert explanation_text(parse_tagged(broken), broken) == broken

    def test_score_generation_end_to_end(self):
        provider = ToyEmbedder(64)
        explanation = "la membrana regola il trasporto"
        ctx = RewardContext(v_gt=provider([explanation])[0],
                            v_ref=embed_toy("testo medio qualunque", 64),
                            gt_answer="b", gt_explanation=explanation)
        text = (f"<think>ok</think><spiegazione>{explanation}</spiegazione>"
                f"<risposta>b</risposta>")
        breakdown = score_generation(text, ctx, provider)
        assert breakdown.answer == 1.0 and breakdown.format == 1.0
        assert breakdown.semantic == pytest.approx(
            4 * (1 - cosine(provider([explanation])[0], ctx.v_ref)), abs=1e-9)


class TestOneScoringPass:
    """score_generation reaches each layer once per scored text, through the
    module attributes a traced run wraps."""

    def test_each_layer_called_once_with_all_six_components(self, monkeypatch):
        calls = Counter()
        for owner, name in ((rewards, "parse_tagged"), (rewards, "rouge_l_f1"),
                            (rewards, "judge_reward"), (embedder, "post_json"),
                            (judge, "post_json")):
            def counted(*args, _key=f"{owner.__name__}.{name}",
                        _original=getattr(owner, name), **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        explanation = "la membrana regola il trasporto"
        ctx = RewardContext(v_gt=embed_toy(explanation, 16),
                            v_ref=embed_toy("testo medio qualunque", 16),
                            gt_answer="b", gt_explanation=explanation)
        text = (f"<think>ok</think><spiegazione>{explanation}</spiegazione>"
                f"<risposta>b</risposta>")
        cfg = RewardConfig(enabled=frozenset(COMPONENT_NAMES))
        with StubServer("embed", StubBehavior(mode="toy-embed", dim=16)) as embed_stub, \
                StubServer("judge", StubBehavior(mode="fixed-score:8")) as judge_stub:
            provider = RemoteEncoder(EncoderEndpointConfig(base_url=embed_stub.base_url))
            client = HttpJudgeClient(JudgeEndpointConfig(url=judge_stub.judge_url))
            breakdown = score_generation(text, ctx, provider, cfg, client)
        assert set(breakdown.components()) == set(COMPONENT_NAMES)
        assert breakdown.judge == 0.8 and breakdown.rouge == 1.0
        assert calls == {f"semrank.{name}": 1 for name in (
            "rewards.parse_tagged", "rewards.rouge_l_f1", "rewards.judge_reward",
            "embedder.post_json", "judge.post_json")}
        assert embed_stub.stats["requests"] == judge_stub.stats["requests"] == 1


class TestContextValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RewardContext(v_gt=np.ones(4), v_ref=np.ones(5),
                          gt_answer="a", gt_explanation="e")

    def test_semantic_requires_embedding(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1))
        gen_text = "<spiegazione>e</spiegazione><risposta>b</risposta>"
        with pytest.raises(ValueError):
            score_generation(gen_text, ctx, None)

    def test_judge_requires_client(self):
        ctx = ctx_with(unit(1, 0), unit(0, 1))
        gen_text = "<spiegazione>e</spiegazione><risposta>b</risposta>"
        cfg = RewardConfig(enabled=frozenset({"judge"}))
        with pytest.raises(ValueError):
            score_generation(gen_text, ctx, None, cfg)
