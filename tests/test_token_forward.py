"""The stacked token kernel against the one-sequence functions it serves,
and the GRPO pass built on it against a direct per-sample computation."""

import tracemalloc

import numpy as np
import pytest

from semrank import policy, trainer
from semrank.optim import AdamWState
from semrank.rewards import RewardBreakdown
from semrank.tokenizers import EOS_ID
from semrank.trainer import GrpoConfig, GrpoItem, TrainState, k3_kl
from test_acceptance import finite_difference_grads


def random_params(seed, lora):
    params = policy.init_params(vocab_size=11, context_size=4, embed_dim=5,
                                hidden_dim=7, seed=seed, init_scale=0.5)
    if lora:
        params = policy.attach_lora(
            params, policy.LoraConfig(rank=2, alpha=3.0), seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        for _, b in params.lora.values():
            b += rng.normal(0, 0.3, b.shape)
    return params


def random_pairs(rng, n=5):
    """Prompts from empty to longer than the context, completions of 1-9."""
    return [(rng.integers(0, 11, size=int(rng.integers(0, 7))).tolist(),
             rng.integers(0, 11, size=int(rng.integers(1, 10))).tolist())
            for _ in range(n)]


def max_rel_err(actual, expected):
    return max(np.abs(actual[k] - expected[k]).max() / np.abs(expected[k]).max()
               for k in expected)


class TestTokenForward:
    def test_windows_are_left_padded_contexts(self):
        params = random_params(0, lora=False)
        windows, targets = policy.stack_windows(params, [([3], [4, 5]), ([], [6])])
        pad = policy.PAD_ID
        assert windows.tolist() == [[pad, pad, pad, 3], [pad, pad, 3, 4],
                                    [pad, pad, pad, pad]]
        assert targets.tolist() == [4, 5, 6]

    @pytest.mark.parametrize("lora", [False, True])
    def test_stack_matches_per_sequence_calls(self, lora):
        rng = np.random.default_rng(7)
        for trial in range(4):
            params = random_params(trial, lora)
            pairs = random_pairs(rng)
            windows, targets = policy.stack_windows(params, pairs)
            g = rng.normal(size=len(targets))
            logp, grad_of = policy.token_forward(params, windows, targets,
                                                 temperature=0.7)

            expected_logp = np.concatenate([
                policy.logprob_sequence(params, p, c, temperature=0.7)
                for p, c in pairs])
            np.testing.assert_allclose(logp, expected_logp, rtol=1e-12, atol=0)

            expected = {name: np.zeros_like(t)
                        for name, t in params.trainable().items()}
            start = 0
            for p, c in pairs:
                part = g[start:start + len(c)]
                start += len(c)
                for name, value in policy.backward(params, p, c, part,
                                                   temperature=0.7).items():
                    expected[name] += value
            grads = grad_of(g)
            assert set(grads) == set(expected)
            assert max_rel_err(grads, expected) < 1e-12

    def test_effective_called_once_for_w2_only(self, monkeypatch):
        # the factored first layer never forms W1 + s * B1 @ A1
        params = random_params(3, lora=True)
        windows, targets = policy.stack_windows(params, random_pairs(
            np.random.default_rng(3)))
        calls = []
        original = policy.PolicyParams.effective
        monkeypatch.setattr(policy.PolicyParams, "effective",
                            lambda self, name: calls.append(name) or original(self, name))
        _, grad_of = policy.token_forward(params, windows, targets)
        grad_of(np.ones(len(targets)))
        assert calls == ["W2"]

    @pytest.mark.parametrize("host", ["W1", "W2"])
    def test_single_host_adapter(self, host):
        # the W1+W2 adapter with only `host`'s B moved off its zero init:
        # the other host's A gets an exactly zero gradient, and every other
        # adapter tensor matches finite differences
        rng = np.random.default_rng(11)
        params = random_params(4, lora=True)
        assert list(params.lora) == list(policy.LORA_TARGETS)
        other = next(h for h in policy.LORA_TARGETS if h != host)
        params.lora[other][1][:] = 0.0
        still = f"lora.{other}.A"
        pairs = random_pairs(rng)
        windows, targets = policy.stack_windows(params, pairs)
        g = rng.normal(size=len(targets))
        grads = policy.token_forward(params, windows, targets, temperature=0.7)[1](g)
        assert set(grads) == set(params.trainable())
        assert not grads.pop(still).any()

        expected = {name: np.zeros_like(t) for name, t in params.trainable().items()}
        splits = np.cumsum([len(c) for _, c in pairs])[:-1]
        for (p, c), part in zip(pairs, np.split(g, splits)):
            analytic = policy.backward(params, p, c, part, temperature=0.7)
            numeric = finite_difference_grads(params, p, c, part, 0.7)
            assert not analytic.pop(still).any()
            assert not numeric.pop(still).any()
            assert max_rel_err(analytic, numeric) < 1e-7
            for name, value in analytic.items():
                expected[name] += value
        del expected[still]
        assert max_rel_err(grads, expected) < 1e-12

    def test_sampler_logprobs_match_kernel_on_adapted_policy(self):
        # rho = 1 on-policy: generate's recorded log-probs are the kernel's,
        # on the GRPO desk shape with B != 0 and prompts longer than C = 40
        params = policy.attach_lora(policy.init_params(seed=5, context_size=40),
                                    policy.LoraConfig(rank=16, alpha=32.0), seed=6)
        rng = np.random.default_rng(7)
        for _, b in params.lora.values():
            b += rng.normal(0, 0.05, b.shape)
        prompts = [rng.integers(2, 64, size=int(rng.integers(41, 60))).tolist()
                   for _ in range(24)]
        seqs = policy.generate(params, prompts, 0.7, max_len=60, seeds=range(24))
        windows, targets = policy.stack_windows(
            params, [(p, s.tokens) for p, s in zip(prompts, seqs)])
        logp, _ = policy.token_forward(params, windows, targets, temperature=0.7)
        np.testing.assert_allclose(logp, np.concatenate([s.logprobs for s in seqs]),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lora", [False, True])
    def test_memory_budget_on_a_grpo_step_stack(self, lora):
        # numpy reports its buffers to tracemalloc; a gathered (N, C*d)
        # matrix alone (17.8 MB) would break the 8 MB budget
        N = 1740
        params = policy.init_params(seed=0, context_size=40)
        if lora:
            params = policy.attach_lora(params, policy.LoraConfig(rank=16, alpha=32.0))
        rng = np.random.default_rng(0)
        windows = rng.integers(0, 64, (N, 40))
        targets = rng.integers(0, 64, N)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _, grad_of = policy.token_forward(params, windows, targets, temperature=0.7)
            grad_of(np.ones(N))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_input_validation(self):
        params = random_params(0, lora=False)
        windows, targets = policy.stack_windows(params, [([1], [2, 3])])
        with pytest.raises(ValueError):
            policy.token_forward(params, windows[:, 1:], targets)
        with pytest.raises(ValueError):
            policy.token_forward(params, windows, targets, temperature=0.0)
        with pytest.raises(ValueError):
            policy.token_forward(params, windows, targets)[1](np.zeros(3))
        with pytest.raises(ValueError):
            policy.stack_windows(params, [([1], [])])
        with pytest.raises(ValueError):
            policy.stack_windows(params, [([1], [11])])


def direct_grpo_pass(state, groups, cfg):
    """The GRPO objective summed one completion at a time through
    logprob_sequence and backward: (loss, mean_kl, max term ratio, grads)."""
    params = state.params
    grads = {name: np.zeros_like(t) for name, t in params.trainable().items()}
    n = cfg.group_size * len(groups)
    loss, kls, ratio = 0.0, [], 0.0
    for grp in groups:
        for seq, adv in zip(grp.samples, grp.advantages):
            new = policy.logprob_sequence(params, grp.prompt, seq.tokens,
                                          temperature=cfg.temperature)
            ref = policy.logprob_sequence(state.ref_params, grp.prompt, seq.tokens,
                                          temperature=cfg.temperature)
            rho = np.exp(new - np.asarray(seq.logprobs))
            unclipped = rho * adv
            clipped = np.clip(rho, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv
            surrogate = np.minimum(unclipped, clipped)
            kl = k3_kl(ref, new)
            loss += float(np.mean(-surrogate + cfg.kl_coeff * kl)) / n
            kls.extend(kl.tolist())
            if adv != 0.0:
                ratio = max(ratio, float(np.max(np.abs(surrogate)))
                            / ((1 + cfg.clip_eps) * abs(adv)))
            g = (-rho * adv * (unclipped <= clipped)
                 + cfg.kl_coeff * (1.0 - np.exp(ref - new))) / (len(seq.tokens) * n)
            for name, value in policy.backward(params, grp.prompt, seq.tokens, g,
                                               temperature=cfg.temperature).items():
                grads[name] += value
    return loss, float(np.mean(kls)), ratio, grads


class TestGrpoPass:
    def test_matches_direct_per_sample_computation(self, monkeypatch):
        params = random_params(5, lora=True)
        state = TrainState(params=params, ref_params=policy.detach_lora(params),
                           optimizer=AdamWState(lr=0.05))
        cfg = GrpoConfig(group_size=4, clip_eps=0.1, kl_coeff=0.3,
                         temperature=0.8, prompts_per_step=3, max_new_tokens=7,
                         lr=0.05, seed=9)

        def score(item, text):
            value = len(set(text)) / 7.0
            return RewardBreakdown(format=value, total=value)

        def decode(tokens):
            return "".join(chr(97 + t) for t in tokens if t != EOS_ID)

        items = [GrpoItem(str(i), (1 + i, 2, 3 + i)) for i in range(3)]
        groups = trainer._collect_rollouts(state, items, score, decode, cfg,
                                           step_seed=0)
        # one pass moves the policy off the sampling snapshot, so the second
        # pass sees rho != 1 and clipping on some tokens
        trainer._grpo_pass(state, groups, cfg)

        captured = {}
        original = trainer.optimizer_step
        monkeypatch.setattr(trainer, "optimizer_step", lambda opt, params, grads, lr:
                            captured.update(grads) or original(opt, params, grads, lr))
        loss, mean_kl, ratio, grads = direct_grpo_pass(state, groups, cfg)
        metrics = trainer._grpo_pass(state, groups, cfg)

        assert ratio > 1.0 / (1 + cfg.clip_eps)  # some term is off-policy
        assert metrics["loss"] == pytest.approx(loss, rel=1e-12)
        assert metrics["mean_kl"] == pytest.approx(mean_kl, rel=1e-12)
        assert metrics["max_policy_term_ratio"] == pytest.approx(ratio, rel=1e-12)
        assert max_rel_err(captured, grads) < 1e-12
