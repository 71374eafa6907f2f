import numpy as np
import pytest

from semrank import policy
from semrank.policy import (LoraConfig, SampledSequence, attach_lora, backward,
                            detach_lora, forward_logits, generate, greedy_decode,
                            init_params, load_checkpoint, logprob_sequence,
                            merge_lora, sample_sequence, save_checkpoint)
from semrank.errors import CheckpointError
from semrank.tokenizers import EOS_ID, PAD_ID


def tiny(seed=0, **kw):
    dims = dict(vocab_size=7, context_size=3, embed_dim=4, hidden_dim=5)
    dims.update(kw)
    return init_params(seed=seed, **dims)


def numeric_grad(params, prompt, completion, g, temperature=1.0, eps=1e-5):
    """Central finite differences of sum(g * logprob_sequence)."""
    def loss():
        return float(np.dot(g, logprob_sequence(params, prompt, completion,
                                                temperature=temperature)))
    grads = {}
    for name, arr in params.trainable().items():
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + eps
            up = loss()
            arr[idx] = saved - eps
            down = loss()
            arr[idx] = saved
            num[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads[name] = num
    return grads


def softmax_by_summation(logits):
    """Direct-summation softmax oracle (no log-sum-exp shortcut)."""
    exps = [float(np.exp(x)) for x in logits]
    total = sum(exps)
    return [e / total for e in exps]


class TestForward:
    def test_zero_params_give_uniform_logits(self):
        params = tiny()
        for name, t in params.base_tensors().items():
            t[...] = 0.0
        logits = forward_logits(params, [1, 2, 3])
        assert np.allclose(logits, 0.0)

    def test_zero_initialized_lora_is_identity(self):
        params = tiny(seed=3)
        adapted = attach_lora(params, LoraConfig(rank=2, alpha=4.0), seed=9)
        ctx = [4, 0, 6]
        assert np.array_equal(forward_logits(params, ctx),
                              forward_logits(adapted, ctx))

    def test_deterministic_across_calls(self):
        params = tiny(seed=11)
        a = forward_logits(params, [2, 2, 2])
        b = forward_logits(params, [2, 2, 2])
        assert np.array_equal(a, b)

    def test_out_of_range_token_rejected(self):
        with pytest.raises(ValueError):
            forward_logits(tiny(), [0, 1, 99])

    def test_wrong_context_length_rejected(self):
        with pytest.raises(ValueError):
            forward_logits(tiny(), [0, 1])


class TestLogprobSequence:
    def test_uniform_logits_give_log_v(self):
        params = tiny()
        for name, t in params.base_tensors().items():
            t[...] = 0.0
        lp = logprob_sequence(params, [1, 2], [3, 4, 5])
        assert np.allclose(lp, -np.log(7))

    def test_length_one_completions_normalize(self):
        params = tiny(seed=2)
        total = sum(np.exp(logprob_sequence(params, [1, 2], [v])[0])
                    for v in range(7))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_bruteforce_softmax_oracle(self):
        params = tiny(seed=5, vocab_size=5, context_size=2)
        prompt = [1, 3]
        completion = [0, 2, 4, 1]
        lp = logprob_sequence(params, prompt, completion)
        seq = prompt + list(completion)
        for t, tok in enumerate(completion):
            ctx = seq[len(prompt) + t - 2:len(prompt) + t]
            probs = softmax_by_summation(forward_logits(params, ctx))
            assert lp[t] == pytest.approx(np.log(probs[tok]), abs=1e-9)

    def test_left_padding_matches_forward(self):
        params = tiny(seed=8)
        lp = logprob_sequence(params, [], [4])
        probs = softmax_by_summation(forward_logits(params, [PAD_ID] * 3))
        assert lp[0] == pytest.approx(np.log(probs[4]), abs=1e-12)

    def test_empty_completion_rejected(self):
        with pytest.raises(ValueError):
            logprob_sequence(tiny(), [1], [])

    def test_temperature_changes_distribution(self):
        params = tiny(seed=4)
        hot = logprob_sequence(params, [1], [2], temperature=2.0)
        cold = logprob_sequence(params, [1], [2], temperature=0.5)
        assert hot[0] != cold[0]

    def test_softmax_sums_to_one_for_random_params(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            params = tiny(seed=int(rng.integers(1 << 30)))
            lp = logprob_sequence(params, [], list(range(7)))
            # per-position normalization over the vocab
            total = sum(np.exp(logprob_sequence(params, [], [v])[0])
                        for v in range(7))
            assert total == pytest.approx(1.0, abs=1e-9)
            assert np.all(lp <= 0)


class TestSampling:
    def test_greedy_limit_is_argmax(self):
        params = tiny(seed=6)
        seq = sample_sequence(params, [1, 2], temperature=1e-8, max_len=5,
                              stop_token=EOS_ID, rng_seed=0)
        ctx = [PAD_ID, 1, 2]
        expected = []
        for _ in range(5):
            tok = int(np.argmax(forward_logits(params, ctx)))
            expected.append(tok)
            if tok == EOS_ID:
                break
            ctx = ctx[1:] + [tok]
        assert list(seq.tokens) == expected

    def test_same_seed_identical(self):
        params = tiny(seed=6)
        a = sample_sequence(params, [1], temperature=0.9, max_len=8, rng_seed=42)
        b = sample_sequence(params, [1], temperature=0.9, max_len=8, rng_seed=42)
        assert a == b

    def test_nothing_follows_stop_token(self):
        params = tiny(seed=7)
        for seed in range(20):
            seq = sample_sequence(params, [1], temperature=1.5, max_len=30,
                                  stop_token=EOS_ID, rng_seed=seed)
            if EOS_ID in seq.tokens:
                assert seq.tokens.index(EOS_ID) == len(seq.tokens) - 1

    def test_logprobs_match_tempered_distribution(self):
        params = tiny(seed=9)
        temp = 0.7
        seq = sample_sequence(params, [2, 3], temperature=temp, max_len=6,
                              rng_seed=5)
        lp = logprob_sequence(params, [2, 3], list(seq.tokens), temperature=temp)
        assert np.allclose(lp, seq.logprobs, atol=1e-9)

    def test_single_step_frequencies_match_softmax(self):
        # statistical oracle on V=5: multinomial 3-sigma bounds, 100k draws
        params = tiny(seed=12, vocab_size=5, context_size=2)
        prompt = [1, 2]
        probs = softmax_by_summation(forward_logits(params, prompt))
        n = 100_000
        counts = np.zeros(5)
        # one RNG stream, many draws: equivalent to the per-call contract
        rng = np.random.default_rng(77)
        p = np.asarray(probs)
        draws = rng.choice(5, size=n, p=p / p.sum())
        for d in draws:
            counts[d] += 1
        for v in range(5):
            sigma = np.sqrt(n * probs[v] * (1 - probs[v]))
            assert abs(counts[v] - n * probs[v]) <= 3 * sigma + 1

    def test_logprobs_nonpositive(self):
        params = tiny(seed=13)
        seq = sample_sequence(params, [0], temperature=1.0, max_len=10, rng_seed=3)
        assert all(lp <= 0 for lp in seq.logprobs)

    def test_sampled_sequence_invariant(self):
        with pytest.raises(ValueError):
            SampledSequence(tokens=(1, 2), logprobs=(-0.5,), prompt_len=1)


def choice_sample(params, prompt, temperature, max_len, seed):
    """One row sampled token by token with Generator.choice: the reference
    stream generate must reproduce."""
    rng = np.random.default_rng(seed)
    ctx = ([PAD_ID] * params.context_size + list(prompt))[-params.context_size:]
    tokens, logprobs = [], []
    for _ in range(max_len):
        z = forward_logits(params, ctx) / temperature
        logp = z - z.max() - np.log(np.exp(z - z.max()).sum())
        p = np.exp(logp)
        tok = int(rng.choice(len(p), p=p / p.sum()))
        tokens.append(tok)
        logprobs.append(float(logp[tok]))
        if tok == EOS_ID:
            break
        ctx = ctx[1:] + [tok]
    return tokens, logprobs


class TestGenerate:
    PROMPTS = [[1, 2], [], [3, 4, 5, 6, 1], [2], [6, 6], [1, 2]]

    def test_rows_match_choice_reference(self):
        params = tiny(seed=21)
        out = generate(params, self.PROMPTS, 1.3, 12, seeds=range(6))
        for b, (prompt, seq) in enumerate(zip(self.PROMPTS, out)):
            tokens, logprobs = choice_sample(params, prompt, 1.3, 12, b)
            assert list(seq.tokens) == tokens
            assert np.allclose(seq.logprobs, logprobs, rtol=0, atol=1e-12)
            assert seq.prompt_len == len(prompt)

    def test_batch_equals_one_row_calls(self):
        params = attach_lora(tiny(seed=22), LoraConfig(rank=2, alpha=4.0), seed=1)
        a, b = params.lora["W1"]
        params.lora["W1"] = (a, np.random.default_rng(0).normal(0, 0.3, b.shape))
        seeds = [np.random.SeedSequence(entropy=3, spawn_key=(0, b)) for b in range(6)]
        out = generate(params, self.PROMPTS, 0.7, 15, seeds)
        for prompt, seed, seq in zip(self.PROMPTS, seeds, out):
            one = sample_sequence(params, prompt, temperature=0.7, max_len=15,
                                  rng_seed=seed)
            assert seq.tokens == one.tokens
            assert np.allclose(seq.logprobs, one.logprobs, rtol=0, atol=1e-12)

    def test_row_independent_of_neighbours_and_order(self):
        params = tiny(seed=23)
        out = generate(params, self.PROMPTS, 1.1, 20, seeds=range(6))
        order = [4, 0, 5, 2, 1, 3]
        shuffled = generate(params, [self.PROMPTS[i] for i in order], 1.1, 20,
                            seeds=order)
        alone = generate(params, [self.PROMPTS[2]], 1.1, 20, seeds=[2])[0]
        for j, i in enumerate(order):
            assert shuffled[j].tokens == out[i].tokens
            assert np.allclose(shuffled[j].logprobs, out[i].logprobs,
                               rtol=0, atol=1e-12)
        assert alone.tokens == out[2].tokens

    def test_batched_greedy_equals_greedy_decode(self):
        params = tiny(seed=24)
        out = generate(params, self.PROMPTS, 1e-8, 10)
        for prompt, seq in zip(self.PROMPTS, out):
            assert list(seq.tokens) == greedy_decode(params, prompt, max_len=10)
            assert seq.logprobs == (0.0,) * len(seq.tokens)

    def test_max_len_cuts_every_row(self):
        params = tiny(seed=25)
        out = generate(params, self.PROMPTS, 1.0, 4, seeds=range(6),
                       stop_token=params.vocab_size)  # a token never emitted
        assert [len(seq.tokens) for seq in out] == [4] * 6

    def test_nothing_follows_stop_token_in_any_row(self):
        params = tiny(seed=7)
        prompts = [[1]] * 40
        out = generate(params, prompts, 1.5, 5, seeds=range(40))
        stopped = [seq for seq in out if EOS_ID in seq.tokens]
        assert stopped and len(stopped) < len(out)
        for seq in stopped:
            assert seq.tokens.index(EOS_ID) == len(seq.tokens) - 1
        assert all(len(seq.tokens) == 5 for seq in out if seq not in stopped)

    def test_input_validation(self):
        params = tiny()
        with pytest.raises(ValueError):
            generate(params, [[1]], 1.0, 0, seeds=[0])
        with pytest.raises(ValueError):
            generate(params, [[1]], 0.0, 5, seeds=[0])
        with pytest.raises(ValueError):
            generate(params, [[1], [0, 99]], 1.0, 5, seeds=[0, 1])
        with pytest.raises(ValueError):
            generate(params, [[1], [2]], 1.0, 5, seeds=[0])


class TestBackward:
    def test_zero_loss_grads_give_zero_gradient(self):
        params = tiny(seed=1)
        grads = backward(params, [1, 2], [3, 4], np.zeros(2))
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_matches_finite_differences_base_mode(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            params = tiny(seed=trial)
            prompt = rng.integers(0, 7, size=2).tolist()
            completion = rng.integers(0, 7, size=3).tolist()
            g = rng.normal(size=3)
            analytic = backward(params, prompt, completion, g)
            numeric = numeric_grad(params, prompt, completion, g)
            for name in numeric:
                scale = np.abs(numeric[name]).max() + 1e-8
                assert np.abs(analytic[name] - numeric[name]).max() / scale < 1e-4

    def test_matches_finite_differences_lora_mode(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            params = attach_lora(tiny(seed=trial), LoraConfig(rank=2, alpha=4.0),
                                 seed=trial + 50)
            for name, (a, b) in params.lora.items():
                b += rng.normal(0, 0.1, b.shape)
            prompt = rng.integers(0, 7, size=2).tolist()
            completion = rng.integers(0, 7, size=4).tolist()
            g = rng.normal(size=4)
            analytic = backward(params, prompt, completion, g, temperature=0.7)
            numeric = numeric_grad(params, prompt, completion, g, temperature=0.7)
            for name in numeric:
                scale = np.abs(numeric[name]).max() + 1e-8
                assert np.abs(analytic[name] - numeric[name]).max() / scale < 1e-4

    def test_lora_mode_freezes_base_tensors(self):
        params = attach_lora(tiny(seed=3), LoraConfig(rank=2, alpha=4.0), seed=4)
        grads = backward(params, [1], [2, 3], np.array([0.5, -0.5]))
        assert set(grads) == {"lora.W1.A", "lora.W1.B", "lora.W2.A", "lora.W2.B"}

    def test_gradient_shape_validation(self):
        with pytest.raises(ValueError):
            backward(tiny(), [1], [2, 3], np.zeros(5))


class TestLora:
    def test_merge_preserves_forward(self):
        rng = np.random.default_rng(2)
        params = attach_lora(tiny(seed=2), LoraConfig(rank=3, alpha=6.0), seed=8)
        for name, (a, b) in params.lora.items():
            b += rng.normal(0, 0.2, b.shape)
        merged = merge_lora(params)
        assert merged.lora is None
        for _ in range(10):
            ctx = rng.integers(0, 7, size=3).tolist()
            assert np.abs(forward_logits(merged, ctx)
                          - forward_logits(params, ctx)).max() < 1e-9

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError):
            attach_lora(tiny(), LoraConfig(rank=6, alpha=1.0))

    def test_detach_recovers_base(self):
        params = tiny(seed=5)
        adapted = attach_lora(params, LoraConfig(rank=2, alpha=4.0), seed=6)
        detached = detach_lora(adapted)
        assert detached.digest() == params.digest()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoraConfig(rank=0)
        with pytest.raises(ValueError):
            LoraConfig(targets=("E",))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = attach_lora(tiny(seed=21), LoraConfig(rank=2, alpha=4.0), seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, extra={"seed": 21})
        loaded, extra = load_checkpoint(path)
        assert extra == {"seed": 21}
        assert loaded.digest() == params.digest()
        assert loaded.context_size == params.context_size
        assert loaded.lora_cfg == params.lora_cfg

    def test_bytes_deterministic(self, tmp_path):
        params = tiny(seed=30)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, a, extra={"seed": 30})
        save_checkpoint(params, b, extra={"seed": 30})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        params = tiny(seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny(seed=34), path)
        before = path.read_bytes()
        broken = tiny(seed=35)
        # the last tensor cannot be converted, so the save fails after the
        # header and the earlier tensors were written
        broken.b2 = np.array([object()] * broken.b2.size, dtype=object)
        with pytest.raises(TypeError):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_greedy_decode_stable_through_checkpoint(self, tmp_path):
        params = tiny(seed=33)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded, _ = load_checkpoint(path)
        assert greedy_decode(params, [1, 2], max_len=6) == \
            greedy_decode(loaded, [1, 2], max_len=6)
