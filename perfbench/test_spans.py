"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from semrank import policy, trainer  # noqa: E402
from semrank.optim import AdamWState  # noqa: E402
from semrank.rewards import RewardBreakdown  # noqa: E402


def recorded(rows):
    """A Recorder holding the given (name, start, end, parent) spans."""
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = recorded([
        ("step", 0.0, 10.0, -1),
        ("sample", 1.0, 4.0, 0),
        ("effective", 1.5, 2.0, 1),
        ("backward", 5.0, 9.0, 0),
        ("effective", 5.0, 6.0, 3),
        ("effective", 7.0, 7.5, 3),
    ])
    assert rec.self_times() == pytest.approx([3.0, 2.5, 0.5, 2.5, 1.0, 0.5])
    rows = rec.by_name()
    assert rows["effective"]["calls"] == 3
    assert rows["effective"]["self_s"] == pytest.approx(2.0)
    assert rows["step"]["total_s"] == pytest.approx(10.0)
    # self times of a tree add up to the root's duration
    assert sum(rec.self_times()) == pytest.approx(10.0)


def test_live_spans_nest_and_opaque_hides_inner_calls():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)

    def outer_body(x):
        return inner(inner(x))

    outer = rec.wrap("outer", outer_body)
    shell = rec.wrap("shell", outer_body, opaque=True)
    assert outer(1) == 3
    assert rec.names == ["outer", "inner", "inner"]
    assert rec.parents == [-1, 0, 0]
    assert shell(1) == 3
    assert rec.names == ["outer", "inner", "inner", "shell"]
    own = rec.self_times()
    assert all(t >= 0 for t in own)
    assert own[3] == pytest.approx(rec.ends[3] - rec.starts[3])


def test_wrapper_counts_failures_and_reraises():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert rec.by_name()["boom"]["failed"] == 1
    assert rec.ends[0] >= rec.starts[0]


@pytest.mark.parametrize("n", [1, 10, 11, 20, 57, 100, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    rng = np.random.default_rng(n)
    values = rng.permutation(n).astype(float).tolist()
    p, value, count = spans.tail(values)
    assert count == n
    if n <= spans.TAIL_MIN_BEYOND:
        assert (p, value) == (100.0, n - 1)
        return
    beyond = sum(1 for v in values if v > value)
    assert beyond == spans.TAIL_MIN_BEYOND
    assert p == pytest.approx(100.0 * (n - beyond) / n)
    # any higher rank would leave fewer than ten samples beyond it
    assert sum(1 for v in values if v > sorted(values)[n - beyond]) < spans.TAIL_MIN_BEYOND


def test_step_summary_median_quartiles_and_tail():
    seconds = [7.0, 1.0, 4.0, 10.0, 2.0, 3.0, 9.0, 5.0, 6.0, 8.0] * 2
    summary = workloads.step_summary([t / 1000.0 for t in seconds])
    assert summary["p50"] == pytest.approx(5.5)
    assert (summary["q1"], summary["q3"]) == pytest.approx((3.0, 8.0))
    # 20 steps: the tail is the 11th-slowest, with ten steps beyond it
    assert summary["tail"] == pytest.approx(5.0)
    assert summary["tail_percentile"] == pytest.approx(50.0)
    assert summary["samples"] == 20


def tiny_state(seed=0):
    params = policy.init_params(vocab_size=16, context_size=4, embed_dim=6,
                                hidden_dim=12, seed=seed)
    params = policy.attach_lora(params, policy.LoraConfig(rank=3, alpha=6.0), seed=1)
    return trainer.TrainState(params=params, ref_params=policy.detach_lora(params),
                              optimizer=AdamWState(lr=2e-3))


def one_step(state):
    cfg = trainer.GrpoConfig(group_size=3, prompts_per_step=2, max_new_tokens=8,
                             lr=2e-3, seed=5)

    def score(item, text):
        return RewardBreakdown(format=len(text) / 8.0, total=len(text) / 8.0)

    items = [trainer.GrpoItem("a", (2, 3)), trainer.GrpoItem("b", (4, 5, 6))]
    return trainer.grpo_step(state, items, score,
                             lambda toks: "".join(chr(97 + t) for t in toks), cfg,
                             step_seed=0)


def test_installed_wrappers_leave_results_bit_identical():
    plain_state = tiny_state()
    plain_metrics, plain_groups = one_step(plain_state)

    rec = spans.Recorder()
    saved = layers.install(rec)
    try:
        traced_state = tiny_state()
        traced_metrics, traced_groups = one_step(traced_state)
        logp = policy.logprob_sequence(traced_state.params, [2, 3], [4, 5, 6])
    finally:
        layers.uninstall(saved)

    assert traced_metrics == plain_metrics
    for a, b in zip(plain_groups, traced_groups):
        assert [s.tokens for s in a.samples] == [s.tokens for s in b.samples]
        assert [s.logprobs for s in a.samples] == [s.logprobs for s in b.samples]
        assert a.advantages.tobytes() == b.advantages.tobytes()
    for name, value in plain_state.params.trainable().items():
        assert value.tobytes() == traced_state.params.trainable()[name].tobytes()
    expected = policy.logprob_sequence(plain_state.params, [2, 3], [4, 5, 6])
    assert logp.tobytes() == expected.tobytes()

    rows = rec.by_name()
    assert rows["policy.sample_sequence"]["calls"] == 6
    assert rows["policy.backward"]["calls"] == 6
    assert rows["optim.optimizer_step"]["calls"] == 1
    assert rows["trainer.grpo_step"]["calls"] == 1
    # restored: the module attributes are the originals again
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original
