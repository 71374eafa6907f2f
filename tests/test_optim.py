import math

import numpy as np
import pytest

from semrank.optim import (AdamWState, LrSchedule, MuonState, adamw_step,
                           lr_at, make_optimizer, muon_step, newton_schulz,
                           optimizer_step)


def polar_factor_eigh(G):
    """Independent oracle for the nearest semi-orthogonal factor U V^T:
    G (G^T G)^{-1/2} via eigendecomposition, no SVD, no NS."""
    w, V = np.linalg.eigh(G.T @ G)
    w = np.clip(w, 1e-30, None)
    return G @ (V @ np.diag(w ** -0.5) @ V.T)


def random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q * np.sign(np.diag(r))


class TestNewtonSchulz:
    def test_orthogonal_input_stays_near_orthogonal(self):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        sv = np.linalg.svd(newton_schulz(rot, 5), compute_uv=False)
        assert np.all(sv >= 0.7) and np.all(sv <= 1.2)

    def test_diagonal_stays_diagonal(self):
        d = np.diag([3.0, -1.0, 0.5, 2.0])
        out = newton_schulz(d, 5)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() < 1e-9

    def test_approximates_polar_factor(self):
        # typical random matrices; the acceptance suite runs the frozen
        # 100-matrix batch with the documented bounds
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.normal(size=(8, 8))
            out = newton_schulz(g, 5)
            oracle = polar_factor_eigh(g)
            rel = np.linalg.norm(out - oracle) / np.linalg.norm(oracle)
            assert rel <= 0.35
            sv = np.linalg.svd(out, compute_uv=False)
            assert np.all(sv >= 0.5) and np.all(sv <= 1.4)

    def test_orthogonal_equivariance(self):
        g = np.random.default_rng(3).normal(size=(6, 6))
        u = random_orthogonal(6, 4)
        v = random_orthogonal(6, 5)
        lhs = newton_schulz(u @ g @ v.T, 5)
        rhs = u @ newton_schulz(g, 5) @ v.T
        assert np.linalg.norm(lhs - rhs) < 1e-6

    def test_scale_invariance(self):
        g = np.random.default_rng(6).normal(size=(5, 7))
        for s in (1e-3, 0.5, 42.0):
            assert np.abs(newton_schulz(g, 5) - newton_schulz(s * g, 5)).max() < 1e-9

    def test_tall_matrices_transposed_through(self):
        g = np.random.default_rng(9).normal(size=(12, 4))
        out = newton_schulz(g, 5)
        assert out.shape == (12, 4)
        sv = np.linalg.svd(out, compute_uv=False)
        assert np.all(sv > 0.3) and np.all(sv < 1.5)

    def test_zero_matrix_returns_zero(self):
        assert np.all(newton_schulz(np.zeros((4, 4)), 5) == 0.0)

    def test_nan_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            newton_schulz(bad, 5)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            newton_schulz(np.eye(3), 0)


class TestLrSchedule:
    def test_boundaries(self):
        sched = LrSchedule(base_lr=0.1, warmup_steps=10, total_steps=110)
        assert lr_at(sched, 0) == 0.0
        assert lr_at(sched, 10) == pytest.approx(0.1)
        assert lr_at(sched, 60) == pytest.approx(0.05)  # cos(pi/2) midpoint
        assert lr_at(sched, 110) == 0.0
        assert lr_at(sched, 5000) == 0.0

    def test_linear_warmup(self):
        sched = LrSchedule(base_lr=1.0, warmup_steps=4, total_steps=8)
        assert [lr_at(sched, s) for s in range(5)] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_no_warmup(self):
        sched = LrSchedule(base_lr=1.0, warmup_steps=0, total_steps=10)
        assert lr_at(sched, 0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(base_lr=0.1, warmup_steps=11, total_steps=10)
        with pytest.raises(ValueError):
            lr_at(LrSchedule(0.1, 0, 10), -1)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        state = AdamWState(lr=0.1)
        p = {"w": np.array([[1.0, -2.0], [0.5, 3.0]])}
        before = p["w"].copy()
        adamw_step(state, p, {"w": np.zeros((2, 2))})
        assert np.array_equal(p["w"], before)

    def test_constant_gradient_approaches_sign_step(self):
        state = AdamWState(lr=0.01)
        p = {"w": np.zeros((2, 2))}
        g = np.array([[1.0, -3.0], [0.5, -0.25]])
        for _ in range(500):
            prev = p["w"].copy()
            adamw_step(state, p, {"w": g})
        step = p["w"] - prev
        assert np.allclose(step, -0.01 * np.sign(g), atol=1e-4)

    def test_single_step_matches_hand_unrolled_oracle(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        state = AdamWState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = np.array([[0.1, -0.2], [0.3, -0.4]])
        p = {"w": w0.copy()}
        adamw_step(state, p, {"w": g})
        # closed form for t=1: m_hat = g, v_hat = g^2, so step is
        # -lr * g / (|g| + eps)
        want = w0 - lr * g / (np.abs(g) + eps)
        assert np.allclose(p["w"], want, atol=1e-12)

    def test_decoupled_weight_decay(self):
        state = AdamWState(lr=0.1, weight_decay=0.5)
        p = {"w": np.array([2.0])}
        adamw_step(state, p, {"w": np.zeros(1)})
        # zero grad: only the decay term moves the weight
        assert p["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_deterministic(self):
        def run():
            state = AdamWState(lr=0.01)
            p = {"w": np.ones((3, 3))}
            rng = np.random.default_rng(0)
            for _ in range(10):
                adamw_step(state, p, {"w": rng.normal(size=(3, 3))})
            return p["w"]
        assert np.array_equal(run(), run())


class TestMuon:
    def test_zero_gradient_zero_momentum_only_decay(self):
        state = MuonState(lr=0.1, weight_decay=0.5)
        p = {"w": np.full((4, 4), 2.0)}
        muon_step(state, p, {"w": np.zeros((4, 4))})
        assert np.allclose(p["w"], 2.0 * (1 - 0.1 * 0.5))

    def test_momentum_free_reduction(self):
        state = MuonState(lr=0.1, momentum=0.0)
        g = np.random.default_rng(1).normal(size=(4, 8))
        p = {"w": np.zeros((4, 8))}
        muon_step(state, p, {"w": g.copy()})
        want = -0.1 * 0.2 * math.sqrt(8) * newton_schulz(g, 5)
        assert np.allclose(p["w"], want, atol=1e-12)

    def test_moonlight_scale_factor(self):
        # 4x8 matrix: 0.2 * sqrt(max(4, 8)) = 0.2 * sqrt(8)
        assert 0.2 * math.sqrt(8) == pytest.approx(0.5657, abs=1e-4)
        state = MuonState(lr=1.0, momentum=0.0)
        g = np.random.default_rng(2).normal(size=(4, 8))
        p = {"w": np.zeros((4, 8))}
        muon_step(state, p, {"w": g.copy()})
        ortho_norm = np.linalg.norm(newton_schulz(g, 5))
        assert np.linalg.norm(p["w"]) == pytest.approx(
            0.2 * math.sqrt(8) * ortho_norm, rel=1e-9)

    def test_bias_routes_to_adamw_exactly(self):
        g = np.array([0.3, -0.7, 0.1])
        muon_state = MuonState(lr=0.05)
        adamw_state = AdamWState(lr=0.05)
        p_muon = {"b": np.ones(3)}
        p_adamw = {"b": np.ones(3)}
        muon_step(muon_state, p_muon, {"b": g.copy()})
        adamw_step(adamw_state, p_adamw, {"b": g.copy()})
        assert np.array_equal(p_muon["b"], p_adamw["b"])

    def test_embedding_routed_to_adamw_by_default(self):
        g = np.random.default_rng(3).normal(size=(6, 4))
        muon_state = MuonState(lr=0.05)
        adamw_state = AdamWState(lr=0.05)
        p_muon = {"E": np.ones((6, 4))}
        p_adamw = {"E": np.ones((6, 4))}
        muon_step(muon_state, p_muon, {"E": g.copy()})
        adamw_step(adamw_state, p_adamw, {"E": g.copy()})
        assert np.array_equal(p_muon["E"], p_adamw["E"])

    def test_matrix_not_routed_to_adamw(self):
        g = np.random.default_rng(4).normal(size=(4, 4))
        state = MuonState(lr=0.05)
        p = {"w": np.zeros((4, 4))}
        muon_step(state, p, {"w": g.copy()})
        sv = np.linalg.svd(p["w"] / (0.05 * 0.2 * 2), compute_uv=False)
        assert np.all(sv > 0.2)  # orthogonalized update, not raw Adam

    def test_momentum_accumulation(self):
        state = MuonState(lr=1.0, momentum=0.5)
        g = np.eye(3)
        p = {"w": np.zeros((3, 3))}
        muon_step(state, p, {"w": g.copy()})
        assert np.allclose(state.buffers["w"], g)
        muon_step(state, p, {"w": g.copy()})
        assert np.allclose(state.buffers["w"], 1.5 * g)

    def test_deterministic(self):
        def run():
            state = MuonState(lr=0.01)
            p = {"w": np.ones((4, 4)), "b": np.zeros(4)}
            rng = np.random.default_rng(5)
            for _ in range(5):
                muon_step(state, p, {"w": rng.normal(size=(4, 4)),
                                     "b": rng.normal(size=4)})
            return p
        a, b = run(), run()
        assert np.array_equal(a["w"], b["w"]) and np.array_equal(a["b"], b["b"])

    def test_optimizer_step_dispatch(self):
        p = {"w": np.ones((2, 2))}
        optimizer_step(AdamWState(lr=0.1), p, {"w": np.ones((2, 2))})
        optimizer_step(MuonState(lr=0.1), p, {"w": np.ones((2, 2))})


@pytest.mark.parametrize("kind", ["adamw", "muon"])
@pytest.mark.parametrize("lr,weight_decay", [(0.0, 0.0), (-1e-3, 0.0), (1e-3, -0.1)])
def test_make_optimizer_rejects_out_of_range(kind, lr, weight_decay):
    with pytest.raises(ValueError):
        make_optimizer(kind, lr=lr, weight_decay=weight_decay)
