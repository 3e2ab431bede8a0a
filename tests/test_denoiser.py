"""Noise-predictor network: shapes, determinism, gradient correctness, memory."""

import tracemalloc

import numpy as np
import pytest

from renderopt.diffusion.denoiser import (AttentionGatedDenoiser, DenoiserConfig,
                                          analytic_gradient_check, forward,
                                          loss_and_grads, split_params,
                                          timestep_embedding)
from renderopt.errors import NumericalError

TINY = DenoiserConfig(feature_dim=3, cond_dim=4, d_model=8, heads=2)


def _probe(config, batch=2, length=4, seed=0):
    rng = np.random.default_rng(seed)
    m_t = rng.standard_normal((batch, length, config.feature_dim))
    t = rng.integers(1, 700, size=batch).astype(np.float64)
    s = rng.standard_normal((batch, config.cond_dim))
    target = rng.standard_normal(m_t.shape)
    return m_t, t, s, target


class TestForwardContract:
    @pytest.mark.parametrize("length", [8, 16, 32])
    @pytest.mark.parametrize("feats", [3, 6])
    def test_output_shape_equals_input_shape(self, length, feats):
        config = DenoiserConfig(feature_dim=feats, cond_dim=4, d_model=16, heads=2)
        model = AttentionGatedDenoiser(config, seed=1)
        m_t, t, s, _ = _probe(config, batch=3, length=length, seed=2)
        out = model.predict(m_t, t, s)
        assert out.shape == m_t.shape

    def test_single_sequence_roundtrip(self):
        model = AttentionGatedDenoiser(TINY, seed=1)
        m_t, t, s, _ = _probe(TINY, batch=1, length=8)
        single = model.predict(m_t[0], float(t[0]), s[0])
        batched = model.predict(m_t, t[:1], s[:1])
        assert np.array_equal(single, batched[0])

    def test_deterministic_across_calls(self):
        model = AttentionGatedDenoiser(TINY, seed=3)
        m_t, t, s, _ = _probe(TINY)
        assert np.array_equal(model.predict(m_t, t, s), model.predict(m_t, t, s))

    def test_seeded_init_reproducible(self):
        a = AttentionGatedDenoiser(TINY, seed=12)
        b = AttentionGatedDenoiser(TINY, seed=12)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_odd_length_rejected(self):
        model = AttentionGatedDenoiser(TINY, seed=1)
        m_t, t, s, _ = _probe(TINY)
        with pytest.raises(ValueError):
            model.predict(m_t[:, :3, :], t, s)

    def test_wrong_condition_width_rejected(self):
        model = AttentionGatedDenoiser(TINY, seed=1)
        m_t, t, s, _ = _probe(TINY)
        with pytest.raises(ValueError):
            model.predict(m_t, t, s[:, :2])

    def test_non_finite_activations_reported(self):
        model = AttentionGatedDenoiser(TINY, seed=1)
        model.params["out.w"][0, 0] = np.nan
        m_t, t, s, _ = _probe(TINY)
        with pytest.raises(NumericalError):
            model.predict(m_t, t, s)

    def test_call_counter(self):
        model = AttentionGatedDenoiser(TINY, seed=1)
        m_t, t, s, _ = _probe(TINY)
        model.predict(m_t, t, s)
        model.predict(m_t, t, s)
        assert model.call_count == 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DenoiserConfig(d_model=10, heads=4)
        with pytest.raises(ValueError):
            DenoiserConfig(d_model=7, heads=1)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        model = AttentionGatedDenoiser(TINY, seed=7)
        m_t, t, s, target = _probe(TINY)
        assert analytic_gradient_check(model, m_t, t, s, target) < 1e-4

    def test_backprop_matches_without_conditioning(self):
        model = AttentionGatedDenoiser(TINY, seed=7)
        m_t, t, s, target = _probe(TINY)
        assert analytic_gradient_check(model, m_t, t, np.zeros_like(s), target) < 1e-4

    def test_gradient_tensor_coverage(self):
        model = AttentionGatedDenoiser(TINY, seed=7)
        m_t, t, s, target = _probe(TINY)
        _, grad = loss_and_grads(model.params, TINY, m_t, t, s, target)
        assert grad.shape == model.weights.shape
        # every tensor's part of the vector is written: none stays all zero
        for name, g in split_params(TINY, grad).items():
            assert np.any(g != 0.0), name

    def test_zero_perturbation_leaves_loss_unchanged(self):
        model = AttentionGatedDenoiser(TINY, seed=7)
        m_t, t, s, target = _probe(TINY)

        def loss():
            out = forward(model.params, TINY, m_t, t, s)
            return float(np.mean((out - target) ** 2))

        before = loss()
        for tensor in model.params.values():
            tensor += 0.0
        assert loss() == before


def test_timestep_embedding_shape_and_bounds():
    emb = timestep_embedding(np.array([1.0, 350.0, 700.0]), 16)
    assert emb.shape == (3, 16)
    assert np.all(np.abs(emb) <= 1.0)
    assert not np.array_equal(emb[0], emb[1])


class TestUncachedMemory:
    # tracemalloc peak of an uncached 800-sequence predict at the default width
    # when forward kept every block's intermediates alive until it returned
    PEAK_KEEPING_INTERMEDIATES_MIB = 247.15

    @staticmethod
    def _batch():
        rng = np.random.default_rng(0)
        return (AttentionGatedDenoiser(DenoiserConfig(), seed=0),
                rng.standard_normal((800, 16, 6)), rng.standard_normal((800, 4)))

    def test_uncached_output_equals_cached(self):
        model, m_t, s = self._batch()
        t = np.full(800, 140.0)
        uncached = forward(model.params, model.config, m_t, t, s)
        assert np.array_equal(uncached, forward(model.params, model.config, m_t, t, s, {}))

    def test_uncached_peak_at_most_half(self):
        model, m_t, s = self._batch()
        tracemalloc.start()
        try:
            model.predict(m_t, 140.0, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= 0.5 * self.PEAK_KEEPING_INTERMEDIATES_MIB
