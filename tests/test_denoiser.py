"""Noise-predictor network: shapes, determinism, gradient correctness, memory."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import oracles
from oracles import gelu_exact, gelu_exact_grad
from renderopt.diffusion import NoiseSchedule, denoiser
from renderopt.diffusion.denoiser import (AttentionGatedDenoiser, DenoiserConfig, Workspace,
                                          _gelu, _gelu_grad, _layernorm, _layernorm_back,
                                          _linear, _softmax, analytic_gradient_check, forward,
                                          loss_and_grads, split_params, timestep_embedding)
from renderopt.diffusion.sampling import _reverse_step
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
        # one per sequence: a 2-row batch counts 2, a single sequence 1
        model = AttentionGatedDenoiser(TINY, seed=1)
        m_t, t, s, _ = _probe(TINY)
        model.predict(m_t, t, s)
        model.predict(m_t, t, s)
        assert model.call_count == 4
        model.predict(m_t[0], float(t[0]), s[0])
        assert model.call_count == 5

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


def test_tanh_gelu_stays_near_exact_gelu():
    # the tanh form's largest gaps on this grid are 4.73e-4 (value) and 8.7e-4 (slope)
    x = np.linspace(-12.0, 12.0, 48_001)
    act, term = _gelu(x)
    assert np.max(np.abs(act - gelu_exact(x))) < 5e-4
    assert np.max(np.abs(_gelu_grad(x, term) - gelu_exact_grad(x))) < 1e-3


def test_timestep_embedding_shape_and_bounds():
    emb = timestep_embedding(np.array([1.0, 350.0, 700.0]), 16)
    assert emb.shape == (3, 16)
    assert np.all(np.abs(emb) <= 1.0)
    assert not np.array_equal(emb[0], emb[1])


# tanh saturates at +-1e3; the rest are subnormal or signed zeros
_SPECIAL_VALUES = [1e3, -1e3, 5e-324, -5e-324, 2.5e-310, -2.5e-310, -0.0, 0.0]


def _drawn(rng, shape, specials, scale):
    values = rng.standard_normal(shape) * scale
    flat = values.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(specials))] = specials
    return values


def _same_bytes(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@hyp_settings(max_examples=100, deadline=None)
@given(batch=st.integers(1, 33), half_length=st.integers(1, 16), width=st.integers(1, 130),
       specials=st.lists(st.sampled_from(_SPECIAL_VALUES), min_size=1, max_size=6),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_lean_kernels_equal_their_oracles_bit_for_bit(batch, half_length, width, specials,
                                                      scale, seed):
    rng = np.random.default_rng(seed)
    length = 2 * half_length
    x = _drawn(rng, (batch, length, width), specials, scale)
    g, b = rng.standard_normal(width), rng.standard_normal(width)

    act, term = _gelu(x)
    old_act, old_term = oracles.gelu(x)
    _same_bytes(act, old_act)
    _same_bytes(term, old_term)
    _same_bytes(_gelu_grad(x, term), oracles.gelu_grad(x, old_term))

    w, bias = rng.standard_normal((width, 5)), rng.standard_normal(5)
    _same_bytes(_linear(x, w, bias), oracles.linear(x, w, bias))
    _same_bytes(_softmax(x.copy(), 0.25), oracles.softmax(x, 0.25))
    t = x[:, 0, 0]
    _same_bytes(timestep_embedding(t, width), oracles.timestep_embedding(t, width))

    y, ctx = _layernorm(x, g, b)
    old_y, old_ctx = oracles.layernorm(x, g, b)
    _same_bytes(y, old_y)
    for new, old in zip(ctx, old_ctx):
        _same_bytes(new, old)
    dy = _drawn(rng, x.shape, specials, 1.0)
    params = {"ln.g": g, "ln.b": b}
    grads = {name: np.zeros(width) for name in params}
    old_grads = {name: np.zeros(width) for name in params}
    _same_bytes(_layernorm_back(params, "ln", dy, {"ln": ctx}, grads),
                oracles.layernorm_back(params, "ln", dy, {"ln": old_ctx}, old_grads))
    for name in params:
        _same_bytes(grads[name], old_grads[name])

    # the same kernels writing into the leading rows of stale workspace
    # buffers, and the layernorm's backward into its own dy
    def stale(*shape):
        return np.full((batch + 2, *shape), np.nan)[:batch]

    for new, old in zip(_gelu(x, stale(length, width), stale(length, width)),
                        (old_act, old_term)):
        _same_bytes(new, old)
    _same_bytes(_gelu_grad(x, term, stale(length, width), stale(length, width)),
                oracles.gelu_grad(x, old_term))
    _same_bytes(_linear(x, w, bias, stale(length, 5)), oracles.linear(x, w, bias))
    y, ctx = _layernorm(x, g, b, stale(length, width), stale(length, width))
    _same_bytes(y, old_y)
    _same_bytes(ctx[0], old_ctx[0])
    _same_bytes(_layernorm_back(params, "ln", dy.copy(), {"ln": ctx}, grads, None,
                                stale(length, width)),
                oracles.layernorm_back(params, "ln", dy, {"ln": old_ctx}, old_grads))
    dy_in_place = dy.copy()
    _same_bytes(_layernorm_back(params, "ln", dy_in_place, {"ln": ctx}, grads, dy_in_place,
                                stale(length, width)),
                oracles.layernorm_back(params, "ln", dy, {"ln": old_ctx}, old_grads))

    # one sequence through the model: alone, as a batch of one, and a reverse step
    model = AttentionGatedDenoiser(TINY, seed=seed % 7)
    seq = _drawn(rng, (length, TINY.feature_dim), specials, scale)
    cond = rng.standard_normal(TINY.cond_dim)
    schedule = NoiseSchedule()
    t = int(rng.integers(1, schedule.steps + 1))
    _same_bytes(model.predict(seq, float(t), cond),
                model.predict(seq[None], np.array([float(t)]), cond[None])[0])
    t_next = int(rng.integers(0, t))
    _same_bytes(_reverse_step(model, seq, t, t_next, cond, schedule),
                oracles.reverse_step(model, seq, t, t_next, cond, schedule))


class TestBuffersSharedByLiveness:
    """The residual stream takes each sub-layer's sum in its own buffer, the
    attention makes q, k and v with one stacked product, and the backward pass
    writes denc, dbot, dq, dk, dv and the attention's dx into buffers whose
    values are dead: the results equal the oracles', which make q, k and v
    apart and keep a buffer apart for each, bit for bit."""

    @staticmethod
    def _oracle(monkeypatch, fn, *args):
        with monkeypatch.context() as patched:
            patched.setattr(denoiser, "_residual", oracles.residual)
            patched.setattr(denoiser, "_attention_forward", oracles.attention_forward)
            patched.setattr(denoiser, "_attention_backward", oracles.attention_backward)
            return fn(*args)

    def test_forward_and_gradients_equal_the_oracles_in_one_poisoned_workspace(
            self, monkeypatch):
        config = DenoiserConfig()
        params = AttentionGatedDenoiser(config, seed=3).params
        workspace = Workspace(config, rows=32)     # every batch and length below

        def poison():
            for buf in workspace.buffers.values():
                buf.fill(np.nan)
            workspace.grad.fill(np.nan)

        for length in (2, 16):
            for batch in (1, 2, 3, 32):
                m_t, t, s, target = _probe(config, batch, length, seed=batch + length)
                pred = self._oracle(monkeypatch, forward, params, config, m_t, t, s)
                loss, grad = self._oracle(monkeypatch, loss_and_grads, params, config,
                                          m_t, t, s, target)
                poison()
                new_loss, new_grad = loss_and_grads(params, config, m_t, t, s, target,
                                                    workspace)
                assert new_loss == loss
                _same_bytes(new_grad, grad)
                poison()
                _same_bytes(forward(params, config, m_t, t, s, workspace=workspace), pred)
                _same_bytes(forward(params, config, m_t, t, s), pred)

    class Unshared(Workspace):
        """A workspace that shares nothing: every `take` is a new buffer of NaN."""

        def take(self, role, b, *shape):
            return np.full((b, *shape), np.nan)

    @hyp_settings(max_examples=60, deadline=None)
    @given(config=st.sampled_from([(8, 1), (8, 2), (16, 2), (64, 4)]).flatmap(
               lambda dh: st.builds(DenoiserConfig, feature_dim=st.integers(1, 6),
                                    cond_dim=st.integers(1, 4), d_model=st.just(dh[0]),
                                    heads=st.just(dh[1]), mlp_ratio=st.integers(1, 3))),
           rows=st.integers(1, 4), data=st.data())
    def test_roles_shared_at_any_shape_equal_a_workspace_that_shares_nothing(
            self, config, rows, data):
        # at mlp_ratio 1 the skip concat, 2 d wide, grows the MLPs' `act` mid-step;
        # each call's batch and length differ, so the calls after the first work
        # in the front of vectors made for other shapes
        calls = data.draw(st.lists(st.tuples(st.integers(1, rows), st.integers(1, 8)),
                                   min_size=1, max_size=3))
        params = AttentionGatedDenoiser(config, seed=rows).params
        workspace = Workspace(config, rows)
        for i, (batch, half) in enumerate(calls):
            m_t, t, s, target = _probe(config, batch, 2 * half, seed=i)
            for buf in workspace.buffers.values():
                buf.fill(np.nan)
            workspace.grad.fill(np.nan)
            loss, grad = loss_and_grads(params, config, m_t, t, s, target, workspace)
            grad = grad.copy()
            for other_loss, other_grad in (
                    loss_and_grads(params, config, m_t, t, s, target),
                    loss_and_grads(params, config, m_t, t, s, target,
                                   self.Unshared(config, batch)),
                    self._oracle(pytest.MonkeyPatch, loss_and_grads, params, config,
                                 m_t, t, s, target)):
                assert other_loss == loss
                _same_bytes(other_grad, grad)


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

    def test_each_layernorm_context_is_freed_before_its_layer_runs(self, monkeypatch):
        # uncached, no layernorm context (xhat, 1 / std) may outlive its
        # sub-layer's normalisation: one record per sub-layer, in forward order
        contexts, dead = [], []
        layernorm = denoiser._layernorm

        def keeping_refs(*args, **kwargs):
            out, ctx = layernorm(*args, **kwargs)
            contexts.extend(weakref.ref(a) for a in ctx)
            return out, ctx

        def recording(layer):
            def wrapped(*args, **kwargs):
                dead.append(all(ref() is None for ref in contexts))
                return layer(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(denoiser, "_layernorm", keeping_refs)
        for name in ("_attention_forward", "_mlp_forward"):
            monkeypatch.setattr(denoiser, name, recording(getattr(denoiser, name)))
        model, m_t, s = self._batch()
        model.predict(m_t[:2], 140.0, s[:2])
        assert len(contexts) == 10
        assert dead == [True] * 5
