"""Training loop: loss bounds, convergence, early stopping, determinism, and
the weight vector that init, Adam and the checkpoint share."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles import TensorAdam, init_params
from renderopt.diffusion import (Adam, AttentionGatedDenoiser, DenoiserConfig,
                                 NoiseSchedule, TrainSettings, train, write_curve_csv)
from renderopt.diffusion.denoiser import (forward, init_weights, loss_and_grads, param_shapes,
                                          split_params)
from renderopt.errors import NumericalError
from renderopt.synthetic import PlantedConfig, build_training_set, make_population

TINY = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=8, heads=2)


def _tiny_dataset(n=24, seed=0):
    cfg = PlantedConfig(n_users=n)
    users = make_population(cfg, seed=seed)
    dataset, _ = build_training_set(users, cfg)
    return dataset


class TestLossBounds:
    def test_perfect_noise_prediction_scores_zero(self):
        model = AttentionGatedDenoiser(TINY, seed=0)
        rng = np.random.default_rng(1)
        m_t = rng.standard_normal((4, 8, 6))
        t = rng.integers(1, 700, size=4).astype(np.float64)
        s = rng.standard_normal((4, 4))
        oracle_target = forward(model.params, TINY, m_t, t, s)
        loss, _ = loss_and_grads(model.params, TINY, m_t, t, s, oracle_target)
        assert loss == 0.0

    def test_zero_output_model_scores_unit_mse_on_standard_noise(self):
        model = AttentionGatedDenoiser(TINY, seed=0)
        for tensor in model.params.values():
            tensor[...] = 0.0
        rng = np.random.default_rng(2)
        m_t = rng.standard_normal((64, 8, 6))
        t = rng.integers(1, 700, size=64).astype(np.float64)
        s = rng.standard_normal((64, 4))
        noise = rng.standard_normal(m_t.shape)
        assert np.array_equal(forward(model.params, TINY, m_t, t, s),
                              np.zeros_like(m_t))
        loss, _ = loss_and_grads(model.params, TINY, m_t, t, s, noise)
        assert loss == pytest.approx(1.0, rel=0.05)


class TestSmokeTraining:
    def test_planted_training_halves_the_loss(self, smoke_trained):
        result, _, _ = smoke_trained
        history = result.history
        assert history[0].epoch == 0
        assert len(history) - 1 <= 20
        assert history[-1].train_loss <= 0.5 * history[0].train_loss

    def test_validation_tracked_every_epoch(self, smoke_trained):
        result, _, _ = smoke_trained
        for row in result.history:
            assert np.isfinite(row.train_loss) and np.isfinite(row.val_loss)

    def test_timestep_bucket_losses_recorded(self, smoke_trained):
        result, _, _ = smoke_trained
        assert result.history[1].bucket_losses
        assert all(v > 0 for v in result.history[1].bucket_losses.values())

    def test_conditioning_is_not_degenerate(self, smoke_trained):
        result, _, _ = smoke_trained
        model = result.model
        rng = np.random.default_rng(8)
        changed = 0
        trials = 40
        for _ in range(trials):
            m_t = rng.standard_normal((16, 6))
            s1 = rng.standard_normal(4)
            s2 = rng.standard_normal(4)
            a = model.predict(m_t, 140.0, s1)
            b = model.predict(m_t, 140.0, s2)
            if np.mean(np.abs(a - b)) > 0:
                changed += 1
        assert changed >= 0.95 * trials


class TestTrainMechanics:
    def test_empty_dataset_rejected(self):
        empty = (np.zeros((0, 16, 6)), np.zeros((0, 4)))
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            train(empty, NoiseSchedule(), TrainSettings(), AttentionGatedDenoiser(TINY))

    def test_deterministic_given_seed(self):
        dataset = _tiny_dataset()
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(learning_rate=0.01, batch_size=8, epochs=2, seed=5)
        a = train(dataset, schedule, settings, model=AttentionGatedDenoiser(TINY, seed=5))
        b = train(dataset, schedule, settings, model=AttentionGatedDenoiser(TINY, seed=5))
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        for k in a.model.params:
            assert np.array_equal(a.model.params[k], b.model.params[k])

    def test_early_stopping_on_stalled_validation(self):
        dataset = _tiny_dataset()
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(learning_rate=1e-12, batch_size=8, epochs=30,
                                 patience=2, min_delta=1e-6, seed=5)
        result = train(dataset, schedule, settings,
                       model=AttentionGatedDenoiser(TINY, seed=5))
        assert result.stopped_early
        assert len(result.history) - 1 < 30

    def test_divergent_learning_rate_raises(self):
        dataset = _tiny_dataset()
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(learning_rate=1e160, batch_size=8, epochs=3, seed=5)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            train(dataset, schedule, settings,
                  model=AttentionGatedDenoiser(TINY, seed=5))

    def test_curve_csv_schema(self, smoke_trained, tmp_path):
        result, _, _ = smoke_trained
        path = tmp_path / "curve.csv"
        write_curve_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == len(result.history) + 1


@st.composite
def small_configs(draw):
    heads = draw(st.integers(1, 3))
    return DenoiserConfig(feature_dim=draw(st.integers(1, 6)),
                          cond_dim=draw(st.integers(1, 5)),
                          d_model=2 * heads * draw(st.integers(1, 3)),
                          heads=heads, mlp_ratio=draw(st.integers(1, 3)))


def _concat(tensors: dict) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors.values()])


class TestWeightVector:
    """One weight vector reproduces the per-tensor init and Adam of `oracles`
    bit for bit, and its per-tensor views write through to it."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32 - 1))
    def test_init_and_adam_match_per_tensor_oracles(self, config, seed):
        weights = init_weights(config, seed)
        tensors = init_params(config, seed)
        assert list(tensors) == list(param_shapes(config))
        assert _concat(tensors).tobytes() == weights.tobytes()

        rng = np.random.default_rng(seed)
        opt, oracle = Adam(weights.size, 1e-3), TensorAdam(tensors, 1e-3)
        for _ in range(20):
            grad = rng.standard_normal(weights.size) * 10.0 ** rng.integers(-4, 3)
            opt.update(weights, grad)
            oracle.update(tensors, split_params(config, grad))
        assert _concat(tensors).tobytes() == weights.tobytes()

    @hyp_settings(max_examples=20, deadline=None)
    @given(config=small_configs())
    def test_views_write_through_in_layout_order(self, config):
        weights = init_weights(config, 0)
        views = split_params(config, weights)
        for i, view in enumerate(views.values()):
            view[...] = i
        sizes = [int(np.prod(shape)) for shape in param_shapes(config).values()]
        assert np.array_equal(weights, np.repeat(np.arange(len(sizes)), sizes))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="weight vector shape"):
            split_params(TINY, np.zeros(3))
