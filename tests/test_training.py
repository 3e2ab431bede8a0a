"""Training loop: loss bounds, convergence, early stopping, determinism, the
weight vector that init, Adam and the checkpoint share, and the workspace a run
trains in."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from oracles import TensorAdam, init_params
from renderopt.diffusion import (Adam, AttentionGatedDenoiser, DenoiserConfig,
                                 NoiseSchedule, TrainSettings, train, training,
                                 write_curve_csv)
from renderopt.diffusion.denoiser import (Workspace, forward, init_weights, loss_and_grads,
                                          param_shapes, split_params)
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
        with pytest.raises(ValueError, match="at least 2 sequences, one to validate on, got 0"):
            train(empty, NoiseSchedule(), TrainSettings(), AttentionGatedDenoiser(TINY))

    def test_one_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least 2 sequences, one to validate on, got 1"):
            train(_tiny_dataset(n=1), NoiseSchedule(), TrainSettings(),
                  AttentionGatedDenoiser(TINY))

    def test_two_sequences_validate_on_the_held_out_one(self):
        m, s = _tiny_dataset(n=2)
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(batch_size=8, epochs=1, seed=5)
        result = train((m, s), schedule, settings, model=AttentionGatedDenoiser(TINY, seed=5))
        # train's first draws: the split, then the fixed validation timestep and noise
        rng = np.random.default_rng(5)
        held_out = rng.permutation(2)[:1]
        t = rng.integers(1, schedule.steps + 1, size=1)
        noise = rng.standard_normal((1,) + m.shape[1:])
        untrained = AttentionGatedDenoiser(TINY, seed=5)
        pred = untrained.predict(schedule.perturb(m[held_out], t, noise), t, s[held_out])
        assert result.history[0].val_loss == float(np.sum((pred - noise) ** 2) / noise.size)

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
        # steps far below the weights' rounding: the validation loss never moves
        settings = TrainSettings(learning_rate=1e-300, batch_size=8, epochs=30,
                                 patience=2, seed=5)
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


def _split_like(tensors: dict, vector: np.ndarray) -> dict:
    """`vector` cut into views shaped as `tensors`, in their order."""
    ends = np.cumsum([t.size for t in tensors.values()])[:-1]
    return {name: part.reshape(t.shape)
            for (name, t), part in zip(tensors.items(), np.split(vector, ends))}


class TestWeightVector:
    """One weight vector reproduces the per-tensor init and Adam of `oracles`
    bit for bit, and its per-tensor views write through to it. The oracles
    keep q, k and v as tensors apart, as checkpoints were written before they
    were one stacked tensor: the bytes of the vector are the same."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(config=small_configs(), seed=st.integers(0, 2**32 - 1))
    def test_init_and_adam_match_per_tensor_oracles(self, config, seed):
        weights = init_weights(config, seed)
        tensors = init_params(config, seed)
        assert _concat(tensors).tobytes() == weights.tobytes()

        rng = np.random.default_rng(seed)
        opt, oracle = Adam(weights.size, 1e-3), TensorAdam(tensors, 1e-3)
        for _ in range(20):
            grad = rng.standard_normal(weights.size) * 10.0 ** rng.integers(-4, 3)
            opt.update(weights, grad.copy())          # `update` uses up its gradient
            oracle.update(tensors, _split_like(tensors, grad))
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


def _run_digest(result) -> tuple:
    return (result.model.weights.tobytes(),
            [(row.train_loss, row.val_loss, row.bucket_losses) for row in result.history])


class TestWorkspace:
    """A run trains in one workspace: every call overwrites what it reads, and
    after the first step no step allocates its activations again."""

    def test_loss_and_grads_in_a_shared_workspace_match_a_fresh_one(self):
        config = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=16, heads=2)
        params = AttentionGatedDenoiser(config, seed=3).params
        workspace = Workspace(config, rows=5)
        rng = np.random.default_rng(4)
        # full, then fewer rows in views of the same buffers, one row last
        for b in (5, 2, 5, 3, 1):
            m_t = rng.standard_normal((b, 8, 6))
            t = rng.integers(1, 700, size=b).astype(np.float64)
            s, target = rng.standard_normal((b, 4)), rng.standard_normal((b, 8, 6))
            loss, grad = loss_and_grads(params, config, m_t, t, s, target, workspace)
            fresh_loss, fresh_grad = loss_and_grads(params, config, m_t, t, s, target)
            assert loss == fresh_loss and grad is workspace.grad
            assert grad.tobytes() == fresh_grad.tobytes()
            pred = forward(params, config, m_t, t, s, workspace=workspace)
            assert pred.tobytes() == forward(params, config, m_t, t, s).tobytes()
        with pytest.raises(ValueError, match="batch of 6 sequences > the workspace's 5 rows"):
            forward(params, config, rng.standard_normal((6, 8, 6)), np.ones(6),
                    np.ones((6, 4)), workspace=workspace)

    def test_evaluation_in_chunks_matches_the_mean_over_the_split(self):
        # chunks of 1, 2, 3, 5 and all 11 rows; at 2 and 5 rows the last chunk is one row
        config = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=16, heads=2)
        model = AttentionGatedDenoiser(config, seed=3)
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        rng = np.random.default_rng(6)
        n = 11
        m, s = rng.standard_normal((n, 8, 6)), rng.standard_normal((n, 4))
        t, noise = rng.integers(1, schedule.steps + 1, size=n), rng.standard_normal((n, 8, 6))
        pred = forward(model.params, config, schedule.perturb(m, t, noise),
                       t.astype(np.float64), s)
        whole = np.mean((pred - noise) ** 2)
        for rows in (1, 2, 3, 5, n):
            loss = training._eval_loss(model, m, s, t, noise, schedule, Workspace(config, rows))
            assert loss == pytest.approx(whole, rel=1e-12, abs=0)

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_batches_of_one_and_two_rerun_alike(self, batch_size):
        # the workspace and every evaluation chunk is then one or two rows
        dataset = _tiny_dataset(n=12)
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(learning_rate=0.01, batch_size=batch_size, epochs=2, seed=5)
        config = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=16, heads=2)
        first, second = (train(dataset, schedule, settings, AttentionGatedDenoiser(config, seed=5))
                         for _ in range(2))
        assert len(first.history) == 3
        assert all(np.isfinite([row.train_loss, row.val_loss]).all() for row in first.history)
        assert _run_digest(first) == _run_digest(second)

    def test_nothing_stale_is_read(self, monkeypatch):
        # every buffer and the gradient vector filled with NaN before each step
        # and each evaluation: the run still matches a fresh one bit for bit
        dataset = _tiny_dataset(n=40)
        schedule = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
        settings = TrainSettings(learning_rate=0.01, batch_size=8, epochs=3, seed=5)
        config = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=16, heads=2)
        fresh = train(dataset, schedule, settings, AttentionGatedDenoiser(config, seed=5))

        def poisoning(real):
            def call(*args):
                workspace = args[-1]
                for buf in workspace.buffers.values():
                    buf.fill(np.nan)
                workspace.grad.fill(np.nan)
                return real(*args)
            return call

        monkeypatch.setattr(training, "loss_and_grads", poisoning(training.loss_and_grads))
        monkeypatch.setattr(training, "_eval_loss", poisoning(training._eval_loss))
        poisoned = train(dataset, schedule, settings, AttentionGatedDenoiser(config, seed=5))
        assert _run_digest(poisoned) == _run_digest(fresh)

    # the first eight are the shapes measured when the count was written, by
    # (d_model, heads, mlp_ratio, L): (64, 4, 2, 16) ... (64, 4, 2, 128); at L
    # 128 `tmp` takes its size from the attention scores, not from L mlp_ratio d
    @example(heads=4, head_width=8, mlp_ratio=2, half_length=8, rows=2, batch=2)
    @example(heads=4, head_width=8, mlp_ratio=2, half_length=16, rows=2, batch=1)
    @example(heads=4, head_width=4, mlp_ratio=2, half_length=8, rows=1, batch=1)
    @example(heads=2, head_width=16, mlp_ratio=2, half_length=8, rows=3, batch=2)
    @example(heads=4, head_width=8, mlp_ratio=4, half_length=8, rows=1, batch=1)
    @example(heads=2, head_width=4, mlp_ratio=2, half_length=2, rows=2, batch=2)
    @example(heads=8, head_width=8, mlp_ratio=2, half_length=4, rows=1, batch=1)
    @example(heads=4, head_width=8, mlp_ratio=2, half_length=64, rows=1, batch=1)
    @hyp_settings(max_examples=40, deadline=None)
    @given(heads=st.integers(1, 4), head_width=st.integers(1, 3), mlp_ratio=st.integers(1, 4),
           half_length=st.integers(1, 12), rows=st.integers(1, 3), batch=st.integers(1, 3))
    def test_row_floats_are_the_workspace_after_one_step(self, heads, head_width, mlp_ratio,
                                                         half_length, rows, batch):
        config = DenoiserConfig(d_model=2 * heads * head_width, heads=heads,
                                mlp_ratio=mlp_ratio)
        seq_len, batch = 2 * half_length, min(batch, rows)
        workspace = Workspace(config, rows)
        rng = np.random.default_rng(0)
        m_t = rng.standard_normal((batch, seq_len, 6))
        loss_and_grads(AttentionGatedDenoiser(config, seed=0).params, config, m_t,
                       np.ones(batch), rng.standard_normal((batch, 4)), m_t, workspace)
        assert (sum(buf.size for buf in workspace.buffers.values())
                == rows * config.row_floats(seq_len))

    # 12.94 MiB when each sub-layer's output, denc, dbot and the attention's dx
    # had buffers of their own; 11.19 MiB when each role kept a buffer per
    # shape, and `cat` and each layernorm's output one of their own; 32
    # buffers when q, k and v had one each
    DROPPED_ROLES = {"enc.attn.out", "enc.mlp.out", "bot.attn.out", "bot.mlp.out",
                     "dec.mlp.out", "denc", "dbot", "attn.dx", "cat", "enc.ln1.y",
                     "enc.ln2.y", "bot.ln1.y", "bot.ln2.y", "dec.ln.y",
                     "enc.attn.q", "enc.attn.k", "enc.attn.v",
                     "bot.attn.q", "bot.attn.k", "bot.attn.v"}

    def test_the_default_workspace_shares_dead_buffers(self, monkeypatch):
        cfg = PlantedConfig()
        dataset, _ = build_training_set(make_population(cfg, seed=0), cfg)
        workspaces = []

        def recorded(*args):
            workspaces.append(args[-1])
            return loss_and_grads(*args)

        monkeypatch.setattr(training, "loss_and_grads", recorded)
        train(dataset, NoiseSchedule(), TrainSettings(epochs=1),
              AttentionGatedDenoiser(DenoiserConfig(), seed=0))
        workspace = workspaces[0]
        assert sum(buf.nbytes for buf in workspace.buffers.values()) <= 8.6 * 2**20
        assert len(workspace.buffers) <= 28
        assert not set(workspace.buffers) & self.DROPPED_ROLES

    def test_steps_after_the_first_keep_a_fixed_footprint(self, monkeypatch):
        # the default config's shapes and batch, over two epochs of 8 steps
        cfg = PlantedConfig()
        dataset, _ = build_training_set(make_population(cfg, seed=0), cfg)
        marks = []                  # (traced now, peak since the previous mark) at each step

        def marked(*args):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return loss_and_grads(*args)

        monkeypatch.setattr(training, "loss_and_grads", marked)
        tracemalloc.start()
        try:
            train(dataset, NoiseSchedule(), TrainSettings(epochs=2),
                  AttentionGatedDenoiser(DenoiserConfig(), seed=0))
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(marks) == 2 * 8 + 1
        # step k runs from mark k to mark k + 1: its batch, loss and gradient,
        # Adam update, and at an epoch's end the validation loss
        rises = [peak - start for (start, _), (_, peak) in zip(marks[1:], marks[2:])]
        assert max(rises) < 1 << 20
        # the first mark's peak is the set-up's, which the epoch-0 evaluation sets
        assert marks[0][1] <= min(peak for _, peak in marks[2:])
