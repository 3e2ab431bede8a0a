"""Noise-prediction training with Adam and early stopping."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import NumericalError, check
from .denoiser import AttentionGatedDenoiser, loss_and_grads
from .schedule import NoiseSchedule, forward_diffuse


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float = 0.0001
    batch_size: int = 32
    epochs: int = 20
    patience: int = 5
    min_delta: float = 0.0             # smallest val improvement that resets patience
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check(self.learning_rate > 0, "learning_rate", "a positive number", self.learning_rate)
        for name in ("batch_size", "epochs", "patience"):
            check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))
        check(self.min_delta >= 0, "min_delta", "a non-negative number", self.min_delta)
        check(0 <= self.val_fraction < 1, "val_fraction", "in [0, 1)", self.val_fraction)


class Adam:
    """Adaptive moment optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1c = 1.0 - self.beta1 ** self.step
        b2c = 1.0 - self.beta2 ** self.step
        for k in sorted(params):
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    bucket_losses: dict[int, float] = field(default_factory=dict)


@dataclass
class TrainResult:
    model: AttentionGatedDenoiser
    history: list[EpochStats]
    stopped_early: bool


def _eval_loss(model: AttentionGatedDenoiser, m: np.ndarray, s: np.ndarray,
               t: np.ndarray, noise: np.ndarray, schedule: NoiseSchedule) -> float:
    pred = model.predict(forward_diffuse(m, t, schedule, noise), t, s)
    return float(np.mean((pred - noise) ** 2))


def train(dataset: tuple[np.ndarray, np.ndarray], schedule: NoiseSchedule,
          settings: TrainSettings, model: AttentionGatedDenoiser,
          n_time_buckets: int = 7) -> TrainResult:
    """Train `model` in place to predict injected noise.

    `dataset` is the pair (standardized sequences (N, L, F), conditions
    (N, C)) that `synthetic.build_training_set` returns. Per batch: draw
    timesteps uniformly, draw Gaussian noise, perturb with the closed-form
    marginal, and minimize MSE between the drawn and predicted noise. Validation uses timestep/noise draws fixed once up front so its
    loss is comparable across epochs; training stops when it fails to improve
    for `patience` epochs. Fully deterministic for a given settings.seed.
    """
    m_all, s_all = dataset
    n = m_all.shape[0]
    if n == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(settings.seed)

    n_val = int(round(settings.val_fraction * n))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split left no training samples")
    m_tr, s_tr = m_all[train_idx], s_all[train_idx]
    m_val, s_val = m_all[val_idx], s_all[val_idx]

    opt = Adam(model.params, settings.learning_rate)

    # fixed evaluation draws (validation and the epoch-0 reference on train)
    t_val = rng.integers(1, schedule.steps + 1, size=max(len(val_idx), 1))
    noise_val = rng.standard_normal((max(len(val_idx), 1),) + m_all.shape[1:])
    t_ref = rng.integers(1, schedule.steps + 1, size=len(train_idx))
    noise_ref = rng.standard_normal(m_tr.shape)

    def val_loss() -> float:
        if len(val_idx) == 0:
            return _eval_loss(model, m_tr, s_tr, t_ref, noise_ref, schedule)
        return _eval_loss(model, m_val, s_val, t_val, noise_val, schedule)

    history: list[EpochStats] = [
        EpochStats(epoch=0,
                   train_loss=_eval_loss(model, m_tr, s_tr, t_ref, noise_ref, schedule),
                   val_loss=val_loss())
    ]
    best_val = history[0].val_loss
    best_params = {k: v.copy() for k, v in model.params.items()}
    stall = 0
    stopped_early = False
    bucket_edges = np.linspace(0, schedule.steps, n_time_buckets + 1)

    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(train_idx))
        losses = []
        bucket_sums = np.zeros(n_time_buckets)
        bucket_counts = np.zeros(n_time_buckets)
        for start in range(0, len(order), settings.batch_size):
            idx = order[start:start + settings.batch_size]
            mb, sb = m_tr[idx], s_tr[idx]
            tb = rng.integers(1, schedule.steps + 1, size=len(idx))
            noise = rng.standard_normal(mb.shape)
            m_t = forward_diffuse(mb, tb, schedule, noise)
            loss, grads = loss_and_grads(model.params, model.config, m_t,
                                         tb.astype(np.float64), sb, noise)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"training diverged at epoch {epoch}: loss={loss}"
                )
            opt.update(model.params, grads)
            model.step_count += 1
            losses.append(loss)
            which = np.clip(np.digitize(tb, bucket_edges) - 1, 0, n_time_buckets - 1)
            for b in which:
                bucket_counts[b] += 1
            # attribute the batch loss to each timestep bucket it touched
            for b in np.unique(which):
                bucket_sums[b] += loss * np.sum(which == b)

        vl = val_loss()
        buckets = {
            int(bucket_edges[b + 1]): float(bucket_sums[b] / bucket_counts[b])
            for b in range(n_time_buckets) if bucket_counts[b] > 0
        }
        history.append(EpochStats(epoch=epoch,
                                  train_loss=float(np.mean(losses)),
                                  val_loss=vl,
                                  bucket_losses=buckets))
        if vl < best_val - settings.min_delta:
            best_val = vl
            best_params = {k: v.copy() for k, v in model.params.items()}
            stall = 0
        else:
            stall += 1
            if stall >= settings.patience:
                stopped_early = True
                break

    model.params = best_params
    return TrainResult(model=model, history=history, stopped_early=stopped_early)


def write_curve_csv(history: list[EpochStats], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss)])


__all__ = ["TrainSettings", "Adam", "EpochStats", "TrainResult", "train",
           "write_curve_csv"]
