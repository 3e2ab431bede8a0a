"""Noise-prediction training with Adam and early stopping.

Training works on the model's one weight vector: `loss_and_grads` returns the
gradient in its layout, `Adam` keeps its moments as vectors of the same
length, and the best epoch's weights are a copy of it, written back at the end.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import NumericalError
from ..settings import TrainSettings
from .denoiser import AttentionGatedDenoiser, loss_and_grads
from .schedule import NoiseSchedule, forward_diffuse

# sequences per predict call when scoring a split; one chunk holds the default
# splits, and summing then dividing once matches np.mean there bit for bit
_EVAL_CHUNK = 256
# equal-width timestep buckets the per-epoch loss is split into
_TIME_BUCKETS = 7
# share of the dataset held out for validation, which early stopping watches
VAL_FRACTION = 0.1


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over one weight vector, with the
    paper's beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, weights: np.ndarray, grad: np.ndarray) -> None:
        self.step += 1
        # 1.0 - 0.9 rounds to another float64 than 0.1 does: keep the subtraction
        self.m = 0.9 * self.m + (1.0 - 0.9) * grad
        self.v = 0.999 * self.v + (1.0 - 0.999) * grad * grad
        mhat = self.m / (1.0 - 0.9 ** self.step)
        vhat = self.v / (1.0 - 0.999 ** self.step)
        weights -= self.lr * mhat / (np.sqrt(vhat) + 1e-8)


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
    """Mean squared noise-prediction error over a split, `_EVAL_CHUNK`
    sequences per `predict` so memory stays flat in the split's size."""
    total = 0.0
    for start in range(0, len(m), _EVAL_CHUNK):
        part = slice(start, start + _EVAL_CHUNK)
        pred = model.predict(forward_diffuse(m[part], t[part], schedule, noise[part]),
                             t[part], s[part])
        total += np.sum((pred - noise[part]) ** 2)
    return float(total / noise.size)


def train(dataset: tuple[np.ndarray, np.ndarray], schedule: NoiseSchedule,
          settings: TrainSettings, model: AttentionGatedDenoiser) -> TrainResult:
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

    n_val = int(round(VAL_FRACTION * n))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]     # n_val < n for any n >= 1
    m_tr, s_tr = m_all[train_idx], s_all[train_idx]
    m_val, s_val = m_all[val_idx], s_all[val_idx]

    opt = Adam(model.weights.size, settings.learning_rate)

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
    best = model.weights.copy()
    stall = 0
    stopped_early = False
    bucket_edges = np.linspace(0, schedule.steps, _TIME_BUCKETS + 1)

    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(len(train_idx))
        losses = []
        bucket_sums = np.zeros(_TIME_BUCKETS)
        bucket_counts = np.zeros(_TIME_BUCKETS)
        for start in range(0, len(order), settings.batch_size):
            idx = order[start:start + settings.batch_size]
            mb, sb = m_tr[idx], s_tr[idx]
            tb = rng.integers(1, schedule.steps + 1, size=len(idx))
            noise = rng.standard_normal(mb.shape)
            m_t = forward_diffuse(mb, tb, schedule, noise)
            loss, grad = loss_and_grads(model.params, model.config, m_t,
                                        tb.astype(np.float64), sb, noise)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"training diverged at epoch {epoch}: loss={loss}"
                )
            opt.update(model.weights, grad)
            model.step_count += 1
            losses.append(loss)
            which = np.clip(np.digitize(tb, bucket_edges) - 1, 0, _TIME_BUCKETS - 1)
            # attribute the batch loss to each timestep bucket it touched
            counts = np.bincount(which, minlength=_TIME_BUCKETS)
            bucket_counts += counts
            bucket_sums += loss * counts

        vl = val_loss()
        buckets = {
            int(bucket_edges[b + 1]): float(bucket_sums[b] / bucket_counts[b])
            for b in range(_TIME_BUCKETS) if bucket_counts[b] > 0
        }
        history.append(EpochStats(epoch=epoch,
                                  train_loss=float(np.mean(losses)),
                                  val_loss=vl,
                                  bucket_losses=buckets))
        if vl < best_val:
            best_val = vl
            best = model.weights.copy()
            stall = 0
        else:
            stall += 1
            if stall >= settings.patience:
                stopped_early = True
                break

    model.weights[:] = best
    return TrainResult(model=model, history=history, stopped_early=stopped_early)


def write_curve_csv(history: list[EpochStats], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss)])


__all__ = ["TrainSettings", "Adam", "EpochStats", "TrainResult", "train",
           "write_curve_csv"]
