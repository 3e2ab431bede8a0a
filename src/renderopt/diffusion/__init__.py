"""Preference diffusion: conditional denoising, noise-prediction training,
and deterministic strided inference. The variance schedule, its step rule and
its forward perturbation are `config.NoiseSchedule`."""

from ..config import NoiseSchedule
from .data import INTERACTION_COLUMNS, Standardizer
from .denoiser import (AttentionGatedDenoiser, DenoiserConfig,
                       analytic_gradient_check, loss_and_grads)
from .sampling import interaction_probabilities, reverse_denoise, skip_step_infer
from .training import Adam, TrainResult, TrainSettings, train, write_curve_csv
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "INTERACTION_COLUMNS", "Standardizer", "AttentionGatedDenoiser", "DenoiserConfig",
    "analytic_gradient_check", "loss_and_grads", "interaction_probabilities",
    "reverse_denoise", "skip_step_infer", "NoiseSchedule",
    "Adam", "TrainResult", "TrainSettings", "train",
    "write_curve_csv", "load_checkpoint", "save_checkpoint",
]
