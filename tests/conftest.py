"""Shared fixtures: the desk-scale smoke-trained model and held-out users.

Training runs once per session (a few seconds) and is reused by the training,
sampling, bench, and acceptance tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig,
                                 NoiseSchedule, TrainSettings, train)
from renderopt.synthetic import PlantedConfig, build_training_set, make_population

SMOKE_USERS = 256
SMOKE_SEED = 101
SMOKE_TRAIN = TrainSettings(learning_rate=0.003, batch_size=32, epochs=20,
                            patience=5, seed=0)
SMOKE_WIDTH = DenoiserConfig(feature_dim=6, cond_dim=4, d_model=64, heads=4)
EVAL_USERS_SEED = 707
T_NOISE = 140
STRIDE = 35
# the config of acceptance criterion 7; scripts/artifact_digests.py keeps a copy,
# which tests/test_tooling.py checks against this one
CRITERION_7 = {
    "diffusion": {"dataset_users": 48, "epochs": 3, "learning_rate": 0.003,
                  "d_model": 16, "heads": 2},
    "bench": {"scenes": 4,
              "train": {"users": 48, "epochs": 3, "learning_rate": 0.003,
                        "batch_size": 32, "patience": 5}},
}


@pytest.fixture(scope="session")
def smoke_trained():
    """(train result, schedule, standardizer) for the 256-user planted set."""
    cfg = PlantedConfig(n_users=SMOKE_USERS)
    users = make_population(cfg, seed=SMOKE_SEED)
    dataset, standardizer = build_training_set(users, cfg)
    schedule = NoiseSchedule()
    model = AttentionGatedDenoiser(SMOKE_WIDTH, seed=0)
    result = train(dataset, schedule, SMOKE_TRAIN, model=model)
    return result, schedule, standardizer


@pytest.fixture(scope="session")
def eval_users():
    """20 held-out planted users, disjoint from the training population."""
    cfg = PlantedConfig(n_users=20)
    return make_population(cfg, seed=EVAL_USERS_SEED)


@pytest.fixture(scope="session")
def eval_noise():
    """Frozen perturbation noise per held-out user."""
    rng = np.random.default_rng(42)
    cfg = PlantedConfig(n_users=1)
    return [rng.standard_normal((cfg.seq_len, cfg.n_features)) for _ in range(20)]
