"""Planted-population generator: determinism and structure."""

import numpy as np
import pytest

from renderopt.synthetic import (LATENT_DIM, PlantedConfig, build_training_set,
                                 make_population)


def test_seed_reuse_reproduces_population():
    cfg = PlantedConfig(n_users=8)
    a = make_population(cfg, seed=3)
    b = make_population(cfg, seed=3)
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.sequence_raw, ub.sequence_raw)
        assert np.array_equal(ua.item_features, ub.item_features)
        assert np.array_equal(ua.interest_flags, ub.interest_flags)


def test_disjoint_seeds_differ():
    cfg = PlantedConfig(n_users=4)
    base = make_population(cfg, seed=0)
    for seed in range(1, 11):
        other = make_population(cfg, seed=seed)
        assert not np.array_equal(base[0].sequence_raw, other[0].sequence_raw)


def test_interest_fraction_is_exact_top_k():
    cfg = PlantedConfig(n_users=6, n_items=30, interest_fraction=0.3)
    for user in make_population(cfg, seed=1):
        assert user.interest_flags.sum() == 9
        scores = user.item_features @ user.taste
        assert scores[user.interest_flags].min() >= scores[~user.interest_flags].max()


def test_training_set_is_column_standardized():
    cfg = PlantedConfig(n_users=128)
    users = make_population(cfg, seed=5)
    (features, conditions), standardizer = build_training_set(users, cfg)
    assert features.shape == (128, cfg.seq_len, 6)
    stacked = features.reshape(-1, 6)
    assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-6)
    assert standardizer.mean.shape == (6,)
    assert np.array_equal(conditions, np.stack([u.condition for u in users]))
    for user, row in zip(users, features):
        assert np.array_equal(row, standardizer.transform(user.sequence_raw))


def test_items_live_in_latent_space():
    cfg = PlantedConfig(n_users=1, n_items=17)
    user = make_population(cfg, seed=2)[0]
    assert user.item_features.shape == (17, LATENT_DIM)
    assert user.condition.shape == (4,)


def test_feature_count_pinned():
    with pytest.raises(ValueError):
        PlantedConfig(n_features=5)
    with pytest.raises(ValueError):
        PlantedConfig(interest_fraction=1.5)
