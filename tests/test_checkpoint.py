"""Checkpoint container: fidelity, header validation, cross-load behaviour."""

import json

import numpy as np
import pytest

from renderopt.diffusion import (NoiseSchedule, load_checkpoint, save_checkpoint)
from renderopt.diffusion.checkpoint import FORMAT_VERSION


def test_save_load_preserves_weights_and_predictions(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    loaded, loaded_schedule, loaded_std = load_checkpoint(path)

    assert set(loaded.params) == set(result.model.params)
    for key in result.model.params:
        assert np.array_equal(loaded.params[key], result.model.params[key])
    assert loaded.step_count == result.model.step_count
    assert loaded_schedule.steps == schedule.steps
    assert np.array_equal(loaded_schedule.alpha_bar, schedule.alpha_bar)
    assert np.array_equal(loaded_std.mean, standardizer.mean)

    rng = np.random.default_rng(0)
    m_t = rng.standard_normal((16, 6))
    cond = rng.standard_normal(4)
    assert np.array_equal(loaded.predict(m_t, 140.0, cond),
                          result.model.predict(m_t, 140.0, cond))


def test_unsupported_format_version_rejected(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["format_version"] = FORMAT_VERSION + 1
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(bad)


def test_shape_header_mismatch_rejected(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["param.out.b"] = np.zeros(7)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)


def test_schedule_only_checkpoint_has_no_standardizer(smoke_trained, tmp_path):
    result, _, _ = smoke_trained
    path = tmp_path / "bare.npz"
    save_checkpoint(path, result.model, NoiseSchedule(steps=50, beta_start=0.001,
                                                      beta_end=0.1))
    _, schedule, standardizer = load_checkpoint(path)
    assert schedule.steps == 50
    assert standardizer is None
