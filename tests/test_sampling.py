"""Deterministic reverse process and the probability readout."""

import numpy as np
import pytest

from conftest import STRIDE, T_NOISE
from renderopt.diffusion import (NoiseSchedule, interaction_probabilities,
                                 reverse_denoise, skip_step_infer)
from renderopt.diffusion.sampling import reconstruct_preferences


def _start_state(schedule, seed=0, shape=(16, 6)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(4)


class TestSkipStep:
    def test_stride_one_equals_dense_loop_bitwise(self, smoke_trained):
        result, schedule, _ = smoke_trained
        small = NoiseSchedule(steps=40, beta_start=schedule.beta_start,
                              beta_end=schedule.beta_end)
        m_start, s = _start_state(small)
        dense = reverse_denoise(result.model, m_start, s, small)
        strided = skip_step_infer(result.model, m_start, s, small, stride=1)
        assert np.array_equal(dense, strided)

    def test_full_stride_is_single_shot_formula(self, smoke_trained):
        result, schedule, _ = smoke_trained
        m_start, s = _start_state(schedule, seed=3)
        got = skip_step_infer(result.model, m_start, s, schedule,
                              stride=schedule.steps)
        eps = result.model.predict(m_start, float(schedule.steps), s)
        ab = schedule.alpha_bar[-1]
        want = (m_start - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        assert np.array_equal(got, want)

    def test_strided_reconstruction_matches_dense_within_ten_percent(
            self, smoke_trained, eval_users, eval_noise):
        result, schedule, standardizer = smoke_trained
        user = eval_users[0]
        feats = standardizer.transform(user.sequence_raw)
        m_top = np.sqrt(schedule.alpha_bar[-1]) * feats \
            + np.sqrt(1.0 - schedule.alpha_bar[-1]) * eval_noise[0]

        before = result.model.call_count
        coarse = skip_step_infer(result.model, m_top, user.condition, schedule, stride=35)
        coarse_calls = result.model.call_count - before

        before = result.model.call_count
        fine = skip_step_infer(result.model, m_top, user.condition, schedule, stride=1)
        fine_calls = result.model.call_count - before

        assert coarse_calls == 20
        assert fine_calls == 700
        err_coarse = float(np.linalg.norm(coarse - feats))
        err_fine = float(np.linalg.norm(fine - feats))
        assert abs(err_coarse - err_fine) / err_fine < 0.10

    def test_inference_deterministic(self, smoke_trained):
        result, schedule, _ = smoke_trained
        m_start, s = _start_state(schedule, seed=5)
        a = skip_step_infer(result.model, m_start, s, schedule, stride=35)
        b = skip_step_infer(result.model, m_start, s, schedule, stride=35)
        assert np.array_equal(a, b)

    def test_stride_validation(self, smoke_trained):
        result, schedule, _ = smoke_trained
        m_start, s = _start_state(schedule)
        with pytest.raises(ValueError):
            skip_step_infer(result.model, m_start, s, schedule, stride=0)
        with pytest.raises(ValueError):
            skip_step_infer(result.model, m_start, s, schedule, stride=33)
        with pytest.raises(ValueError):
            skip_step_infer(result.model, m_start, s, schedule, stride=35, t_start=800)

    def test_intermediate_start_preserves_user_signal(self, smoke_trained, eval_users,
                                                      eval_noise):
        # noising to an intermediate step then denoising should land closer to
        # the user's sequence than the all-noise start does
        result, schedule, standardizer = smoke_trained
        user = eval_users[1]
        feats = standardizer.transform(user.sequence_raw)
        mid = reconstruct_preferences(result.model, schedule, feats, user.condition,
                                      T_NOISE, STRIDE, eval_noise[1])
        top = reconstruct_preferences(result.model, schedule, feats, user.condition,
                                      schedule.steps, STRIDE, eval_noise[1])
        assert np.linalg.norm(mid - feats) < np.linalg.norm(top - feats)


class TestInteractionProbabilities:
    def test_zero_block_gives_half(self):
        m_hat = np.zeros((8, 6))
        items = np.random.default_rng(0).standard_normal((12, 3))
        idx, probs = interaction_probabilities(m_hat, items, (0, 1, 2))
        assert np.array_equal(idx, np.arange(12))
        assert np.all(probs == 0.5)

    def test_probabilities_strictly_inside_unit_interval(self):
        m_hat = np.zeros((4, 6))
        m_hat[:, 0] = 1e9
        items = np.array([[1e9, 0.0, 0.0], [-1e9, 0.0, 0.0]])
        _, probs = interaction_probabilities(m_hat, items, (0, 1, 2))
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interaction_probabilities(np.zeros((4, 6)), np.zeros((5, 2)), (0, 1, 2))

    def test_planted_interest_ranks_above_noninterest(self, smoke_trained,
                                                      eval_users, eval_noise):
        result, schedule, standardizer = smoke_trained
        margins = []
        for user, noise in zip(eval_users, eval_noise):
            feats = standardizer.transform(user.sequence_raw)
            m_hat_std = reconstruct_preferences(result.model, schedule, feats,
                                                user.condition, T_NOISE, STRIDE, noise)
            m_hat = standardizer.inverse(m_hat_std)
            idx, probs = interaction_probabilities(m_hat, user.item_features, (0, 1, 2))
            flags = user.interest_flags[idx]
            margins.append(probs[flags].mean() - probs[~flags].mean())
        assert np.mean(margins) > 0
