"""Variance schedule invariants and forward-process statistics."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles import stepwise_perturb
from renderopt.diffusion import NoiseSchedule, forward_diffuse


class TestScheduleInvariants:
    def test_defaults(self):
        s = NoiseSchedule()
        assert s.steps == 700
        assert s.betas[0] == pytest.approx(0.0001)
        assert s.betas[-1] == pytest.approx(0.04)

    def test_betas_strictly_increasing_in_unit_interval(self):
        s = NoiseSchedule()
        assert np.all(np.diff(s.betas) > 0)
        assert np.all((s.betas > 0) & (s.betas < 1))

    def test_alpha_bar_is_cumulative_product(self):
        s = NoiseSchedule()
        prod = 1.0
        expected = []
        for beta in s.betas:
            prod *= (1.0 - beta)
            expected.append(prod)
        assert np.array_equal(s.alpha_bar, np.array(expected))

    def test_alpha_bar_strictly_decreasing(self):
        s = NoiseSchedule()
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar <= 1))
        assert s.alpha_bar[0] == 1.0 - s.betas[0]

    def test_terminal_signal_power_negligible(self):
        s = NoiseSchedule()
        assert s.alpha_bar[-1] < 1e-5

    @hyp_settings(max_examples=30, deadline=None)
    @given(steps=st.integers(2, 60), b0=st.floats(1e-5, 1e-2),
           spread=st.floats(1e-3, 0.5))
    def test_invariants_hold_for_any_valid_schedule(self, steps, b0, spread):
        s = NoiseSchedule(steps=steps, beta_start=b0, beta_end=min(b0 + spread, 0.99))
        assert np.all(np.diff(s.betas) > 0)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[0] == 1.0 - s.betas[0]

    def test_step_cap_is_inclusive(self):
        assert NoiseSchedule(steps=100_000).alpha_bar.nbytes == 800_000

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(steps=0)
        with pytest.raises(ValueError, match=r"^steps: must be an integer in \[1, 100000\]"):
            NoiseSchedule(steps=100_001)
        with pytest.raises(ValueError):
            NoiseSchedule(beta_start=0.05, beta_end=0.01)
        with pytest.raises(ValueError):
            NoiseSchedule(beta_start=0.0, beta_end=0.01)


class TestForwardDiffuse:
    def test_near_identity_at_tiny_first_step(self):
        s = NoiseSchedule(steps=10, beta_start=1e-12, beta_end=1e-11)
        m = np.ones((4, 3))
        out = forward_diffuse(m, 1, s, np.full((4, 3), 5.0))
        assert np.allclose(out, m, atol=1e-5)

    def test_zero_signal_leaves_scaled_noise(self):
        s = NoiseSchedule()
        noise = np.random.default_rng(0).standard_normal((8, 6))
        out = forward_diffuse(np.zeros((8, 6)), 350, s, noise)
        assert np.array_equal(out, np.sqrt(1.0 - s.alpha_bar[349]) * noise)

    def test_terminal_output_statistically_standard_normal(self):
        s = NoiseSchedule()
        rng = np.random.default_rng(1)
        m = np.full(10_000, 0.8)
        noise = rng.standard_normal(10_000)
        out = forward_diffuse(m, 700, s, noise)
        n = out.size
        assert abs(out.mean()) < 3.0 / np.sqrt(n) + np.sqrt(s.alpha_bar[-1]) * 0.8
        assert abs(out.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros((4, 3)), 10, NoiseSchedule(), np.zeros((3, 4)))

    def test_step_bounds(self):
        s = NoiseSchedule()
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros(3), 0, s, np.zeros(3))
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros(3), 701, s, np.zeros(3))

    def test_per_sample_steps_match_one_call_per_sample(self):
        s = NoiseSchedule()
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 16, 6))
        noise = rng.standard_normal(m.shape)
        t = np.array([1, 140, 350, 699, 700])
        batch = forward_diffuse(m, t, s, noise)
        for i, step in enumerate(t):
            assert np.array_equal(batch[i], forward_diffuse(m[i], int(step), s, noise[i]))
            ab = s.alpha_bar[step - 1]
            assert np.array_equal(batch[i], np.sqrt(ab) * m[i] + np.sqrt(1.0 - ab) * noise[i])
        with pytest.raises(ValueError):
            forward_diffuse(m, np.array([1, 2, 3, 4, 701]), s, noise)


def test_stepwise_chain_matches_closed_form_marginal():
    """Composed single-step perturbations agree with the one-shot marginal in
    mean and variance, within 3-sigma estimator bands over 10^4 chains."""
    s = NoiseSchedule()
    t = 300
    m0 = 0.7
    n = 10_000
    rng = np.random.default_rng(5)
    x = np.full(n, m0)
    for step in range(t):
        beta = s.betas[step]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(n)
    ab = s.alpha_bar[t - 1]
    want_mean = np.sqrt(ab) * m0
    want_var = 1.0 - ab
    sd = np.sqrt(want_var)
    assert abs(x.mean() - want_mean) < 3.0 * sd / np.sqrt(n)
    assert abs(x.var() - want_var) < 3.0 * want_var * np.sqrt(2.0 / n)


def test_stepwise_helper_matches_direct_chain():
    s = NoiseSchedule(steps=50, beta_start=0.001, beta_end=0.1)
    m = np.ones((2, 3))
    a = stepwise_perturb(m, 20, s, np.random.default_rng(9))
    b = stepwise_perturb(m, 20, s, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == m.shape
