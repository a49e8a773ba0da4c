"""Tests for the Canopy trainer (certification in the loop)."""

import numpy as np
import pytest

from repro.core.config import CanopyConfig
from repro.core.properties import all_properties
from repro.core.trainer import CanopyTrainer, TrainerConfig, _sampling_bounds
from repro.orca.observations import ObservationBuilder


def make_trainer(kind="shallow", **overrides):
    factories = {
        "shallow": CanopyConfig.shallow,
        "deep": CanopyConfig.deep,
        "robust": CanopyConfig.robustness,
        "orca": CanopyConfig.orca_baseline,
    }
    config = factories[kind](seed=2)
    defaults = dict(total_steps=60, log_every=20)
    defaults.update(overrides)
    return CanopyTrainer(config, TrainerConfig(**defaults))


class TestTrainerConfig:
    def test_invalid_total_steps(self):
        with pytest.raises(ValueError):
            TrainerConfig(total_steps=0)

    def test_invalid_log_every(self):
        with pytest.raises(ValueError):
            TrainerConfig(log_every=0)

    def test_invalid_regularization(self):
        with pytest.raises(ValueError):
            TrainerConfig(regularization_samples=0)
        with pytest.raises(ValueError):
            TrainerConfig(regularization_margin=-1.0)


class TestTraining:
    def test_history_logged_at_requested_cadence(self):
        result = make_trainer().train()
        assert len(result.history) == 3
        assert [log.step for log in result.history] == [20, 40, 60]

    def test_result_carries_agent_and_policy(self):
        result = make_trainer().train()
        policy = result.policy()
        action = policy(np.zeros(result.agent.config.state_dim))
        assert action.shape == (1,)
        assert -1.0 <= float(action[0]) <= 1.0

    def test_rewards_are_finite_and_bounded(self):
        result = make_trainer().train()
        for log in result.history:
            assert np.isfinite(log.raw_reward)
            assert 0.0 <= log.verifier_reward <= 1.0

    def test_env_steps_counted(self):
        result = make_trainer(total_steps=45).train()
        assert result.env_steps == 45
        assert result.steps_per_second > 0.0

    def test_orca_baseline_skips_verifier_shaping(self):
        trainer = make_trainer("orca", use_verifier_reward=False)
        result = trainer.train()
        # Verifier reward is still measured for the training-curve comparison.
        assert all(0.0 <= log.verifier_reward <= 1.0 for log in result.history)

    def test_progress_callback_invoked(self):
        calls = []
        trainer = make_trainer(progress_callback=calls.append)
        trainer.train()
        assert len(calls) == 3
        assert set(calls[0]) >= {"step", "raw_reward", "verifier_reward"}

    def test_reward_curves_shape(self):
        result = make_trainer().train()
        curves = result.reward_curves()
        assert curves["step"].shape == curves["raw"].shape == curves["verifier"].shape

    def test_final_metrics_empty_history(self):
        from repro.core.trainer import TrainingResult

        empty = TrainingResult(config_name="x")
        assert empty.final_metrics()["raw_reward"] == 0.0
        with pytest.raises(RuntimeError):
            empty.policy()

    def test_verifier_seconds_accounted(self):
        result = make_trainer().train()
        assert 0.0 <= result.verifier_seconds <= result.total_seconds

    def test_regularization_changes_actor(self):
        """With property regularization on, training moves the actor's behavior
        toward property satisfaction relative to the Orca baseline."""
        canopy = make_trainer("shallow", total_steps=200, log_every=100).train()
        orca = make_trainer("orca", total_steps=200, log_every=100,
                            use_verifier_reward=False).train()
        assert canopy.history[-1].verifier_reward >= orca.history[-1].verifier_reward - 0.1

    def test_robust_training_runs(self):
        result = make_trainer("robust", total_steps=40, log_every=20).train()
        assert len(result.history) == 2


class TestRegularizationSamplingBounds:
    def test_bounds_equal_the_region_box_bit_for_bit(self):
        """The sampling bounds are the region box's ``center ∓ deviation``,
        exactly as ``input_region(...).to_interval()`` reports them."""
        observer = ObservationBuilder()
        rng = np.random.default_rng(5)
        raw_differs = False
        for _ in range(200):
            state = rng.uniform(0.0, 1.0, size=observer.state_dim)
            for prop in all_properties():
                lo, hi = _sampling_bounds(prop, state, observer)
                region = prop.input_region(state, observer).to_interval()
                assert lo.shape == hi.shape == (1, observer.state_dim)
                assert lo[0].tobytes() == region.lo.tobytes()
                assert hi[0].tobytes() == region.hi.tobytes()
                raw_lo, _ = prop.input_region_bounds(state[None, :], observer)
                raw_differs |= raw_lo.tobytes() != lo.tobytes()
        # Why the round trip is kept: the raw P5 bounds differ in the last bit.
        assert raw_differs
