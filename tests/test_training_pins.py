"""Exact-bit pins for certification-in-the-loop training.

Three short :class:`~repro.core.trainer.CanopyTrainer` runs are hashed
(sha256) over the final weights of every network the TD3 agent owns (actor,
both critics, the three target networks) and over the per-window reward
curves.  Together they cover every layer a training step passes through:
the env, QC reward shaping of both action kinds (Δcwnd and P5's fractional
change), the TD3 critic/actor/target updates and the property-regularization
step of both kinds.

The expected digests were recorded before the training step was reworked for
speed (trusted abstract-domain constructors, flat parameter buffers, a cached
certification plan), so any change to what training computes — down to the
last bit of one weight — fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CanopyConfig
from repro.core.properties import all_properties
from repro.core.trainer import CanopyTrainer, TrainerConfig

STEPS = 160

RUNS = {
    # The preset the benchmark trains, reward shaping only.
    "canopy-shallow": (
        lambda: CanopyConfig.shallow(seed=3),
        dict(property_regularization=False),
    ),
    # P1-P5: both checked-action kinds in one certification pass, and the
    # P5 branch of the regularization step.
    "all-properties": (
        lambda: CanopyConfig(name="all", properties=all_properties(), lam=0.3,
                             buffer_bdp=1.0, seed=11),
        dict(property_regularization=True),
    ),
    # Regularization on, with two TD3 updates per step and sparse shaping.
    "canopy-deep-regularized": (
        lambda: CanopyConfig.deep(seed=7),
        dict(property_regularization=True, updates_per_step=2, verifier_every=2),
    ),
}

#: sha256 per run and part, recorded before the training-step rework.
EXPECTED_DIGESTS = {
    "all-properties": {
        "actor": "94c40969e01af3ddfece901ad488a45618ae4d7432e19a22eebe9e9b3f5e7e1f",
        "critics": "39a70336594d4ad5cdd5afc5a6523b3c597b28e7afc681ad8d3d92bb7c659646",
        "targets": "13adf1f7c8c9ae074c1c8f7a0717f68adfe9492ec525cefac5cd728ce100b82d",
        "curves": "fd20a802bb26f2e75044de4557a08b054eb235977f411bfec9105acefe1b7b78",
    },
    "canopy-deep-regularized": {
        "actor": "3ddfdd9d5ac9adfdfc1ddc4e33a9f4863d5835c93a11880dcf5ebe7f1bb427d5",
        "critics": "812211808696c571f8ee9aaafad93d65e62218a589366dc6cc2575bbd3ce9479",
        "targets": "9e53c0e9f9deb057a969ff2cefb59a4db4dcbbc30d8dbbc42d7ee5bf114c5132",
        "curves": "ec9e55ac3f29bb74bc8381fe94c4c00dc3b57231c21c8c91bca65afecca12268",
    },
    "canopy-shallow": {
        "actor": "3119f2486db73e7d75526c60f762e6637b2d4f058d9c57365d387bb31c1f995f",
        "critics": "c87996decdcca6b9f49bda404c6abf712c50036d974ce37814223c19beea6aa5",
        "targets": "f0fbd5bb73b1a5c12105575a7b25b02f476b9740a94516a0bc60f7cdbbe8d359",
        "curves": "22a3a78e180619b2655e40886a7e472e908a49f10eb08d8157adb8ffd1274106",
    },
}


def _digest(arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        hasher.update(repr(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _trainer(name):
    make_config, overrides = RUNS[name]
    return CanopyTrainer(make_config(), TrainerConfig(total_steps=STEPS, log_every=20, **overrides))


def _train(name):
    result = _trainer(name).train()
    agent = result.agent
    curves = result.reward_curves()
    return {
        "actor": _digest(agent.actor.get_weights()),
        "critics": _digest(agent.critic1.get_weights() + agent.critic2.get_weights()),
        "targets": _digest(agent.target_actor.get_weights() + agent.target_critic1.get_weights()
                           + agent.target_critic2.get_weights()),
        "curves": _digest([curves[key] for key in ("step", "raw", "verifier", "total")]),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_training_run_is_bit_identical(name):
    assert _train(name) == EXPECTED_DIGESTS[name]


def test_runs_exercise_td3_updates_and_regularization():
    """The pinned runs are long enough to update every network."""
    trainer = _trainer("all-properties")
    initial = trainer.agent.get_weights()
    initial_target = trainer.agent.target_actor.get_weights()
    trainer.train()
    assert trainer.agent.total_updates > 0
    assert trainer._reg_optimizer._t > 0  # regularization steps were taken
    final = trainer.agent.get_weights()
    for name in ("actor", "critic1", "critic2"):
        assert any(not np.array_equal(a, b) for a, b in zip(initial[name], final[name])), name
    assert any(not np.array_equal(a, b)
               for a, b in zip(initial_target, trainer.agent.target_actor.get_weights()))
