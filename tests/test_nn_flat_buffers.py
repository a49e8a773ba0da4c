"""Flat parameter buffers: bit-identical optimizers and views that stay views.

An :class:`~repro.nn.mlp.MLP` keeps its weights and gradients in two flat
buffers with every layer array a view into them; the optimizers built by
``for_model`` step the whole buffer at once and the target update is one
Polyak expression over it.  These tests pin that rework to the per-array
arithmetic it replaced, bit for bit, and check that no supported operation
silently detaches a layer array from its buffer.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.mlp import MLP, make_actor, make_critic
from repro.nn.optim import SGD, Adam
from repro.nn.serialization import load_mlp, save_mlp
from repro.rl.td3 import TD3Agent, TD3Config

STEPS = 50


def _network(seed=0):
    return make_critic(7, 1, hidden_sizes=(13, 5), rng=np.random.default_rng(seed))


def _bits(arrays):
    return [np.asarray(array).tobytes() for array in arrays]


def _reference_adam(params, grads, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam update as originally written, on copies."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - beta2 ** t
        for param, grad, m_i, v_i in zip(params, grads[t - 1], m, v):
            m_i[...] = beta1 * m_i + (1.0 - beta1) * grad
            v_i[...] = beta2 * v_i + (1.0 - beta2) * grad ** 2
            m_hat = m_i / bias1
            v_hat = v_i / bias2
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def _reference_sgd(params, grads, lr, momentum, steps):
    params = [p.copy() for p in params]
    velocity = [np.zeros_like(p) for p in params]
    for t in range(steps):
        for param, grad, vel in zip(params, grads[t], velocity):
            vel[...] = momentum * vel - lr * grad
            param += vel
    return params


def _gradient_sequence(model, seed):
    rng = np.random.default_rng(seed)
    return [[rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape) for p in model.parameters()]
            for _ in range(STEPS)]


def _run(optimizer, model, grads):
    for step_grads in grads:
        model.zero_grad()
        for grad, value in zip(model.grads(), step_grads):
            grad[...] = value
        optimizer.step()


class TestOptimizersBitIdentical:
    @pytest.mark.parametrize("lr", [1e-3, 0.25])
    def test_flat_adam_equals_per_array_adam(self, lr):
        flat, per_array = _network(1), _network(1)
        grads = _gradient_sequence(flat, seed=2)
        _run(Adam.for_model(flat, lr=lr), flat, grads)
        _run(Adam(per_array.parameters(), per_array.grads(), lr=lr), per_array, grads)
        expected = _reference_adam(_network(1).parameters(), grads, lr, STEPS)
        assert _bits(flat.parameters()) == _bits(per_array.parameters()) == _bits(expected)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_flat_sgd_equals_per_array_sgd(self, momentum):
        flat, per_array = _network(3), _network(3)
        grads = _gradient_sequence(flat, seed=4)
        _run(SGD.for_model(flat, lr=0.01, momentum=momentum), flat, grads)
        _run(SGD(per_array.parameters(), per_array.grads(), lr=0.01, momentum=momentum), per_array, grads)
        expected = _reference_sgd(_network(3).parameters(), grads, 0.01, momentum, STEPS)
        assert _bits(flat.parameters()) == _bits(per_array.parameters()) == _bits(expected)

    def test_for_model_steps_the_buffer_as_one_array(self):
        model = _network()
        optimizer = Adam.for_model(model, lr=1e-3)
        assert len(optimizer.parameters) == 1
        assert optimizer.parameters[0] is model.param_buffer
        assert optimizer.grads[0] is model.grad_buffer

    def test_padding_stays_zero(self):
        model = _network(5)
        grads = _gradient_sequence(model, seed=6)
        _run(Adam.for_model(model, lr=0.1), model, grads)
        covered = np.zeros(model.param_buffer.shape, dtype=bool)
        for param in model.parameters():
            start = (param.__array_interface__["data"][0]
                     - model.param_buffer.__array_interface__["data"][0]) // 8
            covered[start:start + param.size] = True
        assert not covered.all()  # the 13-element bias, for one, is padded to 16
        assert np.all(model.param_buffer[~covered] == 0.0)


class TestPolyakBitIdentical:
    @pytest.mark.parametrize("tau", [0.005, 0.5, 1.0])
    def test_soft_update_equals_per_array_expression(self, tau):
        source, target = _network(7), _network(8)
        target.param_buffer[...] *= -1.0  # some negative weights, signed zeros in the biases
        expected = [tau * s + (1.0 - tau) * t for s, t in zip(source.parameters(), target.parameters())]
        target.soft_update_from(source, tau)
        assert _bits(target.parameters()) == _bits(expected)

    def test_soft_update_rejects_other_architectures(self):
        with pytest.raises(ValueError):
            _network().soft_update_from(make_critic(7, 1, hidden_sizes=(13, 6)), 0.5)


def _assert_views(model):
    for param in model.parameters():
        assert np.shares_memory(param, model.param_buffer)
    for grad in model.grads():
        assert np.shares_memory(grad, model.grad_buffer)
    assert not np.shares_memory(model.param_buffer, model.grad_buffer)


class TestViewsSurvive:
    def test_fresh_network(self):
        _assert_views(_network())

    def test_clone(self):
        model = _network(9)
        clone = model.clone()
        _assert_views(clone)
        assert not np.shares_memory(clone.param_buffer, model.param_buffer)
        assert _bits(clone.parameters()) == _bits(model.parameters())

    def test_set_weights(self):
        model = _network(10)
        model.set_weights(_network(11).get_weights())
        _assert_views(model)
        assert _bits(model.parameters()) == _bits(_network(11).parameters())

    def test_copy_from(self):
        model = _network(12)
        model.copy_from(_network(13))
        _assert_views(model)

    def test_load_mlp(self, tmp_path):
        path = save_mlp(_network(14), tmp_path / "model")
        loaded = load_mlp(path)
        _assert_views(loaded)
        assert _bits(loaded.parameters()) == _bits(_network(14).parameters())

    def test_td3_agent_set_weights(self):
        agent = TD3Agent(TD3Config(state_dim=4, hidden_sizes=(8, 8), seed=0))
        agent.set_weights(TD3Agent(TD3Config(state_dim=4, hidden_sizes=(8, 8), seed=1)).get_weights())
        for network in (agent.actor, agent.critic1, agent.critic2,
                        agent.target_actor, agent.target_critic1, agent.target_critic2):
            _assert_views(network)

    @pytest.mark.parametrize("round_trip", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, round_trip):
        model = _network(15)
        model.grad_buffer[...] = 1.0
        copied = round_trip(model)
        _assert_views(copied)
        assert _bits(copied.parameters()) == _bits(model.parameters())
        Adam.for_model(copied, lr=0.1).step()
        x = np.ones((1, 8))
        assert not np.array_equal(copied.forward(x), model.forward(x))

    def test_zero_grad_clears_every_layer(self):
        model = _network(16)
        model.forward(np.ones((2, 8)))
        model.backward(np.ones((2, 1)))
        assert any(np.any(grad != 0) for grad in model.grads())
        model.zero_grad()
        assert all(np.all(grad == 0) for grad in model.grads())


class TestCloneDrawsNoRandomness:
    def test_clone_does_not_initialize(self, monkeypatch):
        model = make_actor(6, hidden_sizes=(5, 4), rng=np.random.default_rng(17))

        def refuse(*args, **kwargs):
            raise AssertionError("clone() must not create or draw from an RNG")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        clone = model.clone()
        x = np.random.Generator(np.random.PCG64(18)).normal(size=(3, 6))
        assert clone.forward(x).tobytes() == model.forward(x).tobytes()
        assert (clone.hidden_sizes, clone.hidden_activation, clone.output_activation) == \
            (model.hidden_sizes, model.hidden_activation, model.output_activation)

    def test_clone_has_fresh_caches_and_gradients(self):
        model = _network(19)
        model.forward(np.ones((2, 8)))
        model.backward(np.ones((2, 1)))
        clone = model.clone()
        assert all(np.all(grad == 0) for grad in clone.grads())
        with pytest.raises(RuntimeError):
            clone.backward(np.ones((2, 1)))

    def test_clone_layers_are_independent(self):
        model = MLP(3, (4,), 2, hidden_activation="tanh", rng=np.random.default_rng(20))
        clone = model.clone()
        assert all(a is not b for a, b in zip(clone.layers, model.layers))
        clone.param_buffer[...] += 1.0
        x = np.ones((1, 3))
        assert not np.array_equal(clone.forward(x), model.forward(x))
