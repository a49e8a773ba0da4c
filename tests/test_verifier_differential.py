"""Differential tests: the batched certification engine vs the scalar reference.

``Verifier.certify_decisions`` propagates every (decision, property,
component) row of a call in row-budget passes, and ``certify``,
``certify_all`` and ``verifier_feedback`` are its one-decision cases;
``Verifier.certify_reference`` retains the original one-component-at-a-time
path.  Over randomized (MLP shape, property, decision context) draws the two
must produce numerically identical certificates — same proofs, same Eq. 6
feedback, same component bounds — to within ``ATOL`` (the only permitted
difference is matmul summation order).
"""

import numpy as np
import pytest

from repro.core.properties import (
    all_properties,
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
)
from repro.core.verifier import ROW_BUDGET, Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig

ATOL = 1e-12
N_SEEDS = 24

PROPERTY_FACTORIES = (
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
)


def random_setup(seed):
    """A random (actor, decision context, partition count) draw."""
    rng = np.random.default_rng(seed)
    obs_config = ObservationConfig()
    depth = int(rng.integers(1, 4))
    hidden_sizes = tuple(int(rng.integers(4, 33)) for _ in range(depth))
    actor = make_actor(obs_config.state_dim, hidden_sizes=hidden_sizes, rng=rng)
    state = rng.uniform(0.0, 1.0, obs_config.state_dim)
    cwnd_tcp = float(rng.uniform(5.0, 200.0))
    cwnd_prev = float(rng.uniform(5.0, 200.0))
    n_components = int(rng.integers(1, 13))
    return obs_config, actor, state, cwnd_tcp, cwnd_prev, n_components


def assert_certificates_identical(batched, reference):
    assert batched.property_name == reference.property_name
    assert batched.applicable == reference.applicable
    assert batched.allowed_lo == reference.allowed_lo
    assert batched.allowed_hi == reference.allowed_hi
    assert batched.n_components == reference.n_components
    for got, expected in zip(batched.components, reference.components):
        assert got.index == expected.index
        assert got.satisfied == expected.satisfied
        np.testing.assert_allclose(got.input_lo, expected.input_lo, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(got.input_hi, expected.input_hi, rtol=0.0, atol=ATOL)
        assert got.output_lo == pytest.approx(expected.output_lo, rel=0.0, abs=ATOL)
        assert got.output_hi == pytest.approx(expected.output_hi, rel=0.0, abs=ATOL)
        assert got.feedback == pytest.approx(expected.feedback, rel=0.0, abs=ATOL)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_certify_differential(seed):
    """Batched certify == scalar certify_reference for every property."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    for factory in PROPERTY_FACTORIES:
        prop = factory()
        batched = verifier.certify(prop, state, cwnd_tcp, cwnd_prev)
        reference = verifier.certify_reference(prop, state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_certify_all_and_feedback_differential(seed):
    obs_config, actor, state, cwnd_tcp, cwnd_prev, n = random_setup(seed + 1000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n))
    properties = all_properties()

    batched = verifier.certify_all(properties, state, cwnd_tcp, cwnd_prev)
    reference = verifier.certify_all_reference(properties, state, cwnd_tcp, cwnd_prev)
    assert set(batched) == set(reference)
    for name in batched:
        assert_certificates_identical(batched[name], reference[name])

    feedback = verifier.verifier_feedback(properties, state, cwnd_tcp, cwnd_prev)
    feedback_reference = verifier.verifier_feedback_reference(properties, state, cwnd_tcp, cwnd_prev)
    assert feedback == pytest.approx(feedback_reference, rel=0.0, abs=ATOL)


@pytest.mark.parametrize("seed", range(4))
def test_certify_differential_at_evaluation_scale(seed):
    """The paper's evaluation setting: N=50 components."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, _ = random_setup(seed + 2000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=50))
    for factory in (property_p1, property_p5):
        prop = factory()
        assert_certificates_identical(
            verifier.certify(prop, state, cwnd_tcp, cwnd_prev),
            verifier.certify_reference(prop, state, cwnd_tcp, cwnd_prev),
        )


def test_certify_differential_with_applicability_gating():
    """Both paths agree on non-applicable certificates when gating is on."""
    obs_config, actor, state, cwnd_tcp, cwnd_prev, _ = random_setup(3000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=4, check_applicability=True))
    gated_state = state.copy()
    for idx in verifier.observer.feature_indices("dcwnd"):
        gated_state[idx] = 0.5  # history of increases gates the dcwnd<=0 properties
    for factory in (property_p1, property_p2):
        batched = verifier.certify(factory(), gated_state, cwnd_tcp, cwnd_prev)
        reference = verifier.certify_reference(factory(), gated_state, cwnd_tcp, cwnd_prev)
        assert_certificates_identical(batched, reference)


def random_decisions(rng, observer, n_decisions, mixed_history=False):
    """Per-decision states and windows; ``mixed_history`` flips the past-Δcwnd
    sign of every other decision so applicability gating differs by row."""
    states = rng.uniform(0.0, 1.0, (n_decisions, observer.state_dim))
    if mixed_history:
        states[::2, observer.feature_indices("dcwnd")] *= -1.0
    cwnd_tcp = rng.uniform(5.0, 200.0, n_decisions)
    cwnd_prev = rng.uniform(5.0, 200.0, n_decisions)
    return states, cwnd_tcp, cwnd_prev


@pytest.mark.parametrize("seed,layout,gating", [
    *[(seed, "few", False) for seed in range(N_SEEDS)],
    *[(seed, "passes", False) for seed in range(4)],
    *[(seed, "passes", True) for seed in range(4)],
])
def test_certify_decisions_differential(seed, layout, gating):
    """The decision-batched entry == certify_reference per (decision, property).

    All six properties are mixed in one call, every decision has its own
    ``cwnd_tcp``/``cwnd_prev``, and the ``passes`` layout certifies enough
    decisions to span three row-budget passes.
    """
    obs_config, actor, _, _, _, n = random_setup(seed + 4000)
    rng = np.random.default_rng(seed + 5000)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=n, check_applicability=gating))
    properties = [factory() for factory in PROPERTY_FACTORIES]
    per_pass = max(1, ROW_BUDGET // (len(properties) * n))
    n_decisions = 2 * per_pass + 1 if layout == "passes" else int(rng.integers(2, 6))
    states, cwnd_tcp, cwnd_prev = random_decisions(rng, verifier.observer, n_decisions,
                                                   mixed_history=gating)

    batched = verifier.certify_decisions(properties, states, cwnd_tcp, cwnd_prev)
    assert len(batched) == n_decisions
    for i, per_decision in enumerate(batched):
        assert len(per_decision) == len(properties)
        for prop, certificate in zip(properties, per_decision):
            reference = verifier.certify_reference(prop, states[i], cwnd_tcp[i], cwnd_prev[i])
            assert_certificates_identical(certificate, reference)
    if gating:
        applicable = [certificate.applicable for per_decision in batched for certificate in per_decision]
        assert any(applicable) and not all(applicable)
