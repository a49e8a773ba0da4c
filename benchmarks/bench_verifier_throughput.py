"""Verifier throughput — batched certification engine vs the scalar reference.

The quantitative-certificate pipeline dominates Canopy's runtime: the paper
evaluates with N=50 components per property at every coarse-grained decision.
The batched engine propagates every component of a call as rows of one
box through the actor instead of looping components in Python.  This
benchmark measures three paths on identical decision contexts: the scalar
reference, one ``certify`` call per (decision, property), and one
``certify_decisions`` call for all decisions and properties.  It records
certificates/sec and wall-clock of each in the bench JSON (``extra_info``),
and asserts the per-call batched engine clears a >= 5x speedup over the
reference at evaluation scale.

The differential suite (``tests/test_verifier_differential.py``) proves the
two paths produce numerically identical certificates, so the speedup is free.
"""

import time

import numpy as np

from benchconfig import SEED

from repro.core.properties import all_properties
from repro.core.verifier import Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig

#: Evaluation-scale component count (the paper's N during evaluation).
N_COMPONENTS = 50

#: Decision contexts certified per timed pass.
N_DECISIONS = 8

MIN_SPEEDUP = 5.0


def make_workload():
    rng = np.random.default_rng(SEED)
    obs_config = ObservationConfig()
    # Orca-sized actor: 2 hidden ReLU layers, tanh head.
    actor = make_actor(obs_config.state_dim, hidden_sizes=(64, 32), rng=rng)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=N_COMPONENTS))
    properties = list(all_properties())
    contexts = [
        (rng.uniform(0.0, 1.0, obs_config.state_dim),
         float(rng.uniform(10.0, 100.0)),
         float(rng.uniform(10.0, 100.0)))
        for _ in range(N_DECISIONS)
    ]
    return verifier, properties, contexts


def certify_pass(verifier, properties, contexts, certify):
    certificates = 0
    for state, cwnd_tcp, cwnd_prev in contexts:
        for prop in properties:
            certify(prop, state, cwnd_tcp, cwnd_prev)
            certificates += 1
    return certificates


def certify_decisions_pass(verifier, properties, contexts):
    states = np.stack([state for state, _, _ in contexts])
    cwnd_tcp = [cwnd for _, cwnd, _ in contexts]
    cwnd_prev = [cwnd for _, _, cwnd in contexts]
    certificates = verifier.certify_decisions(properties, states, cwnd_tcp, cwnd_prev)
    return sum(len(per_decision) for per_decision in certificates)


def test_batched_verifier_is_5x_faster_than_scalar_reference(benchmark):
    verifier, properties, contexts = make_workload()

    # Warm up both paths (first-touch allocations, BLAS thread spin-up).
    certify_pass(verifier, properties, contexts[:1], verifier.certify)
    certify_pass(verifier, properties, contexts[:1], verifier.certify_reference)
    certify_decisions_pass(verifier, properties, contexts[:1])

    start = time.perf_counter()
    n_certificates = certify_pass(verifier, properties, contexts, verifier.certify_reference)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    benchmark.pedantic(certify_pass, args=(verifier, properties, contexts, verifier.certify),
                       rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    assert certify_decisions_pass(verifier, properties, contexts) == n_certificates
    decisions_seconds = time.perf_counter() - start

    speedup = scalar_seconds / batched_seconds
    batched_certs_per_sec = n_certificates / batched_seconds
    scalar_certs_per_sec = n_certificates / scalar_seconds
    decisions_certs_per_sec = n_certificates / decisions_seconds
    benchmark.extra_info.update({
        "n_components": N_COMPONENTS,
        "n_certificates": n_certificates,
        "scalar_wall_clock_s": scalar_seconds,
        "batched_wall_clock_s": batched_seconds,
        "scalar_certificates_per_sec": scalar_certs_per_sec,
        "batched_certificates_per_sec": batched_certs_per_sec,
        "decisions_wall_clock_s": decisions_seconds,
        "decisions_certificates_per_sec": decisions_certs_per_sec,
        "speedup": speedup,
    })
    print(f"\nverifier throughput at N={N_COMPONENTS}: "
          f"batched {batched_certs_per_sec:.0f} certs/s, "
          f"decision-batched {decisions_certs_per_sec:.0f} certs/s "
          f"vs scalar {scalar_certs_per_sec:.0f} certs/s  ({speedup:.1f}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"batched verifier only {speedup:.2f}x faster than the scalar reference "
        f"(required {MIN_SPEEDUP}x at N={N_COMPONENTS})"
    )
