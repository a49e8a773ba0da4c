"""Exact-bit pins for the tick engine and the trace-capacity lookup.

Two kinds of pin:

* **Trajectory digests.**  For every family in ``topology_family_specs()``
  and every classical scheme, one churned, lossy, telemetry-on run is hashed
  (sha256) over every ``FlowStats`` column, the bottleneck capacity log, the
  time log, ``cross_stats``, the flow lifetimes and the telemetry events.
  The expected digests were recorded before the tick loop was reworked for
  speed (table-driven trace lookup, tuple records, routes resolved once), so
  any change to what a tick computes — down to the last bit of one float —
  fails here.  The multi-hop fingerprints in the differential suite compare
  at ``rel=1e-9`` and cover fewer families; these compare bytes.
* **Lookup differential.**  ``BandwidthTrace.capacity_mbps`` /
  ``capacity_pps`` (segment cursor + ``bisect_right`` fallback) against the
  ``np.searchsorted(side="right") - 1`` reference they replaced: segment
  boundaries, loop wrap, non-loop past the end, backward queries that move
  the cursor back, and int-valued segments.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cc.bbr import BBRController
from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.cc.netsim import NetworkSimulator
from repro.cc.newreno import NewRenoController
from repro.cc.vegas import VegasController
from repro.telemetry.events import EventTrace
from repro.topology import build_topology, topology_family_specs
from repro.traces.trace import BandwidthTrace, mbps_to_pps
from repro.workload.build import build_workload

SCHEMES = {"cubic": CubicController, "bbr": BBRController,
           "newreno": NewRenoController, "vegas": VegasController}
COLUMNS = ("times", "sent", "acked", "lost", "rtt", "queuing_delay", "cwnd", "inflight")
WORKLOAD = "poisson(1.0:cubic)"
DURATION = 3.0

#: A 2 s multi-segment trace: a 3 s run crosses every boundary and wraps.
PIN_TRACE_SEGMENTS = [(0.37, 18.0), (0.5, 30.0), (0.23, 6.0), (0.9, 24.0)]

#: sha256 per (family, scheme), recorded before the tick engine rework.
EXPECTED_DIGESTS = {
    "single_bottleneck/bbr":
        "744751fd578e5cf9c7a22f56171e9a3136e6f1aa63965b517f65980eb9e0809a",
    "single_bottleneck/cubic":
        "6c8d0b461a57f051b030d0c42f2fe670f2b7a11c01a03f5ae9b393cb7ec85ae5",
    "single_bottleneck/newreno":
        "fb0b717b2f2b88b167c8de7e35c288e988e12741a120aa3ff082d5581cd2db94",
    "single_bottleneck/vegas":
        "74f0300c369e76156bb43967c2ef60f5e6786632e24b27cbb5d6e8bd6fe4869e",
    "chain(3)/bbr":
        "544d835e42029aed272aa06dc5af226c4da743e2c92fde0f231799d69483e1dc",
    "chain(3)/cubic":
        "0eccbf52962b4306be1ed36a30c14ff7f955ef76d66fe501476a91b88dcc4d5c",
    "chain(3)/newreno":
        "0fd797afcedc8bc446ea68e991e262b3f90fc4394abea164427ebabfe4c035a1",
    "chain(3)/vegas":
        "b20ca15fa0a9bd6a7a6136539454882ac35c9c0d4c810e8823121108ae84f286",
    "parking_lot(3)/bbr":
        "e0dcf902705383ee790dae4c6a040f81eff4b40ef56f37a0bf487024d961e74e",
    "parking_lot(3)/cubic":
        "35d79c430974612436ca73c4c1409e30a82426b6c923a30f4c42e93eb03b9d6d",
    "parking_lot(3)/newreno":
        "a9810969c7ca9e70ac9af8ec9f3981cb2166e23250249afa1fa929142411f81b",
    "parking_lot(3)/vegas":
        "2aa7217273a478605decf2c0241053e387df0e764d0453e69f9c09cbe4ddb625",
    "dumbbell/bbr":
        "15f6778092b915f93c91c8b49c5d7c47c2c4782a819cfa93273a7e875c8e7d4c",
    "dumbbell/cubic":
        "2a3228082761613654daa6cb2bbe8289e87ca740094dabf69de8b55fc28c504c",
    "dumbbell/newreno":
        "bf8e72e480dab925001fc678d3e64549b994b588f468db7e15d14617b5a97521",
    "dumbbell/vegas":
        "0c6bc12c5b7aa79ac1e67d7fa127e9f5a23f3756ac80d24f8a4a348dd93bffee",
    "fan_in(3)/bbr":
        "e904871b127d56dccd7280a500bc4044109a44fdac57827d3343112c809291b0",
    "fan_in(3)/cubic":
        "fd703cc30bab2dab6abfafaf9dacd345c094dd12a8a5eafd81987aa15203e682",
    "fan_in(3)/newreno":
        "11879c9e9c570235038584aad62c2be21f47ae829cbb82c90ff12603b65865fc",
    "fan_in(3)/vegas":
        "12ca5223c47862f06baf2cbb7a401092bf3880da9f01e2ab648757bf3e1b1c50",
    "tree(2)/bbr":
        "1de9310f5271b1c94a05edcc20b7233310575db9df885f21e9d907317dabdc17",
    "tree(2)/cubic":
        "15355c00f8e4bbd512feff4896d89bf8f49630dfa86a70bf7d0e71f46d13f820",
    "tree(2)/newreno":
        "282add40cf2529fb6e3e5250b90a42cb248dd5c398ff9c4fcb0861e7125f7d24",
    "tree(2)/vegas":
        "3b7d6a117b4ba19420778cf883c2f5f0b8b74f09c32717b6d23688048d917a7c",
    "shared_segment/bbr":
        "52e524068e95f0efd5a1f35b2e650172a1fd838e77b5b4b3a9c55677af551219",
    "shared_segment/cubic":
        "3884f572e0b63bbcdccfa37378d46c4f32aabc85978a5c5b3e146f7aae87206f",
    "shared_segment/newreno":
        "649bc545d58ca5947cf08852951c6a838a6ca58b59e633b0061e42c62fdffc53",
    "shared_segment/vegas":
        "bf0f3d8cd87127474b93d09273a2f57715935df2ab3f04df91874162eae80113",
}


def trajectory_digest(family, scheme):
    trace = BandwidthTrace("pin", PIN_TRACE_SEGMENTS)
    topology = build_topology(family, trace, min_rtt=0.04, buffer_bdp=1.0,
                              random_loss_rate=0.01, stochastic_loss=True, seed=7)
    flows = [Flow(0, SCHEMES[scheme]())]
    flows += [cross.build() for cross in build_workload(
        WORKLOAD, duration=DURATION, seed=7, trace_name=trace.name, topology=family)]
    telemetry = EventTrace.from_spec("on(10)")
    sim = NetworkSimulator(topology, flows, dt=0.01, telemetry=telemetry)
    result = sim.run(DURATION)
    digest = hashlib.sha256()
    for fid in sorted(result.flow_stats):
        stats = result.flow_stats[fid]
        digest.update(f"flow {fid} {len(stats.records)}".encode())
        for column in COLUMNS:
            digest.update(np.ascontiguousarray(getattr(stats, column), dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(result.capacity_mbps, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(result.times, dtype=np.float64).tobytes())
    digest.update(json.dumps({str(k): v for k, v in sim.cross_stats.items()},
                             sort_keys=True).encode())
    digest.update(json.dumps({str(k): v for k, v in result.lifetimes.items()},
                             sort_keys=True).encode())
    digest.update(json.dumps(telemetry.to_json(), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family", topology_family_specs())
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_trajectory_digest_is_pinned(family, scheme):
    assert trajectory_digest(family, scheme) == EXPECTED_DIGESTS[f"{family}/{scheme}"]


def test_every_family_and_scheme_is_pinned():
    expected = {f"{family}/{scheme}" for family in topology_family_specs() for scheme in SCHEMES}
    assert set(EXPECTED_DIGESTS) == expected


# ---------------------------------------------------------------------- #
# Lookup differential: cursor + bisect vs the searchsorted reference
# ---------------------------------------------------------------------- #
def reference_capacity_mbps(segments, loop, time):
    """The pre-table lookup, verbatim: one ``np.searchsorted`` per query."""
    if time < 0:
        raise ValueError("time must be non-negative")
    durations = np.array([seg[0] for seg in segments], dtype=np.float64)
    cum = np.concatenate([[0.0], np.cumsum(durations)])
    duration = float(cum[-1])
    if loop and duration > 0:
        time = time % duration
    elif time >= duration:
        return float(segments[-1][1])
    index = int(np.searchsorted(cum, time, side="right")) - 1
    index = min(max(index, 0), len(segments) - 1)
    return float(segments[index][1])


def assert_lookup_matches(trace, segments, times):
    for time in times:
        expected = reference_capacity_mbps(segments, trace.loop, time)
        got = trace.capacity_mbps(time)
        assert type(got) is float
        assert got == expected, (time, got, expected)
        assert trace.capacity_pps(time) == mbps_to_pps(expected)


def boundary_times(segments, laps=2):
    cum = np.concatenate([[0.0], np.cumsum([d for d, _ in segments])]).tolist()
    total = cum[-1]
    times = []
    for lap in range(laps):
        for edge in cum:
            base = edge + lap * total
            times += [base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)]
    return [t for t in times if t >= 0]


LOOKUP_SEGMENTS = [
    [(1.0, 10.0)],
    [(0.1, 12.0), (0.2, 24.0), (0.3, 6.0)],
    [(0.37, 18.0), (0.5, 30.0), (0.23, 6.0), (0.9, 24.0)],
    [(1, 10), (2, 20), (3, 0)],                       # int-valued segments
    [(1e-3, 1.5)] * 50 + [(2.5, 96.0)],               # many short segments
]


@pytest.mark.parametrize("segments", LOOKUP_SEGMENTS)
@pytest.mark.parametrize("loop", [True, False])
def test_lookup_matches_reference_at_boundaries(segments, loop):
    trace = BandwidthTrace("lookup", segments, loop=loop)
    assert_lookup_matches(trace, segments, boundary_times(segments, laps=3))


@pytest.mark.parametrize("segments", LOOKUP_SEGMENTS)
@pytest.mark.parametrize("loop", [True, False])
def test_lookup_matches_reference_on_tick_sequence(segments, loop):
    """The simulator's own query pattern: ``now`` accumulated as ``now + dt``."""
    trace = BandwidthTrace("ticks", segments, loop=loop)
    now, times = 0.0, []
    for _ in range(1500):
        times.append(now)
        now = now + 0.01
    assert_lookup_matches(trace, segments, times)


@pytest.mark.parametrize("segments", LOOKUP_SEGMENTS)
@pytest.mark.parametrize("loop", [True, False])
def test_lookup_matches_reference_on_random_and_backward_queries(segments, loop):
    trace = BandwidthTrace("random", segments, loop=loop)
    rng = np.random.default_rng(3)
    forward = np.sort(rng.uniform(0.0, 3.0 * trace.duration, size=200)).tolist()
    # Forward sweep, then the same points backwards (every step moves the
    # cursor back), then a shuffled order with repeats.
    times = forward + forward[::-1] + rng.permutation(forward + forward[:50]).tolist()
    assert_lookup_matches(trace, segments, times)


def test_lookup_cursor_is_shared_safely_between_interleaved_callers():
    """Two simulators on one trace interleave queries at different times."""
    segments = LOOKUP_SEGMENTS[2]
    trace = BandwidthTrace("shared", segments)
    times = []
    for step in range(400):
        times += [step * 0.01, 2.0 + step * 0.013]
    assert_lookup_matches(trace, segments, times)


def test_sample_matches_reference():
    segments = LOOKUP_SEGMENTS[1]
    trace = BandwidthTrace("sample", segments)
    expected = [reference_capacity_mbps(segments, True, t) for t in np.arange(0.0, 2.0, 0.03)]
    assert trace.sample(0.03, duration=2.0).tolist() == expected
