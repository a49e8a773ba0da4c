"""The Canopy verifier: IBP certification of controller behaviour.

Given a property, a concrete decision context (the current state, the
TCP-suggested window, the previously enforced window) and the controller's
actor network, the verifier:

1. builds the abstract input region ``X`` prescribed by the property
   (Section 4.3.1), keeping non-abstracted features at their observed values,
2. partitions it into ``N`` components along the abstracted dimensions,
3. propagates the components through the actor with interval bound propagation
   and through the cwnd map ``max(MIN_CWND, 2^(2a) · cwnd_TCP)`` (Eq. 5),
4. compares the derived action (Δcwnd or the fractional cwnd change) with the
   allowed region and computes the per-component proof and smoothed feedback
   (Eq. 6).

The result is a :class:`repro.core.qc.QuantitativeCertificate`.

Batched engine
--------------

:meth:`Verifier.certify_decisions` certifies a whole stack of decisions ×
properties × components at once.  For ``D`` decision contexts (states of
shape ``(D, d)``, per-decision ``cwnd_tcp`` and ``cwnd_prev``) and ``P``
properties it

* builds all ``D × P`` property input regions with array operations
  (:meth:`~repro.core.properties.PropertySpec.input_region_bounds`),
* splits each into its ``N`` components with the arithmetic of
  :meth:`repro.abstract.box.Box.split_batched`, giving one row per
  (decision, property, component),
* pushes each pass's rows through the actor in one ``propagate_mlp_batched`` call,
* applies the cwnd map (with the controller's ``MIN_CWND`` floor), the Δcwnd
  or fractional-change step and the Eq. 6 feedback row-wise, each row with
  its own decision's windows and its own property's allowed region.  The P5
  reference windows come from one concrete ``actor.forward`` over the ``D``
  states.

Rows are processed in passes of at most :data:`ROW_BUDGET` rows, and a
decision's rows are never split across passes.  The budget bounds the
working set: one pass per decision wastes time on per-call overhead, one pass
per paper-scale cell grows peak memory for no further gain.  Each
:class:`~repro.core.qc.QuantitativeCertificate` keeps read-only views of its
own ``N`` rows of the pass.

:meth:`Verifier.certify`, :meth:`Verifier.certify_all` and
:meth:`Verifier.verifier_feedback` are the ``D = 1`` cases.  The original
one-component-at-a-time path is retained as :meth:`Verifier.certify_reference`
(plus ``certify_all_reference`` and ``verifier_feedback_reference``); the
differential test suite pins the two implementations to each other within
1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.abstract import transformers
from repro.abstract.box import Box
from repro.abstract.interval import Interval
from repro.abstract.propagate import propagate_mlp, propagate_mlp_batched
from repro.cc.base import MIN_CWND
from repro.core.properties import ActionKind, PropertySet, PropertySpec
from repro.core.qc import (
    ComponentCertificate,
    QuantitativeCertificate,
    interval_feedback,
    interval_feedback_batch,
)
from repro.orca.agent import cwnd_from_action
from repro.orca.observations import ObservationBuilder, ObservationConfig

__all__ = ["ROW_BUDGET", "VerifierConfig", "Verifier", "weighted_feedback"]

#: Most rows (decision × property × component) one propagation pass carries.
#: A decision's rows are never split, so a decision with more rows than this
#: is a pass of its own.  At the paper's evaluation scale (two properties,
#: N=50) a pass holds five decisions.
ROW_BUDGET = 512

#: Most cached certification plans per verifier; the cache is emptied when full.
_PLAN_CACHE_SIZE = 64

#: Tolerance of the concrete sign side-conditions on past Δcwnd.
_SIGN_TOL = 1e-6


@dataclass
class VerifierConfig:
    """Verifier settings.

    Attributes:
        n_components: Number of QC input partitions N (the paper uses 5 during
            training and 50 during evaluation).
        check_applicability: When True, a property whose precondition side
            conditions on past Δcwnd do not hold at the current state is
            reported as non-applicable with neutral feedback 1.0.  The default
            (False) matches the paper's worst-case reading: the Δcwnd
            precondition is abstracted over its full range, so the QC covers
            every history consistent with the precondition.
    """

    n_components: int = 5
    check_applicability: bool = False

    def __post_init__(self) -> None:
        if self.n_components <= 0:
            raise ValueError("n_components must be positive")


@dataclass(frozen=True)
class DecisionContext:
    """Concrete quantities surrounding one coarse-grained decision."""

    state: np.ndarray
    cwnd_tcp: float
    cwnd_prev: float

    def __post_init__(self) -> None:
        if self.cwnd_tcp <= 0:
            raise ValueError("cwnd_tcp must be positive")


@dataclass(frozen=True)
class _CertifyPlan:
    """The constants of one engine pass that depend only on (properties,
    observer, state width, N), built once and reused by every pass.

    Attributes:
        partition: ``(1, P, 1, d)`` mask of each property's partition dims
            (every dim when a property partitions none).
        index: ``(N, 1)`` component index column ``0 .. N-1``.
        fraction: ``(P,)`` flags of the fractional-change (P5) properties.
        allowed_lo: ``(P,)`` lower bounds of the allowed regions.
        allowed_hi: ``(P,)`` upper bounds of the allowed regions.
    """

    partition: np.ndarray
    index: np.ndarray
    fraction: np.ndarray
    allowed_lo: np.ndarray
    allowed_hi: np.ndarray

    @classmethod
    def build(cls, props, observer: ObservationBuilder, width: int, n: int) -> "_CertifyPlan":
        partition = np.zeros((len(props), width), dtype=bool)
        for j, prop in enumerate(props):
            dims = prop.partition_dims(observer)
            partition[j, dims if dims else slice(None)] = True
        allowed = [prop.allowed_interval() for prop in props]
        plan = cls(
            partition=partition[None, :, None, :],
            index=np.arange(n, dtype=np.float64)[:, None],
            fraction=np.array([prop.kind is ActionKind.CWND_CHANGE_FRACTION for prop in props]),
            allowed_lo=np.array([float(interval.lo) for interval in allowed]),
            allowed_hi=np.array([float(interval.hi) for interval in allowed]),
        )
        for array in vars(plan).values():
            array.flags.writeable = False
        return plan


def weighted_feedback(properties: Sequence[PropertySpec],
                      certificates: Sequence[QuantitativeCertificate]) -> float:
    """Eq. 7: the weight-averaged QC feedback of one decision's certificates."""
    total = 0.0
    weight_sum = 0.0
    for prop, certificate in zip(properties, certificates):
        total += prop.weight * certificate.feedback
        weight_sum += prop.weight
    return total / weight_sum


class Verifier:
    """Computes quantitative certificates for a (learned) controller."""

    def __init__(
        self,
        actor,
        observation_config: ObservationConfig | None = None,
        config: VerifierConfig | None = None,
    ) -> None:
        self.actor = actor
        self.observer = ObservationBuilder(observation_config)
        self.config = config or VerifierConfig()
        self._plans: dict = {}

    # ------------------------------------------------------------------ #
    # Concrete helpers
    # ------------------------------------------------------------------ #
    def concrete_action(self, state: np.ndarray) -> float:
        """The controller's concrete action for ``state`` (clipped to [-1, 1])."""
        output = self.actor.forward(np.asarray(state, dtype=np.float64).reshape(1, -1))
        return float(np.clip(output.reshape(-1)[0], -1.0, 1.0))

    def concrete_cwnd(self, state: np.ndarray, cwnd_tcp: float) -> float:
        """The concrete enforced window for ``state`` (Eq. 1)."""
        return cwnd_from_action(self.concrete_action(state), cwnd_tcp)

    def _resolve_components(self, n_components: Optional[int]) -> int:
        n = self.config.n_components if n_components is None else int(n_components)
        if n <= 0:
            raise ValueError(f"n_components must be positive, got {n_components}")
        return n

    # ------------------------------------------------------------------ #
    # Certification (batched engine)
    # ------------------------------------------------------------------ #
    def certify_decisions(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        states: np.ndarray,
        cwnd_tcp,
        cwnd_prev,
        n_components: Optional[int] = None,
        observer: Optional[ObservationBuilder] = None,
    ) -> List[List[QuantitativeCertificate]]:
        """QCs for every property at every decision, ``result[i][j]`` for
        decision ``i`` and property ``j``.

        ``states`` has shape ``(D, d)``; ``cwnd_tcp`` and ``cwnd_prev`` hold one
        window per decision (a scalar is shared by all ``D``).  The rows are
        propagated in passes of at most :data:`ROW_BUDGET` rows (see the
        module docstring).
        """
        observer = observer or self.observer
        props = list(properties)
        if not props:
            raise ValueError("need at least one property")
        n = self._resolve_components(n_components)
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise ValueError(f"states must have shape (D, d), got {states.shape}")
        n_decisions = states.shape[0]
        cwnd_tcp = np.full(n_decisions, np.asarray(cwnd_tcp, dtype=np.float64))
        cwnd_prev = np.full(n_decisions, np.asarray(cwnd_prev, dtype=np.float64))
        if not np.all(cwnd_tcp > 0):
            raise ValueError("cwnd_tcp must be positive")

        per_pass = max(1, ROW_BUDGET // (len(props) * n))
        certificates: List[List[QuantitativeCertificate]] = []
        for start in range(0, n_decisions, per_pass):
            window = slice(start, start + per_pass)
            certificates.extend(self._certify_pass(
                props, states[window], cwnd_tcp[window], cwnd_prev[window], n, observer))
        return certificates

    def _certify_pass(self, props, states, cwnd_tcp, cwnd_prev, n, observer):
        """One propagation pass over every (decision, property, component) row."""
        n_decisions, width = states.shape
        applicable = self._applicability(props, states, observer)
        plan = self._plan(props, observer, width, n)
        allowed_lo, allowed_hi, fraction = plan.allowed_lo, plan.allowed_hi, plan.fraction

        # Input regions, (D, P, 1, d), as the region boxes store them.
        bounds = [prop.input_region_bounds(states, observer) for prop in props]
        region = Box.from_interval(Interval._trusted(np.stack([lo for lo, _ in bounds], axis=1),
                                                     np.stack([hi for _, hi in bounds], axis=1)))
        region_lo = region.lo[:, :, None, :]
        region_hi = region.hi[:, :, None, :]
        # Component split: the arithmetic of Box.split_batched, along each
        # property's partition dims, for every region at once -> (D, P, N, d).
        span = region_hi - region_lo
        rows_lo = np.where(plan.partition, region_lo + span * plan.index / n, region_lo)
        rows_hi = np.where(plan.partition, region_lo + span * (plan.index + 1) / n, region_hi)
        components = Box.from_interval(Interval._trusted(rows_lo[applicable].reshape(-1, width),
                                                         rows_hi[applicable].reshape(-1, width)))

        # Per-(decision, property) constants of the checked action: Δcwnd
        # rows subtract cwnd_prev, fractional-change rows subtract and divide
        # by the decision's concrete (P5 reference) window.
        if fraction.any():
            actions = self.actor.forward(states).reshape(n_decisions, -1)[:, 0]
            reference = np.array([cwnd_from_action(float(action), float(tcp))
                                  for action, tcp in zip(actions, cwnd_tcp)])[:, None]
            offset = np.where(fraction, reference, cwnd_prev[:, None])
            factor = np.where(fraction, 1.0 / reference, 1.0)
        else:
            offset = cwnd_prev[:, None]
            factor = 1.0
        # The (decision, property) cell of every applicable row, C order.
        row_cells = np.repeat(np.flatnonzero(applicable), n)

        def per_row(values) -> np.ndarray:
            """A (D, P) table, or anything broadcastable to one, spread to one
            value per applicable row."""
            table = np.empty(applicable.shape)
            table[...] = values
            return table.reshape(-1)[row_cells]

        action_box = propagate_mlp_batched(self.actor, components)
        cwnd_box = transformers.clamp_min(
            transformers.cwnd_from_action(action_box, per_row(cwnd_tcp[:, None])[:, None]), MIN_CWND)
        checked = cwnd_box.shift(-per_row(offset)[:, None]).scale(per_row(factor)[:, None])
        output_lo = checked.lo.reshape(-1)
        output_hi = checked.hi.reshape(-1)
        satisfied, feedback = interval_feedback_batch(
            output_lo, output_hi, (per_row(allowed_lo), per_row(allowed_hi)))
        input_lo = components.lo
        input_hi = components.hi

        certificates = []
        row = 0
        for i in range(n_decisions):
            per_decision = []
            for j, prop in enumerate(props):
                if not applicable[i, j]:
                    per_decision.append(QuantitativeCertificate(
                        prop.name, allowed_lo[j], allowed_hi[j], applicable=False))
                    continue
                rows = slice(row, row + n)
                row += n
                per_decision.append(QuantitativeCertificate.from_columns(
                    prop.name, allowed_lo[j], allowed_hi[j],
                    input_lo=input_lo[rows], input_hi=input_hi[rows],
                    output_lo=output_lo[rows], output_hi=output_hi[rows],
                    satisfied=satisfied[rows], component_feedback=feedback[rows],
                ))
            certificates.append(per_decision)
        return certificates

    def _plan(self, props, observer: ObservationBuilder, width: int, n: int) -> "_CertifyPlan":
        """The cached :class:`_CertifyPlan` of ``props`` under ``observer``.

        Keyed by the identities of the properties and the observer.  An entry
        holds the keyed objects and a hit must match them by identity, so a
        recycled id (or a cache carried into another process) can never hand
        out another property set's plan.
        """
        key = (id(observer), width, n, *map(id, props))
        entry = self._plans.get(key)
        if (entry is None or entry[0] is not observer
                or not all(held is prop for held, prop in zip(entry[1], props))):
            if len(self._plans) >= _PLAN_CACHE_SIZE:
                self._plans.clear()
            entry = (observer, tuple(props), _CertifyPlan.build(props, observer, width, n))
            self._plans[key] = entry
        return entry[2]

    def _applicability(self, props, states: np.ndarray, observer: ObservationBuilder) -> np.ndarray:
        """(D, P) mask of the (decision, property) pairs to certify."""
        applicable = np.ones((states.shape[0], len(props)), dtype=bool)
        if not self.config.check_applicability:
            return applicable
        history = states[:, observer.feature_indices("dcwnd")]
        for j, prop in enumerate(props):
            if prop.dcwnd_sign is not None and prop.dcwnd_sign < 0:
                applicable[:, j] = np.all(history <= _SIGN_TOL, axis=1)
            elif prop.dcwnd_sign is not None:
                applicable[:, j] = np.all(history >= -_SIGN_TOL, axis=1)
        return applicable

    def _certify_state(self, props, state, cwnd_tcp, cwnd_prev, n_components, observer=None):
        """The one-decision case of :meth:`certify_decisions`."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        return self.certify_decisions(props, state, cwnd_tcp, cwnd_prev,
                                      n_components=n_components, observer=observer)[0]

    def certify(
        self,
        prop: PropertySpec,
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
        observer: Optional[ObservationBuilder] = None,
    ) -> QuantitativeCertificate:
        """Produce the QC for one property at one decision step."""
        return self._certify_state([prop], state, cwnd_tcp, cwnd_prev, n_components, observer)[0]

    def certify_all(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> dict:
        """QCs for every property in the set, keyed by property name, from one fused pass."""
        props = list(properties)
        certificates = self._certify_state(props, state, cwnd_tcp, cwnd_prev, n_components)
        return {prop.name: certificate for prop, certificate in zip(props, certificates)}

    def verifier_feedback(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> float:
        """Weighted average QC feedback over a set of properties (r_verifier, Eq. 7)."""
        props = list(properties)
        return weighted_feedback(props, self._certify_state(props, state, cwnd_tcp, cwnd_prev, n_components))

    def _cwnd_reference(self, prop: PropertySpec, context: DecisionContext) -> Optional[float]:
        if prop.kind is ActionKind.CWND_CHANGE_FRACTION:
            return self.concrete_cwnd(context.state, context.cwnd_tcp)
        return None

    def _applicability_from_state(self, prop: PropertySpec, state: np.ndarray, observer: ObservationBuilder) -> bool:
        """Check the concrete Δcwnd side-condition directly on the state vector."""
        if prop.dcwnd_sign is None:
            return True
        dcwnd_history = state[observer.feature_indices("dcwnd")]
        if prop.dcwnd_sign < 0:
            return bool(np.all(dcwnd_history <= _SIGN_TOL))
        return bool(np.all(dcwnd_history >= -_SIGN_TOL))

    # ------------------------------------------------------------------ #
    # Certification (scalar reference path, retained for differential tests)
    # ------------------------------------------------------------------ #
    def certify_reference(
        self,
        prop: PropertySpec,
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
        observer: Optional[ObservationBuilder] = None,
    ) -> QuantitativeCertificate:
        """One-component-at-a-time reference implementation of :meth:`certify`.

        Kept as the independently simple ground truth: the differential test
        suite asserts the batched engine reproduces its certificates within
        1e-12 over randomized actors, properties and decision contexts.
        """
        observer = observer or self.observer
        n = self._resolve_components(n_components)
        context = DecisionContext(np.asarray(state, dtype=np.float64), float(cwnd_tcp), float(cwnd_prev))
        allowed = prop.allowed_interval()

        if self.config.check_applicability:
            if not self._applicability_from_state(prop, context.state, observer):
                return QuantitativeCertificate(prop.name, float(allowed.lo), float(allowed.hi),
                                               applicable=False)

        region = prop.input_region(context.state, observer)
        dims = prop.partition_dims(observer)
        components = region.split(n, dims=dims if dims else None)
        cwnd_reference = self._cwnd_reference(prop, context)

        certified = []
        for index, component in enumerate(components):
            output_interval = self._checked_action_bounds(prop, component, context, cwnd_reference)
            satisfied = allowed.contains_interval(output_interval)
            feedback = interval_feedback(output_interval, allowed)
            certified.append(ComponentCertificate(
                index=index,
                input_lo=component.lo.copy(),
                input_hi=component.hi.copy(),
                output_lo=float(output_interval.lo),
                output_hi=float(output_interval.hi),
                satisfied=bool(satisfied),
                feedback=float(feedback),
            ))
        return QuantitativeCertificate(prop.name, float(allowed.lo), float(allowed.hi),
                                       components=certified)

    def _checked_action_bounds(self, prop, component: Box, context: DecisionContext, cwnd_reference) -> Interval:
        action_box = propagate_mlp(self.actor, component)
        cwnd_box = transformers.clamp_min(transformers.cwnd_from_action(action_box, context.cwnd_tcp), MIN_CWND)
        if prop.kind is ActionKind.DELTA_CWND:
            checked = transformers.delta_cwnd(cwnd_box, context.cwnd_prev)
        else:
            checked = transformers.cwnd_change_fraction(cwnd_box, cwnd_reference)
        interval = checked.to_interval()
        # The action (and hence the checked quantity) is scalar; collapse the
        # 1-element vector interval into a scalar interval.
        lo = np.asarray(interval.lo).reshape(-1)[0]
        hi = np.asarray(interval.hi).reshape(-1)[0]
        return Interval(float(lo), float(hi))

    def certify_all_reference(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> dict:
        """Scalar-path counterpart of :meth:`certify_all`."""
        return {
            prop.name: self.certify_reference(prop, state, cwnd_tcp, cwnd_prev, n_components=n_components)
            for prop in properties
        }

    def verifier_feedback_reference(
        self,
        properties: PropertySet | Sequence[PropertySpec],
        state: np.ndarray,
        cwnd_tcp: float,
        cwnd_prev: float,
        n_components: Optional[int] = None,
    ) -> float:
        """Scalar-path counterpart of :meth:`verifier_feedback`."""
        props = list(properties)
        if not props:
            raise ValueError("need at least one property")
        return weighted_feedback(props, [
            self.certify_reference(prop, state, cwnd_tcp, cwnd_prev, n_components=n_components)
            for prop in props
        ])
