"""Quantitative certificates (QCs).

A QC (Section 4.3) has two pieces:

* a **proof**: for each input component ``X_n``, whether the propagated output
  region provably lies inside the allowed action region ``A \\ Y``;
* **feedback**: the smoothed fractional-volume measure of Eq. 6, averaged
  across components, which the Canopy trainer folds into the reward.

The :class:`QuantitativeCertificate` produced by the verifier carries both,
plus enough detail (per-component output bounds) to reproduce the
certified-component visualizations of Figures 6 and 8.

Certificates are columnar.  The verifier certifies many (decision, property)
pairs in one propagation pass whose rows are chunked under a fixed row
budget (:data:`repro.core.verifier.ROW_BUDGET`); each certificate keeps
read-only views of its own ``N`` rows of that pass rather than ``N``
per-component objects.  Aggregates (feedback, proof, satisfied fraction,
output bounds) are array reductions over those columns, and the
per-component :class:`ComponentCertificate` view is built only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.abstract.interval import Interval

__all__ = [
    "interval_feedback",
    "interval_feedback_batch",
    "ComponentCertificate",
    "QuantitativeCertificate",
]

#: Containment tolerance shared by the scalar and batched feedback paths
#: (matches the defaults of Interval.contains / contains_interval).
_CONTAIN_TOL = 1e-9


def interval_feedback(output: Interval, allowed: Interval) -> float:
    """Eq. 6: the fraction of the output region provably inside ``allowed``.

    * 1.0 when the output region is entirely inside the allowed region,
    * 0.0 when it is entirely inside the undesired region ``Y``,
    * otherwise the relative volume of the overlap.
    """
    if allowed.contains_interval(output):
        return 1.0
    if not output.intersects(allowed):
        return 0.0
    return output.overlap_fraction(allowed)


def interval_feedback_batch(
    output_lo: np.ndarray,
    output_hi: np.ndarray,
    allowed,
) -> tuple:
    """Vectorized proof + Eq. 6 feedback over ``N`` scalar output intervals.

    Takes the per-component checked-action bounds as flat ``(N,)`` arrays and
    the allowed region, either one scalar :class:`Interval` for every row or a
    ``(lo, hi)`` pair of arrays broadcastable to ``(N,)`` (one allowed region
    per row, as when several properties share one pass).  Returns
    ``(satisfied, feedback)`` boolean and float arrays of shape ``(N,)``.
    Component ``i`` matches the scalar path
    ``(allowed.contains_interval(out_i), interval_feedback(out_i, allowed))``
    exactly, including the containment tolerance and the degenerate
    (zero-width) interval rule.
    """
    output_lo = np.asarray(output_lo, dtype=np.float64).reshape(-1)
    output_hi = np.asarray(output_hi, dtype=np.float64).reshape(-1)
    if isinstance(allowed, Interval):
        allowed_lo = float(np.asarray(allowed.lo).reshape(-1)[0])
        allowed_hi = float(np.asarray(allowed.hi).reshape(-1)[0])
    else:
        allowed_lo, allowed_hi = (np.asarray(bound, dtype=np.float64) for bound in allowed)

    satisfied = (output_lo >= allowed_lo - _CONTAIN_TOL) & (output_hi <= allowed_hi + _CONTAIN_TOL)
    intersects = (output_lo <= allowed_hi) & (allowed_lo <= output_hi)
    width = output_hi - output_lo
    overlap = np.minimum(output_hi, allowed_hi) - np.maximum(output_lo, allowed_lo)
    fraction = np.clip(overlap / np.where(width > 0, width, 1.0), 0.0, 1.0)
    center = (output_lo + output_hi) / 2.0
    center_inside = (center >= allowed_lo - _CONTAIN_TOL) & (center <= allowed_hi + _CONTAIN_TOL)
    fraction = np.where(width > 0, fraction, np.where(center_inside, 1.0, 0.0))
    feedback = np.where(satisfied, 1.0, np.where(intersects, fraction, 0.0))
    return satisfied, feedback


@dataclass(frozen=True)
class ComponentCertificate:
    """Certification outcome for one input component ``X_n``."""

    index: int
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: float
    output_hi: float
    satisfied: bool
    feedback: float

    @property
    def output_interval(self) -> Interval:
        return Interval(self.output_lo, self.output_hi)


class QuantitativeCertificate:
    """The QC for one property at one decision step, stored column-wise.

    The certificate holds one read-only array per per-component quantity:
    ``input_lo`` / ``input_hi`` of shape ``(N, d)`` and ``output_lo``,
    ``output_hi``, ``satisfied`` and ``component_feedback`` of shape
    ``(N,)``.  The certification engine hands in views of the rows of one
    propagation pass (see :mod:`repro.core.verifier`), so building a
    certificate copies nothing; :attr:`feedback`, :attr:`satisfied_fraction`,
    :attr:`proof` and :meth:`output_bounds` read the columns directly
    (:attr:`feedback` once, then cached: the columns are read-only).
    :class:`ComponentCertificate` objects are built only when
    :attr:`components` is read.

    ``QuantitativeCertificate(name, lo, hi, components=[...])`` builds the
    same columns from a list of component certificates.
    """

    def __init__(
        self,
        property_name: str,
        allowed_lo: float,
        allowed_hi: float,
        components: Sequence[ComponentCertificate] = (),
        applicable: bool = True,
    ) -> None:
        components = tuple(components)
        width = np.asarray(components[0].input_lo).shape[-1] if components else 0
        self._init(
            property_name, allowed_lo, allowed_hi, applicable,
            input_lo=np.array([c.input_lo for c in components], dtype=np.float64).reshape(len(components), width),
            input_hi=np.array([c.input_hi for c in components], dtype=np.float64).reshape(len(components), width),
            output_lo=np.array([c.output_lo for c in components], dtype=np.float64),
            output_hi=np.array([c.output_hi for c in components], dtype=np.float64),
            satisfied=np.array([c.satisfied for c in components], dtype=bool),
            component_feedback=np.array([c.feedback for c in components], dtype=np.float64),
        )
        self._components = components or None

    @classmethod
    def from_columns(
        cls,
        property_name: str,
        allowed_lo: float,
        allowed_hi: float,
        *,
        input_lo: np.ndarray,
        input_hi: np.ndarray,
        output_lo: np.ndarray,
        output_hi: np.ndarray,
        satisfied: np.ndarray,
        component_feedback: np.ndarray,
    ) -> "QuantitativeCertificate":
        """A certificate over per-component columns, kept as read-only views."""
        certificate = cls.__new__(cls)
        certificate._init(
            property_name, allowed_lo, allowed_hi, True,
            input_lo=input_lo, input_hi=input_hi, output_lo=output_lo,
            output_hi=output_hi, satisfied=satisfied, component_feedback=component_feedback,
        )
        return certificate

    def _init(self, property_name: str, allowed_lo: float, allowed_hi: float,
              applicable: bool, **columns: np.ndarray) -> None:
        self.property_name = property_name
        self.allowed_lo = float(allowed_lo)
        self.allowed_hi = float(allowed_hi)
        self.applicable = applicable
        n = columns["output_lo"].shape[0]
        for name, column in columns.items():
            if column.shape[0] != n:
                raise ValueError(f"column {name!r} has {column.shape[0]} rows, expected {n}")
            column = column.view()
            column.flags.writeable = False
            setattr(self, name, column)
        self._components: Optional[Tuple[ComponentCertificate, ...]] = None

    # ------------------------------------------------------------------ #
    @property
    def n_components(self) -> int:
        return int(self.output_lo.shape[0])

    @property
    def components(self) -> Tuple[ComponentCertificate, ...]:
        """Per-component certificates, built from the columns on first access."""
        if self._components is None:
            self._components = tuple(
                ComponentCertificate(
                    index=index,
                    input_lo=self.input_lo[index],
                    input_hi=self.input_hi[index],
                    output_lo=float(self.output_lo[index]),
                    output_hi=float(self.output_hi[index]),
                    satisfied=bool(self.satisfied[index]),
                    feedback=float(self.component_feedback[index]),
                )
                for index in range(self.n_components)
            )
        return self._components

    @cached_property
    def feedback(self) -> float:
        """QC feedback: mean of the per-component smoothed feedback (Eq. 6)."""
        if not self.n_components:
            return 1.0
        return float(np.mean(self.component_feedback))

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of components whose certification is a full (boolean) proof."""
        if not self.n_components:
            return 1.0
        return float(np.mean(self.satisfied))

    @property
    def proof(self) -> bool:
        """True iff every component provably satisfies the property.

        When this holds the QC coincides with the boolean certificate of prior
        verification work: ``π ⊢_c φ`` on the whole input region ``X``.
        """
        return bool(np.all(self.satisfied))

    @property
    def allowed_interval(self) -> Interval:
        return Interval(self.allowed_lo, self.allowed_hi)

    def output_bounds(self) -> np.ndarray:
        """Per-component ``(lo, hi)`` output bounds — the data behind Figs. 6/8."""
        return np.stack([self.output_lo, self.output_hi], axis=1)

    def summary(self) -> dict:
        return {
            "property": self.property_name,
            "feedback": self.feedback,
            "satisfied_fraction": self.satisfied_fraction,
            "proof": self.proof,
            "n_components": self.n_components,
            "applicable": self.applicable,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantitativeCertificate({self.property_name!r}, feedback={self.feedback:.4f}, "
                f"n_components={self.n_components}, applicable={self.applicable})")
