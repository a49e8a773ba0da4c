"""Sound interval arithmetic.

The :class:`Interval` class represents element-wise closed intervals
``[lo, hi]`` over numpy arrays (scalars are promoted to 0-d arrays).  All
operations are *sound over-approximations*: for every concrete value ``x`` in
the input interval, the concrete result of the operation lies inside the
returned interval.

Intervals are the user-facing face of the box domain (Section 3.2 of the
Canopy paper): a :class:`repro.abstract.box.Box` is just the (center,
deviation) encoding of the same object, convenient for IBP through affine
layers.

Construction
------------

The public constructor ``Interval(lo, hi)`` is the validating boundary: it
converts its arguments to float64, broadcasts them against each other, copies
them, and rejects ``lo > hi`` (beyond a 1e-12 tolerance) and NaN bounds.
Code that has just computed both bounds as fresh float64 arrays of equal
shape — the box transformers, the verifier engine — goes through
:meth:`Interval._trusted` instead, which keeps the order check but skips the
conversion, broadcast and copies, and falls back to the public constructor
on any shape or dtype mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

ArrayLike = Union[float, int, Sequence[float], np.ndarray]

__all__ = ["Interval"]


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _check_order(lo: np.ndarray, hi: np.ndarray) -> None:
    # Phrased so that a NaN bound fails the comparison too.
    if not (lo <= hi + 1e-12).all():
        raise ValueError(f"Interval lower bound exceeds upper bound or is NaN: lo={lo}, hi={hi}")


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``, element-wise over numpy arrays."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = _as_array(self.lo)
        hi = _as_array(self.hi)
        lo, hi = np.broadcast_arrays(lo, hi)
        _check_order(lo, hi)
        object.__setattr__(self, "lo", np.array(lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.array(hi, dtype=np.float64))

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "Interval":
        """Wrap freshly computed bounds without converting or copying them.

        ``lo`` and ``hi`` must be float64 arrays of equal shape that no one
        else will mutate; anything else goes through the public constructor.
        The order (and NaN) check still runs.
        """
        if (type(lo) is not np.ndarray or type(hi) is not np.ndarray
                or lo.dtype != np.float64 or hi.dtype != np.float64 or lo.shape != hi.shape):
            return cls(lo, hi)
        _check_order(lo, hi)
        interval = object.__new__(cls)
        object.__setattr__(interval, "lo", lo)
        object.__setattr__(interval, "hi", hi)
        return interval

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def point(cls, value: ArrayLike) -> "Interval":
        """An interval containing a single concrete point."""
        arr = _as_array(value)
        return cls(arr, arr.copy())

    @classmethod
    def from_center(cls, center: ArrayLike, deviation: ArrayLike) -> "Interval":
        """Build an interval from a center and non-negative deviation."""
        center = _as_array(center)
        deviation = _as_array(deviation)
        if np.any(deviation < 0):
            raise ValueError("deviation must be non-negative")
        return cls(center - deviation, center + deviation)

    @classmethod
    def hull(cls, intervals: Iterable["Interval"]) -> "Interval":
        """The smallest interval containing every interval in ``intervals``."""
        intervals = list(intervals)
        if not intervals:
            raise ValueError("hull() of an empty collection is undefined")
        lo = np.minimum.reduce([iv.lo for iv in intervals])
        hi = np.maximum.reduce([iv.hi for iv in intervals])
        return cls(lo, hi)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def deviation(self) -> np.ndarray:
        return (self.hi - self.lo) / 2.0

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def shape(self) -> tuple:
        return self.lo.shape

    def is_point(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.width <= tol))

    def contains(self, value: ArrayLike, tol: float = 1e-9) -> bool:
        arr = _as_array(value)
        return bool(np.all(arr >= self.lo - tol) and np.all(arr <= self.hi + tol))

    def contains_interval(self, other: "Interval", tol: float = 1e-9) -> bool:
        return bool(np.all(other.lo >= self.lo - tol) and np.all(other.hi <= self.hi + tol))

    def intersects(self, other: "Interval") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def intersection(self, other: "Interval") -> "Interval | None":
        """Element-wise intersection, or ``None`` if empty in any dimension."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Interval(lo, hi)

    def volume(self) -> float:
        """Product of widths over all dimensions (length for 1-d)."""
        return float(np.prod(self.width))

    def overlap_fraction(self, target: "Interval") -> float:
        """Fraction of *this* interval's volume that lies inside ``target``.

        This implements the smoothed QC feedback measure of Eq. 6: the relative
        volume of the output region contained in the allowed region.  For
        degenerate (zero-width) intervals the fraction is 1.0 when the point
        lies inside ``target`` and 0.0 otherwise.
        """
        inter = self.intersection(target)
        if inter is None:
            return 0.0
        own = self.width
        if np.all(own <= 0):
            return 1.0 if target.contains(self.center) else 0.0
        # Per-dimension fractional overlap; degenerate dims count as 1 if inside.
        fracs = np.where(own > 0, inter.width / np.where(own > 0, own, 1.0), 1.0)
        return float(np.prod(np.clip(fracs, 0.0, 1.0)))

    # ------------------------------------------------------------------ #
    # Arithmetic (all sound)
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Interval | ArrayLike") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        arr = _as_array(other)
        return Interval(self.lo + arr, self.hi + arr)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | ArrayLike") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        arr = _as_array(other)
        return Interval(self.lo - arr, self.hi - arr)

    def __rsub__(self, other: ArrayLike) -> "Interval":
        return (-self) + other

    def __mul__(self, other: "Interval | ArrayLike") -> "Interval":
        if isinstance(other, Interval):
            candidates = [
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            ]
            return Interval(np.minimum.reduce(candidates), np.maximum.reduce(candidates))
        arr = _as_array(other)
        lo = np.where(arr >= 0, self.lo * arr, self.hi * arr)
        hi = np.where(arr >= 0, self.hi * arr, self.lo * arr)
        return Interval(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | ArrayLike") -> "Interval":
        if isinstance(other, Interval):
            if np.any((other.lo <= 0) & (other.hi >= 0)):
                raise ZeroDivisionError("interval divisor straddles zero")
            return self * Interval(1.0 / other.hi, 1.0 / other.lo)
        arr = _as_array(other)
        if np.any(arr == 0):
            raise ZeroDivisionError("division by zero")
        lo = np.where(arr > 0, self.lo / arr, self.hi / arr)
        hi = np.where(arr > 0, self.hi / arr, self.lo / arr)
        return Interval(lo, hi)

    # ------------------------------------------------------------------ #
    # Monotone / shape functions
    # ------------------------------------------------------------------ #
    def apply_monotone(self, fn) -> "Interval":
        """Apply an element-wise non-decreasing function to the interval."""
        return Interval(fn(self.lo), fn(self.hi))

    def relu(self) -> "Interval":
        return self.apply_monotone(lambda x: np.maximum(x, 0.0))

    def tanh(self) -> "Interval":
        return self.apply_monotone(np.tanh)

    def sigmoid(self) -> "Interval":
        return self.apply_monotone(lambda x: 1.0 / (1.0 + np.exp(-x)))

    def exp(self) -> "Interval":
        return self.apply_monotone(np.exp)

    def exp2(self) -> "Interval":
        return self.apply_monotone(np.exp2)

    def clip(self, lo: float, hi: float) -> "Interval":
        return Interval(np.clip(self.lo, lo, hi), np.clip(self.hi, lo, hi))

    def abs(self) -> "Interval":
        lo = np.where((self.lo <= 0) & (self.hi >= 0), 0.0, np.minimum(np.abs(self.lo), np.abs(self.hi)))
        hi = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return Interval(lo, hi)

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def split(self, n: int, axis: int = 0) -> list:
        """Split the interval into ``n`` equal-width pieces along ``axis``.

        Used for constructing the ``N`` QC components (Section 4.3.1).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if self.lo.ndim == 0:
            edges = np.linspace(float(self.lo), float(self.hi), n + 1)
            return [Interval(edges[i], edges[i + 1]) for i in range(n)]
        pieces = []
        edges = np.linspace(self.lo, self.hi, n + 1, axis=0)
        for i in range(n):
            lo_slice = np.take(edges, i, axis=0)
            hi_slice = np.take(edges, i + 1, axis=0)
            pieces.append(Interval(lo_slice, hi_slice))
        return pieces

    def split_dims(self, n: int, dims: Sequence[int]) -> list:
        """Split only the listed dimensions into ``n`` aligned slices.

        All dimensions in ``dims`` are sliced *jointly* (slice ``i`` takes the
        ``i``-th sub-range in each listed dimension); the other dimensions stay
        untouched.  This mirrors Canopy's partitioning, where the variable of
        interest is abstracted over the past ``k`` steps and partitioned while
        the remaining observation dimensions stay concrete.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if self.lo.ndim != 1:
            raise ValueError("split_dims requires a 1-d interval")
        pieces = []
        for i in range(n):
            lo = self.lo.copy()
            hi = self.hi.copy()
            for d in dims:
                width = self.hi[d] - self.lo[d]
                lo[d] = self.lo[d] + width * i / n
                hi[d] = self.lo[d] + width * (i + 1) / n
            pieces.append(Interval(lo, hi))
        return pieces

    def select(self, indices: Sequence[int]) -> "Interval":
        """Project onto a subset of dimensions (1-d intervals only)."""
        idx = np.asarray(indices, dtype=int)
        return Interval(self.lo[idx], self.hi[idx])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"
