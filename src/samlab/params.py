"""Flat parameter vectors with named, contiguous segments.

Segments let callers restrict norm computations to a tail of the model
(for example the last layer's weights and biases) without reshaping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError

Segment = tuple[str, int, int]  # (name, start, length)


@dataclass
class ParamVector:
    """A float64 parameter array plus segment metadata covering it exactly."""

    values: np.ndarray
    segments: list[Segment] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ConfigurationError("parameter values must be one-dimensional")
        if not self.segments:
            self.segments = [("w", 0, self.values.size)]
        _check_segments(self.segments, self.values.size)
        # the elementwise test, not the screen: it never warns on a non-finite entry
        if not np.isfinite(self.values).all():
            raise NumericError("parameter vector contains non-finite values")

    @property
    def size(self) -> int:
        return self.values.size

    def segment_names(self) -> list[str]:
        return [name for name, _, _ in self.segments]

    def segment_slice(self, name: str) -> slice:
        for seg_name, start, length in self.segments:
            if seg_name == name:
                return slice(start, start + length)
        raise ConfigurationError(f"unknown segment {name!r}")

    def with_values(self, values: np.ndarray) -> "ParamVector":
        """A new vector sharing this one's segment layout."""
        return ParamVector(values, list(self.segments))

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), list(self.segments))

    def to_dict(self) -> dict:
        return {
            "values": [float(v) for v in self.values],
            "segments": [[name, int(start), int(length)] for name, start, length in self.segments],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParamVector":
        segments = [(str(n), int(s), int(l)) for n, s, l in payload["segments"]]
        return cls(np.asarray(payload["values"], dtype=np.float64), segments)


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous one-dimensional float64 array.

    ``np.linalg.norm`` computes ``sqrt(x.dot(x))`` for such an array, so this
    gives the same bits without the cost of its argument dispatch.
    """
    return math.sqrt(float(x.dot(x)))


@functools.lru_cache(maxsize=64)
def _zeros(size: int) -> np.ndarray:
    zeros = np.zeros(size)
    zeros.flags.writeable = False
    return zeros


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of a one-dimensional float64 array is finite, from one dot product.

    ``x.dot(zeros)`` sums the products ``x[i] * 0.0``. Each is ±0 when
    ``x[i]`` is finite and NaN when it is ±inf or NaN (inf * 0 is NaN), and a
    sum of ±0 terms is ±0, so nothing can overflow: the result compares
    equal to 0.0 exactly when ``x`` is finite. It is the verdict of
    ``np.isfinite(x).all()`` at a fraction of its cost on short vectors. On a
    non-finite ``x`` numpy warns of an invalid value, unless its
    floating-point warnings are off; on a finite one it never warns.
    """
    return x.dot(_zeros(x.size)) == 0.0


def require_finite(values: np.ndarray) -> None:
    """Raise NumericError unless every weight is finite (the ``all_finite`` screen)."""
    if not all_finite(values):
        raise NumericError("parameter vector contains non-finite values")


def subset_index(pv: ParamVector, names) -> np.ndarray:
    """Ascending, duplicate-free indices of the named segments of ``pv``.

    The index comes from a mask, so the order and repetition of ``names``
    do not change which elements a subset norm sums, or in which order.
    """
    mask = np.zeros(pv.size, dtype=bool)
    for name in names:
        mask[pv.segment_slice(name)] = True
    return np.flatnonzero(mask)


def subset_selector(pv: ParamVector, names):
    """What picks the named segments of ``pv`` out of a vector of its layout.

    None when they cover the whole vector, whose norm is then the subset
    norm; a slice when their indices form one range (a view, not a copy);
    ``subset_index`` otherwise. Each gives the bits of the norm over
    ``subset_index``.
    """
    index = subset_index(pv, names)
    if index.size == pv.size:
        return None
    if index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def subset_norm(values: np.ndarray, pv: ParamVector, names) -> float:
    """Euclidean norm of ``values`` restricted to the named segments of ``pv``."""
    return l2_norm(values[subset_index(pv, names)])


def default_subset(pv: ParamVector) -> list[str]:
    """Last two segments (or all of them when fewer exist)."""
    names = pv.segment_names()
    return names[-2:] if len(names) >= 2 else names


def _check_segments(segments, total):
    covered = 0
    seen = set()
    for name, start, length in segments:
        if start != covered:
            raise ConfigurationError(
                f"segment {name!r} starts at {start}, expected {covered}: "
                "segments must be contiguous and ordered"
            )
        if length < 0:
            raise ConfigurationError(f"segment {name!r} has negative length")
        if name in seen:
            raise ConfigurationError(f"duplicate segment name {name!r}")
        seen.add(name)
        covered += length
    if covered != total:
        raise ConfigurationError(
            f"segments cover {covered} values but the array holds {total}"
        )
