"""Flat parameter vectors, and norms restricted to named segments of them.

A vector holds only weights; its segments (for example the last layer's
weights and biases) are the objective's layout, ``objectives.param_segments``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError


@dataclass
class ParamVector:
    """A one-dimensional array of finite float64 weights."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ConfigurationError("parameter values must be one-dimensional")
        # the elementwise test, not the screen: it never warns on a non-finite entry
        if not np.isfinite(self.values).all():
            raise NumericError("parameter vector contains non-finite values")

    @property
    def size(self) -> int:
        return self.values.size


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


def all_finite(x: np.ndarray, zeros: np.ndarray | None = None) -> bool:
    """Whether every entry of a one-dimensional float64 array is finite, from one dot product.

    ``x.dot(zeros)`` sums the products ``x[i] * 0.0``. Each is ±0 when
    ``x[i]`` is finite and NaN when it is ±inf or NaN (inf * 0 is NaN), and a
    sum of ±0 terms is ±0, so nothing can overflow: the result compares
    equal to 0.0 exactly when ``x`` is finite. It is the verdict of
    ``np.isfinite(x).all()`` at a fraction of its cost on short vectors. On a
    non-finite ``x`` numpy warns of an invalid value, unless its
    floating-point warnings are off; on a finite one it never warns.
    ``zeros`` is the caller's zero vector of ``x``'s size, if it keeps one.
    """
    return x.dot(_zeros(x.size) if zeros is None else zeros) == 0.0


def require_finite(values: np.ndarray, zeros: np.ndarray | None = None) -> None:
    """Raise NumericError unless every weight is finite (the ``all_finite`` screen)."""
    if not all_finite(values, zeros):
        raise NumericError("parameter vector contains non-finite values")


def subset_index(segments, names) -> np.ndarray:
    """Ascending, duplicate-free indices of the named ``segments`` of a layout.

    The index comes from a mask, so the order and repetition of ``names``
    do not change which elements a subset norm sums, or in which order.
    """
    spans = {name: slice(start, start + length) for name, start, length in segments}
    mask = np.zeros(sum(length for _, _, length in segments), dtype=bool)
    for name in names:
        if name not in spans:
            raise ConfigurationError(f"unknown segment {name!r}")
        mask[spans[name]] = True
    return np.flatnonzero(mask)


def subset_selector(segments, names):
    """What picks the named ``segments`` out of a vector of that layout.

    None when they cover the whole vector, whose norm is then the subset
    norm; a slice when their indices form one range (a view, not a copy);
    ``subset_index`` otherwise. Each gives the bits of the norm over
    ``subset_index``.
    """
    index = subset_index(segments, names)
    if index.size == sum(length for _, _, length in segments):
        return None
    if index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def subset_norm(values: np.ndarray, segments, names) -> float:
    """Euclidean norm of ``values`` restricted to the named ``segments`` of its layout."""
    return l2_norm(values[subset_index(segments, names)])


def default_subset(segments) -> list[str]:
    """Names of the last two segments (or all of them when fewer exist)."""
    return [name for name, _, _ in segments[-2:]]
