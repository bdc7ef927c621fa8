import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from samlab.errors import ConfigurationError, NumericError
from samlab.objectives import make_mlp_classifier, param_segments
from samlab.params import (ParamVector, all_finite, default_subset, l2_norm, require_finite,
                           subset_index, subset_norm, subset_selector)


def test_default_segment_covers_everything():
    pv = ParamVector(np.arange(5.0))
    assert pv.segments == [("w", 0, 5)]
    assert pv.size == 5


def test_segments_must_be_contiguous():
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros(4), [("a", 0, 2), ("b", 3, 1)])


def test_segments_must_cover_exactly():
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros(4), [("a", 0, 2), ("b", 2, 1)])


def test_duplicate_segment_names_rejected():
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros(4), [("a", 0, 2), ("a", 2, 2)])


def test_non_finite_values_rejected():
    with warnings.catch_warnings():
        # the boundary check is elementwise: no floating-point warning on the way
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            ParamVector(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            ParamVector(np.array([np.inf, 0.0]))


def test_serialization_round_trip_preserves_segments_and_values():
    pv = ParamVector(np.array([0.1, -0.25, 1e-17, 3.5]),
                     [("layer0.W", 0, 2), ("layer0.b", 2, 2)])
    back = ParamVector.from_dict(pv.to_dict())
    assert back.segments == pv.segments
    assert np.array_equal(back.values, pv.values)


def test_subset_norm_restricts_to_named_segments():
    pv = ParamVector(np.array([3.0, 4.0, 5.0, 12.0]),
                     [("a", 0, 2), ("b", 2, 2)])
    g = np.array([3.0, 4.0, 5.0, 12.0])
    assert subset_norm(g, pv, ["a"]) == 5.0
    assert subset_norm(g, pv, ["b"]) == 13.0
    assert subset_norm(g, pv, ["a", "b"]) == np.linalg.norm(g)
    with pytest.raises(ConfigurationError):
        subset_norm(g, pv, ["missing"])


def test_default_subset_is_last_two_segments():
    pv = ParamVector(np.zeros(6), [("a", 0, 2), ("b", 2, 2), ("c", 4, 2)])
    assert default_subset(pv) == ["b", "c"]
    single = ParamVector(np.zeros(3))
    assert default_subset(single) == ["w"]


def test_with_values_shares_layout():
    pv = ParamVector(np.zeros(3), [("a", 0, 1), ("b", 1, 2)])
    other = pv.with_values(np.ones(3))
    assert other.segments == pv.segments
    assert np.all(other.values == 1.0)
    assert np.all(pv.values == 0.0)


def _bits(x):
    return struct.pack("<d", x)


@settings(deadline=None)  # timing on a shared host is not what these check
@given(arrays(np.float64, st.integers(0, 300),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_l2_norm_matches_numpy_bit_for_bit(x):
    with np.errstate(over="ignore"):  # both overflow to inf on huge elements
        assert _bits(l2_norm(x)) == _bits(float(np.linalg.norm(x)))


_LAYOUT = [("layer0.W", 0, 6), ("layer0.b", 6, 3), ("layer1.W", 9, 6), ("layer1.b", 15, 2)]


def _mask_norm(values, names):
    # oracle: a boolean mask over the named segments, normed by numpy
    mask = np.zeros(values.size, dtype=bool)
    for name, start, length in _LAYOUT:
        if name in names:
            mask[start:start + length] = True
    return float(np.linalg.norm(values[mask]))


@settings(deadline=None)  # timing on a shared host is not what these check
@given(values=arrays(np.float64, 17, elements=st.floats(-1e6, 1e6)),
       names=st.lists(st.sampled_from([name for name, _, _ in _LAYOUT]), min_size=1,
                      max_size=6))
def test_subset_index_is_order_and_duplicate_free(values, names):
    pv = ParamVector(np.zeros(17), list(_LAYOUT))
    index = subset_index(pv, names)
    assert list(index) == sorted(set(index))
    expected = _bits(_mask_norm(values, names))
    assert _bits(l2_norm(values[index])) == expected
    assert _bits(subset_norm(values, pv, names)) == expected


def test_subset_index_out_of_order_and_duplicated_names():
    pv = ParamVector(np.zeros(17), list(_LAYOUT))
    values = np.random.default_rng(4).standard_normal(17)
    in_order = subset_index(pv, ["layer0.W", "layer1.W"])
    for names in (["layer1.W", "layer0.W"], ["layer1.W", "layer0.W", "layer1.W"]):
        assert np.array_equal(subset_index(pv, names), in_order)
        assert l2_norm(values[subset_index(pv, names)]) == subset_norm(values, pv, names)
    assert l2_norm(values[in_order]) == _mask_norm(values, ["layer0.W", "layer1.W"])


@pytest.mark.parametrize("sizes", [(2, 16, 2), (2, 8, 8, 2)])
def test_slice_view_subset_norms_equal_fancy_index_norms(sizes):
    """Every run of consecutive segments is selected by a slice, with the index's norm bits."""
    segments = param_segments(make_mlp_classifier(sizes))
    names = [name for name, _, _ in segments]
    pv = ParamVector(np.zeros(sum(length for _, _, length in segments)), segments)
    rng = np.random.default_rng(len(sizes))
    for lo in range(len(names)):
        for hi in range(lo + 1, len(names) + 1):
            selector, index = subset_selector(pv, names[lo:hi]), subset_index(pv, names[lo:hi])
            if hi - lo == len(names):
                assert selector is None
            else:
                assert selector == slice(int(index[0]), int(index[-1]) + 1)
            for scale in (1e-200, 1e-3, 1.0, 1e150):
                values = rng.standard_normal(pv.size) * scale
                picked = values if selector is None else values[selector]
                assert _bits(l2_norm(picked)) == _bits(l2_norm(values[index]))
    # segments that are not one range keep the index
    apart = subset_selector(pv, [names[0], names[-1]])
    assert np.array_equal(apart, subset_index(pv, [names[0], names[-1]]))


@settings(deadline=None)  # timing on a shared host is not what these check
@given(values=arrays(np.float64, st.integers(1, 200),
                     elements=st.floats(-1e150, 1e150, allow_subnormal=True)),
       data=st.data())
def test_slice_view_norm_equals_fancy_index_norm_on_random_vectors(values, data):
    start = data.draw(st.integers(0, values.size - 1))
    stop = data.draw(st.integers(start + 1, values.size))
    view, copy = values[start:stop], values[np.arange(start, stop)]
    assert _bits(l2_norm(view)) == _bits(l2_norm(copy))


def test_subset_of_an_empty_segment_selects_nothing():
    pv = ParamVector(np.ones(3), [("a", 0, 3), ("empty", 3, 0)])
    selector = subset_selector(pv, ["empty"])
    assert l2_norm(np.ones(3)[selector]) == 0.0


_FINITE = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]))


@settings(deadline=None)  # timing on a shared host is not what these check
@given(values=st.lists(_FINITE, min_size=1, max_size=300),
       bad=st.lists(st.tuples(st.integers(0, 299),
                              st.sampled_from([math.inf, -math.inf, math.nan])), max_size=3))
def test_finiteness_screen_matches_isfinite(values, bad):
    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a finite vector never warns
        assert all_finite(x)
        require_finite(x)
    for where, value in bad:
        x[where % x.size] = value
    with np.errstate(invalid="ignore"):
        assert all_finite(x) == np.isfinite(x).all() == (not bad)
        if bad:
            with pytest.raises(NumericError):
                require_finite(x)
