import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from samlab.errors import ConfigurationError, NumericError
from samlab.objectives import make_mlp_classifier, make_rosenbrock, param_segments
from samlab.params import (ParamVector, all_finite, default_subset, l2_norm, require_finite,
                           subset_index, subset_norm, subset_selector)


def test_default_segment_covers_everything():
    pv = ParamVector(np.arange(5.0))
    assert pv.size == 5
    # an analytic objective's layout is one segment over all its parameters
    segments = param_segments(make_rosenbrock(5))
    assert segments == [("w", 0, 5)]
    assert default_subset(segments) == ["w"]
    assert subset_selector(segments, ["w"]) is None


def test_param_vector_carries_only_weights():
    assert [f.name for f in dataclasses.fields(ParamVector)] == ["values"]
    with pytest.raises(TypeError):
        ParamVector(np.zeros(3), [("a", 0, 1), ("b", 1, 2)])
    with pytest.raises(ConfigurationError):
        ParamVector(np.zeros((2, 2)))


def test_non_finite_values_rejected():
    with warnings.catch_warnings():
        # the boundary check is elementwise: no floating-point warning on the way
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            ParamVector(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            ParamVector(np.array([np.inf, 0.0]))


def test_subset_norm_restricts_to_named_segments():
    # a [1, 1, 1] MLP: one value in each of its four segments
    segments = param_segments(make_mlp_classifier((1, 1, 1)))
    g = np.array([3.0, 4.0, 5.0, 12.0])
    assert subset_norm(g, segments, ["layer0.W", "layer0.b"]) == 5.0
    assert subset_norm(g, segments, ["layer1.W", "layer1.b"]) == 13.0
    assert subset_norm(g, segments, default_subset(segments)) == 13.0
    assert subset_norm(g, segments, [name for name, _, _ in segments]) == np.linalg.norm(g)
    with pytest.raises(ConfigurationError, match="unknown segment 'missing'"):
        subset_norm(g, segments, ["missing"])


def test_default_subset_is_last_two_segments():
    assert default_subset(param_segments(make_mlp_classifier((2, 4, 3, 2)))) == [
        "layer2.W", "layer2.b"]
    assert default_subset(param_segments(make_mlp_classifier((2, 4, 2)))) == [
        "layer1.W", "layer1.b"]
    assert default_subset(param_segments(make_rosenbrock(3))) == ["w"]


def _bits(x):
    return struct.pack("<d", x)


@settings(deadline=None)  # timing on a shared host is not what these check
@given(arrays(np.float64, st.integers(0, 300),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_l2_norm_matches_numpy_bit_for_bit(x):
    with np.errstate(over="ignore"):  # both overflow to inf on huge elements
        assert _bits(l2_norm(x)) == _bits(float(np.linalg.norm(x)))


# layer0.W [0, 6), layer0.b [6, 9), layer1.W [9, 15), layer1.b [15, 17)
_LAYOUT = param_segments(make_mlp_classifier((2, 3, 2)))


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
    index = subset_index(_LAYOUT, names)
    assert list(index) == sorted(set(index))
    expected = _bits(_mask_norm(values, names))
    assert _bits(l2_norm(values[index])) == expected
    assert _bits(subset_norm(values, _LAYOUT, names)) == expected


def test_subset_index_out_of_order_and_duplicated_names():
    values = np.random.default_rng(4).standard_normal(17)
    in_order = subset_index(_LAYOUT, ["layer0.W", "layer1.W"])
    for names in (["layer1.W", "layer0.W"], ["layer1.W", "layer0.W", "layer1.W"]):
        assert np.array_equal(subset_index(_LAYOUT, names), in_order)
        assert l2_norm(values[subset_index(_LAYOUT, names)]) == subset_norm(values, _LAYOUT,
                                                                            names)
    assert l2_norm(values[in_order]) == _mask_norm(values, ["layer0.W", "layer1.W"])


@pytest.mark.parametrize("sizes", [(2, 16, 2), (2, 8, 8, 2)])
def test_slice_view_subset_norms_equal_fancy_index_norms(sizes):
    """Every run of consecutive segments is selected by a slice, with the index's norm bits."""
    segments = param_segments(make_mlp_classifier(sizes))
    names = [name for name, _, _ in segments]
    size = sum(length for _, _, length in segments)
    rng = np.random.default_rng(len(sizes))
    for lo in range(len(names)):
        for hi in range(lo + 1, len(names) + 1):
            selector = subset_selector(segments, names[lo:hi])
            index = subset_index(segments, names[lo:hi])
            if hi - lo == len(names):
                assert selector is None
            else:
                assert selector == slice(int(index[0]), int(index[-1]) + 1)
            for scale in (1e-200, 1e-3, 1.0, 1e150):
                values = rng.standard_normal(size) * scale
                picked = values if selector is None else values[selector]
                assert _bits(l2_norm(picked)) == _bits(l2_norm(values[index]))
    # segments that are not one range keep the index
    apart = subset_selector(segments, [names[0], names[-1]])
    assert np.array_equal(apart, subset_index(segments, [names[0], names[-1]]))


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
    selector = subset_selector([("a", 0, 3), ("empty", 3, 0)], ["empty"])
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
