import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samlab.data import Batch, Dataset, generate_dataset, make_batches
from samlab.errors import ConfigurationError
from samlab import objectives
from samlab.objectives import (SHARP_FLAT_CALIBRATION, classify_basin, eval_grad, eval_heldout,
                               eval_loss, fd_gradient, init_params, make_mlp_classifier,
                               make_quadratic, make_rosenbrock, make_sharp_flat, mlp_accuracy,
                               mlp_predict,
                               param_segments, prime_epoch, sharp_flat_centers,
                               sharp_flat_designed_losses, sharp_flat_ridge)
from samlab.optim import OptimizerConfig, run_sgd
from samlab.params import ParamVector

from helpers import (oracle_mlp_eval, oracle_mlp_predict, oracle_sharp_flat_ridge,
                     scalar_mlp_loss, whole_dataset_batch)

# value computed by the scalar forward-pass oracle at the seed-0 init,
# (2, 8, 2) tanh network on the 64-example blobs batch below
MLP_GOLDEN_LOSS = 0.6412584406625839


def _pv(*values):
    return ParamVector(np.array(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# quadratic

def test_quadratic_loss_at_minimum_is_zero():
    spec = make_quadratic(np.eye(2))
    assert eval_loss(spec, _pv(0.0, 0.0)) == 0.0


def test_quadratic_loss_value():
    spec = make_quadratic(np.eye(2))
    assert eval_loss(spec, _pv(3.0, 4.0)) == pytest.approx(12.5, abs=0.0)


def test_quadratic_gradient_value():
    spec = make_quadratic(np.diag([1.0, 10.0]))
    _, g = eval_grad(spec, _pv(1.0, 1.0))
    assert np.array_equal(g, [1.0, 10.0])


def test_quadratic_gradient_with_weight_decay():
    spec = make_quadratic(np.eye(2), weight_decay=0.1)
    _, g = eval_grad(spec, _pv(1.0, 0.0))
    assert np.allclose(g, [1.2, 0.0], atol=1e-15)


def test_quadratic_gradient_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    a = m + m.T
    b = rng.standard_normal(4)
    lam = 0.05
    spec = make_quadratic(a, b, weight_decay=lam)
    for _ in range(10):
        w = rng.standard_normal(4)
        _, g = eval_grad(spec, ParamVector(w))
        oracle = a @ w - b + 2.0 * lam * w
        assert np.allclose(g, oracle, atol=1e-12)


def test_quadratic_requires_symmetric_matrix():
    with pytest.raises(ConfigurationError):
        make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_dimension_mismatch_is_configuration_error():
    spec = make_quadratic(np.eye(3))
    with pytest.raises(ConfigurationError):
        eval_loss(spec, _pv(1.0, 2.0))


# ---------------------------------------------------------------------------
# mlp

def _blobs_batch():
    return whole_dataset_batch(generate_dataset("blobs", 64, 0.5, seed=1))


def test_mlp_loss_matches_scalar_oracle_and_golden():
    spec = make_mlp_classifier((2, 8, 2), activation="tanh")
    w = init_params(spec, 0)
    batch = _blobs_batch()
    loss = eval_loss(spec, w, batch)
    oracle = scalar_mlp_loss((2, 8, 2), "tanh", 0.0, w.values, batch.inputs, batch.targets)
    assert loss == pytest.approx(oracle, rel=1e-12)
    assert loss == pytest.approx(MLP_GOLDEN_LOSS, rel=1e-12)


def test_mlp_loss_with_weight_decay_matches_oracle():
    spec = make_mlp_classifier((2, 8, 2), activation="tanh", weight_decay=0.01)
    w = init_params(spec, 0)
    batch = _blobs_batch()
    oracle = scalar_mlp_loss((2, 8, 2), "tanh", 0.01, w.values, batch.inputs, batch.targets)
    assert eval_loss(spec, w, batch) == pytest.approx(oracle, rel=1e-12)


def test_mlp_relu_matches_scalar_oracle():
    spec = make_mlp_classifier((2, 6, 3, 2), activation="relu")
    w = init_params(spec, 4)
    batch = _blobs_batch()
    oracle = scalar_mlp_loss((2, 6, 3, 2), "relu", 0.0, w.values, batch.inputs, batch.targets)
    assert eval_loss(spec, w, batch) == pytest.approx(oracle, rel=1e-12)


def test_mlp_segments_name_layers():
    spec = make_mlp_classifier((2, 4, 2))
    assert [s[0] for s in param_segments(spec)] == [
        "layer0.W", "layer0.b", "layer1.W", "layer1.b"]
    assert sum(s[2] for s in param_segments(spec)) == spec.param_count == 2 * 4 + 4 + 4 * 2 + 2


def test_mlp_requires_batch_and_matching_dims():
    spec = make_mlp_classifier((2, 4, 2))
    w = init_params(spec, 0)
    with pytest.raises(ConfigurationError):
        eval_loss(spec, w, None)
    bad = whole_dataset_batch(generate_dataset("blobs", 8, 0.1, seed=0))
    bad.targets = bad.targets + 5
    with pytest.raises(ConfigurationError):
        eval_loss(spec, w, bad)


def test_mlp_accuracy_on_separable_blobs():
    # untrained net: only determinism and range are checked here
    spec = make_mlp_classifier((2, 8, 2))
    w = init_params(spec, 0)
    ds = generate_dataset("blobs", 32, 0.2, seed=2)
    acc1 = mlp_accuracy(spec, w, ds.inputs, ds.targets)
    acc2 = mlp_accuracy(spec, w, ds.inputs, ds.targets)
    assert acc1 == acc2
    assert 0.0 <= acc1 <= 1.0


def test_purity_identical_calls_identical_results():
    spec = make_mlp_classifier((2, 5, 2), weight_decay=1e-3)
    w = init_params(spec, 7)
    batch = _blobs_batch()
    l1, g1 = eval_grad(spec, w, batch)
    l2, g2 = eval_grad(spec, w, batch)
    assert l1 == l2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("spec", [make_quadratic(np.diag([1.0, 10.0]), weight_decay=0.1),
                                  make_rosenbrock(3, weight_decay=0.01),
                                  make_sharp_flat(0.08, 0.5, 0.3, 2.0)], ids=lambda s: s.kind)
def test_eval_grad_takes_a_bare_array(spec):
    w = ParamVector(np.random.default_rng(5).standard_normal(spec.param_count))
    loss, grad = eval_grad(spec, w)
    array_loss, array_grad = eval_grad(spec, w.values)
    assert _bits(array_loss) == _bits(loss) and array_grad.tobytes() == grad.tobytes()
    assert _bits(eval_loss(spec, w.values)) == _bits(loss)
    with pytest.raises(ConfigurationError):
        eval_grad(spec, np.zeros(spec.param_count + 1))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(deadline=None, max_examples=60)  # timing on a shared host is not what this checks
@given(hidden=st.lists(st.integers(1, 12), max_size=2), input_dim=st.integers(1, 3),
       n_classes=st.integers(2, 3), activation=st.sampled_from(["tanh", "relu"]),
       weight_decay=st.sampled_from([0.0, 1e-4, 0.3]), n=st.integers(1, 40),
       data=st.data(), seed=st.integers(0, 2**32 - 1),
       target_dtype=st.sampled_from([np.int64, np.int32]))
def test_mlp_kernel_matches_parent_oracle_bit_for_bit(hidden, input_dim, n_classes, activation,
                                                      weight_decay, n, data, seed,
                                                      target_dtype):
    """eval_grad, eval_loss and mlp_predict equal the pre-trim kernel (tests/helpers.py)
    byte for byte: the order of floating-point operations is part of the contract."""
    sizes = (input_dim, *hidden, n_classes)
    spec = make_mlp_classifier(sizes, activation=activation, weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    # perturbed weights, so relu units are both active and dead
    w = init_params(spec, seed)
    w = w.with_values(w.values + 0.5 * rng.standard_normal(w.size))
    ds = Dataset("blobs", seed, 0.0, 2.0 * rng.standard_normal((n, input_dim)),
                 rng.integers(0, n_classes, size=n).astype(target_dtype))
    batch_size = data.draw(st.integers(1, n), label="batch_size")
    for batch in make_batches(ds, batch_size, seed, 0):  # the last batch may be short
        ref_loss, ref_grad = oracle_mlp_eval(spec, w.values, batch, with_grad=True)
        # the first call checks and indexes the targets, the second reuses that
        for _ in range(2):
            loss, grad = eval_grad(spec, w, batch)
            assert _bits(loss) == _bits(ref_loss)
            assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
        assert _bits(eval_loss(spec, w, batch)) == _bits(
            oracle_mlp_eval(spec, w.values, batch, with_grad=False)[0])
        # the training loop passes the bare array, and evaluates held-out rows in one pass
        array_loss, array_grad = eval_grad(spec, w.values, batch)
        assert _bits(array_loss) == _bits(loss) and array_grad.tobytes() == grad.tobytes()
        heldout_loss, heldout_acc = eval_heldout(spec, w.values, batch)
        assert _bits(heldout_loss) == _bits(eval_loss(spec, w, batch))
        assert _bits(heldout_acc) == _bits(mlp_accuracy(spec, w, batch.inputs, batch.targets))
    assert np.array_equal(mlp_predict(spec, w, ds.inputs),
                          oracle_mlp_predict(spec, w.values, ds.inputs))


def _assert_matches_oracle(spec, values, batch):
    """eval_grad and eval_heldout on ``batch`` equal the oracle kernel, bit for bit."""
    loss, grad = eval_grad(spec, values, batch)
    ref_loss, ref_grad = oracle_mlp_eval(spec, values, batch, with_grad=True)
    assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()
    heldout_loss, heldout_acc = eval_heldout(spec, values, batch)
    assert _bits(heldout_loss) == _bits(oracle_mlp_eval(spec, values, batch, False)[0])
    assert _bits(heldout_acc) == _bits(float(np.mean(
        oracle_mlp_predict(spec, values, batch.inputs) == batch.targets)))


def test_batch_targets_are_read_only():
    ds = generate_dataset("blobs", 16, 0.5, seed=1)
    for batch in [whole_dataset_batch(ds), *make_batches(ds, 5, 0, 0)]:
        with pytest.raises(ValueError):
            batch.targets[0] = 1
    assert ds.targets.flags.writeable  # the dataset's own array is left alone


def test_reassigned_targets_get_no_stale_index():
    spec = make_mlp_classifier((2, 5, 2), activation="tanh")
    values = init_params(spec, 3).values
    batch = _blobs_batch()
    _assert_matches_oracle(spec, values, batch)
    # a writable array is checked and indexed on every call, so writing to it is seen
    flipped = 1 - batch.targets
    batch.targets = flipped
    _assert_matches_oracle(spec, values, batch)
    flipped[:10] = 1 - flipped[:10]
    _assert_matches_oracle(spec, values, batch)
    # a read-only array gets its own index
    frozen = np.zeros(batch.size, dtype=np.int32)
    frozen.flags.writeable = False
    batch.targets = frozen
    _assert_matches_oracle(spec, values, batch)


def test_index_is_kept_per_class_count():
    """One batch under a 2-class and a 3-class net: the row stride differs."""
    batch = _blobs_batch()
    for sizes in [(2, 4, 2), (2, 4, 3), (2, 4, 2)]:
        spec = make_mlp_classifier(sizes, activation="relu")
        _assert_matches_oracle(spec, init_params(spec, 1).values, batch)


def test_out_of_range_targets_raise_on_every_call():
    spec = make_mlp_classifier((2, 4, 2))
    values = init_params(spec, 0).values
    ds = generate_dataset("blobs", 8, 0.1, seed=0)
    for targets in [ds.targets + 1, ds.targets - 1]:
        batch = whole_dataset_batch(Dataset("blobs", 0, 0.1, ds.inputs, targets))
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="out of range"):
                eval_grad(spec, values, batch)
            with pytest.raises(ConfigurationError, match="out of range"):
                eval_heldout(spec, values, batch)
    # valid for three classes is out of range for two, even after a valid call
    batch = whole_dataset_batch(Dataset("blobs", 0, 0.1, ds.inputs, ds.targets + 1))
    three = make_mlp_classifier((2, 4, 3))
    eval_grad(three, init_params(three, 0).values, batch)
    with pytest.raises(ConfigurationError, match="out of range"):
        eval_grad(spec, values, batch)


def _epoch(n=110, batch_size=16):
    """One epoch's batches of a moons set; 110 rows leave a short last batch of 14."""
    return make_batches(generate_dataset("moons", n, 0.2, seed=2), batch_size, 0, 1)


@pytest.mark.parametrize("sizes, activation", [((2, 16, 2), "tanh"), ((2, 8, 3), "relu"),
                                               ((2, 8, 8, 2), "tanh")])
def test_batches_primed_from_their_epoch_match_the_oracle(sizes, activation):
    spec = make_mlp_classifier(sizes, activation=activation, weight_decay=1e-3)
    values = init_params(spec, 5).values
    batches = _epoch()
    prime_epoch(spec, batches)
    n_classes = sizes[-1]
    for batch in batches:
        kept_targets, kept_classes, index = batch.target_index
        assert kept_targets is batch.targets and kept_classes == n_classes
        # the index a first evaluation of an unprimed batch would have kept
        fresh = Batch(batch.inputs, batch.targets, batch.indices)
        eval_loss(spec, values, fresh)
        assert index.dtype == fresh.target_index[2].dtype
        assert index.tobytes() == fresh.target_index[2].tobytes()
        _assert_matches_oracle(spec, values, batch)


def test_targets_reassigned_after_priming_are_checked_again():
    spec = make_mlp_classifier((2, 5, 2))
    values = init_params(spec, 3).values
    batches = _epoch()
    prime_epoch(spec, batches)
    batch = batches[0]
    for _ in range(2):
        batch.targets = batch.targets + 1  # writable, and holds a 2
        with pytest.raises(ConfigurationError, match="out of range"):
            eval_grad(spec, values, batch)
        batch.targets = (batch.targets - 1)[::-1]
        _assert_matches_oracle(spec, values, batch)
    frozen = np.ones(batch.size, dtype=np.int32)
    frozen.flags.writeable = False
    batch.targets = frozen
    _assert_matches_oracle(spec, values, batch)
    # a primed batch under another class count is indexed afresh
    three = make_mlp_classifier((2, 5, 3))
    _assert_matches_oracle(three, init_params(three, 3).values, batches[1])


def test_an_epoch_with_bad_targets_is_rejected():
    spec = make_mlp_classifier((2, 4, 2))
    ds = generate_dataset("moons", 40, 0.2, seed=2)
    shifted = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs, ds.targets + 1)
    with pytest.raises(ConfigurationError, match="out of range"):
        prime_epoch(spec, make_batches(shifted, 8, 0, 0))
    as_float = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs, ds.targets.astype(float))
    with pytest.raises(ConfigurationError, match="must be integers"):
        prime_epoch(spec, make_batches(as_float, 8, 0, 0))
    with pytest.raises(ConfigurationError, match="out of range"):
        run_sgd(spec, shifted, OptimizerConfig(), 3, 0, batch_size=8)


@pytest.mark.parametrize("targets", [[0.0, 1.7, 1.2], [0, -0.5, 1], [0.0, 1.0, 1.0],
                                     [True, False, True], [0.0, float("nan"), 1.0]],
                         ids=["fractions", "negative_fraction", "whole_floats", "bool", "nan"])
def test_non_integer_targets_raise(targets):
    spec = make_mlp_classifier((2, 4, 2))
    values = init_params(spec, 0).values
    batch = Batch(np.zeros((3, 2)), np.array(targets), np.arange(3))
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="must be integers"):
            eval_grad(spec, values, batch)
        with pytest.raises(ConfigurationError, match="must be integers"):
            eval_loss(spec, values, batch)


# ---------------------------------------------------------------------------
# finite differences

def test_fd_gradient_linear_case_is_exact():
    spec = make_quadratic(np.array([[2.0]]))
    fd = fd_gradient(spec, _pv(3.0), None, 1e-5)
    assert abs(fd[0] - 6.0) <= 1e-8


def test_fd_gradient_rejects_zero_step():
    spec = make_quadratic(np.eye(2))
    with pytest.raises(ConfigurationError):
        fd_gradient(spec, _pv(1.0, 1.0), None, 0.0)


def _rel_err(g, fd):
    return float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)))


@pytest.mark.parametrize("kind", ["quadratic", "rosenbrock", "sharp_flat", "mlp"])
def test_gradient_agrees_with_finite_differences(kind):
    rng = np.random.default_rng(42)
    batch = None
    if kind == "quadratic":
        m = rng.standard_normal((3, 3))
        spec = make_quadratic(m + m.T + 4 * np.eye(3), rng.standard_normal(3), 0.01)
    elif kind == "rosenbrock":
        spec = make_rosenbrock(4, weight_decay=0.001)
    elif kind == "sharp_flat":
        spec = make_sharp_flat(0.1, 0.5, 0.3, 2.0)
    else:
        spec = make_mlp_classifier((2, 6, 2), weight_decay=1e-3)
        batch = _blobs_batch()
    for _ in range(10):
        if kind == "mlp":
            w = init_params(spec, int(rng.integers(1 << 30)))
        else:
            w = ParamVector(rng.standard_normal(spec.param_count))
        _, g = eval_grad(spec, w, batch)
        fd = fd_gradient(spec, w, batch, 1e-5)
        assert _rel_err(g, fd) <= 1e-5


# ---------------------------------------------------------------------------
# sharp/flat landscape

def test_sharp_flat_designed_values():
    spec = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    (xs, ys), (xf, yf) = sharp_flat_centers(spec)
    sharp_loss, flat_loss = sharp_flat_designed_losses(spec)
    assert eval_loss(spec, _pv(xf, yf)) == flat_loss == 0.0
    assert eval_loss(spec, _pv(xs, ys)) == sharp_loss == -0.3


def test_sharp_flat_gradient_vanishes_at_minima():
    spec = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    for center in sharp_flat_centers(spec):
        fd = fd_gradient(spec, _pv(*center), None, 1e-6)
        assert np.linalg.norm(fd) <= 1e-8


def test_sharp_flat_curvature_ordering():
    spec = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    (xs, _), (xf, _) = sharp_flat_centers(spec)

    def hess_diag(x0, y0):
        h = 1e-4
        out = []
        for direction in ((1.0, 0.0), (0.0, 1.0)):
            up = eval_loss(spec, _pv(x0 + h * direction[0], y0 + h * direction[1]))
            mid = eval_loss(spec, _pv(x0, y0))
            down = eval_loss(spec, _pv(x0 - h * direction[0], y0 - h * direction[1]))
            out.append((up - 2 * mid + down) / h**2)
        return out

    sharp = hess_diag(xs, 0.0)
    flat = hess_diag(xf, 0.0)
    assert all(s > f for s, f in zip(sharp, flat))
    # designed curvature: 1/width^2 along x, a fixed fraction of it along y
    assert sharp == pytest.approx([1 / 0.08**2, 0.25 / 0.08**2], rel=1e-4)
    assert flat == pytest.approx([1 / 0.5**2, 0.25 / 0.5**2], rel=1e-4)


def test_sharp_flat_ridge_separates_basins():
    spec = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    ridge = sharp_flat_ridge(spec)
    (xs, _), (xf, _) = sharp_flat_centers(spec)
    assert xs < ridge < xf
    assert classify_basin(spec, _pv(xs, 0.0)) == "sharp"
    assert classify_basin(spec, _pv(xf, 0.0)) == "flat"


def test_calibrated_ridge_is_pinned():
    cal = SHARP_FLAT_CALIBRATION
    spec = make_sharp_flat(cal["width_sharp"], cal["width_flat"], cal["depth_gap"],
                           cal["separation"])
    assert _bits(sharp_flat_ridge(spec)) == _bits(-0.2647999999999999)


@pytest.mark.parametrize("geometry", [
    tuple(SHARP_FLAT_CALIBRATION[k]
          for k in ("width_sharp", "width_flat", "depth_gap", "separation")),
    (0.1, 0.7, 0.1, 1.5),
    (0.05, 0.3, 0.5, 3.0),
], ids=["calibration", "wide", "deep"])
def test_ridge_scan_over_floats_matches_the_array_scan(geometry):
    spec = make_sharp_flat(*geometry)
    objectives._RIDGE_CACHE.pop(geometry, None)
    assert _bits(sharp_flat_ridge(spec)) == _bits(oracle_sharp_flat_ridge(spec))


def test_sharp_flat_preconditions():
    with pytest.raises(ConfigurationError):
        make_sharp_flat(0.5, 0.1, 0.1, 1.0)   # sharp wider than flat
    with pytest.raises(ConfigurationError):
        make_sharp_flat(0.1, 0.5, 0.1, 0.0)   # zero separation
    with pytest.raises(ConfigurationError):
        make_sharp_flat(0.1, 0.5, -0.1, 1.0)  # negative depth gap


def test_init_params_deterministic():
    spec = make_mlp_classifier((2, 4, 2))
    a = init_params(spec, 5)
    b = init_params(spec, 5)
    assert np.array_equal(a.values, b.values)
    assert a.segments == b.segments
