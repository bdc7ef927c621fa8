import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from samlab.data import Batch, Dataset, generate_dataset, make_batches, train_test_split
from samlab.errors import ConfigurationError, NumericError
from samlab import objectives
from samlab.objectives import (SHARP_FLAT_CALIBRATION, ObjectiveSpec, classify_basin,
                               eval_grad, eval_heldout, eval_loss, init_params, make_mlp_classifier,
                               make_quadratic, make_rosenbrock, make_sharp_flat, mlp_accuracy,
                               param_segments, sharp_flat_centers,
                               sharp_flat_ridge)
from samlab.optim import OptimizerConfig, run_sgd
from samlab.params import ParamVector

from helpers import (fd_gradient, oracle_mlp_eval, oracle_mlp_predict, oracle_sharp_flat,
                     oracle_sharp_flat_ridge, scalar_mlp_loss, sharp_flat_designed_losses,
                     whole_dataset_batch)

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


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_eval_grad_screens_its_gradient_unless_told_not_to(value):
    spec = make_quadratic(np.eye(2))
    kernel = spec.plan.kernel

    def poisoned(x, batch, with_grad):
        loss, grad = kernel(x, batch, with_grad)
        return loss, np.array([grad[0], value])

    spec.__dict__["plan"] = spec.plan._replace(kernel=poisoned)  # the cached property's slot
    w = np.array([1.0, 2.0])
    # inf * 0 in the screen's dot product warns of an invalid value unless told not to
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="^non-finite gradient from quadratic objective$"):
        eval_grad(spec, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = eval_grad(spec, w, screen=False)
    assert loss == 2.5
    assert np.array_equal(grad, [1.0, value], equal_nan=True)


def test_eval_grad_never_warns_on_a_finite_gradient_whose_square_overflows():
    # g = -b at w = 0, whose squared norm is 1e400
    spec = make_quadratic([[0.0]], [1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = eval_grad(spec, np.zeros(1))
    assert _bits(loss) == _bits(0.0) and grad.tolist() == [-1e200]


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
    """eval_grad, eval_loss, eval_heldout and mlp_accuracy equal the pre-trim kernel
    (tests/helpers.py) byte for byte: the order of floating-point operations is part
    of the contract."""
    sizes = (input_dim, *hidden, n_classes)
    spec = make_mlp_classifier(sizes, activation=activation, weight_decay=weight_decay)
    rng = np.random.default_rng(seed)
    # perturbed weights, so relu units are both active and dead
    w = init_params(spec, seed)
    w = ParamVector(w.values + 0.5 * rng.standard_normal(w.size))
    ds = Dataset("blobs", seed, 0.0, 2.0 * rng.standard_normal((n, input_dim)),
                 rng.integers(0, n_classes, size=n).astype(target_dtype))
    batch_size = data.draw(st.integers(1, n), label="batch_size")
    # every call below shares the spec's plan's buffers, over every batch of
    # the epoch, the short last one included
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
    assert _bits(mlp_accuracy(spec, w, ds.inputs, ds.targets)) == _bits(float(np.mean(
        oracle_mlp_predict(spec, w.values, ds.inputs) == ds.targets)))


def _assert_matches_oracle(spec, values, batch):
    """eval_grad and eval_heldout on ``batch`` equal the oracle kernel, bit for bit."""
    loss, grad = eval_grad(spec, values, batch)
    ref_loss, ref_grad = oracle_mlp_eval(spec, values, batch, with_grad=True)
    assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()
    heldout_loss, heldout_acc = eval_heldout(spec, values, batch)
    assert _bits(heldout_loss) == _bits(oracle_mlp_eval(spec, values, batch, False)[0])
    assert _bits(heldout_acc) == _bits(float(np.mean(
        oracle_mlp_predict(spec, values, batch.inputs) == batch.targets)))


def _assert_grad_matches_oracle(spec, values, batch):
    """eval_grad equals the oracle kernel; returns the gradient."""
    loss, grad = eval_grad(spec, values, batch)
    ref_loss, ref_grad = oracle_mlp_eval(spec, values, batch, with_grad=True)
    assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()
    return grad


def _moons_batch(rows, inputs_of=np.ascontiguousarray):
    ds = generate_dataset("moons", max(rows, 2), 0.15, seed=3)
    return Batch(inputs_of(ds.inputs[:rows]), ds.targets[:rows], np.arange(rows))


def _perturbed_init(spec, seed):
    rng = np.random.default_rng(seed)
    return init_params(spec, 0).values + 0.1 * rng.standard_normal(spec.param_count)


@pytest.mark.parametrize("sizes, rows, inputs_of", [
    ((2, 16, 2), 64, np.ascontiguousarray),  # the benchmark's net and training batch
    ((2, 16, 2), 400, np.ascontiguousarray),  # its held-out split
    ((2, 64, 64, 2), 64, np.ascontiguousarray),
    ((2, 1, 2), 64, np.ascontiguousarray),  # one-column products
    ((2, 16, 2), 1, np.ascontiguousarray),  # one-row products
    ((2, 16, 2), 64, np.asfortranarray),
])
def test_mlp_kernel_matches_the_oracle_at_the_benchmark_shapes(sizes, rows, inputs_of):
    """The products that np.dot computes have the bits of the oracle's ``@`` at shapes the
    property test does not draw: wider layers, more rows, F-ordered inputs."""
    spec = make_mlp_classifier(sizes, activation="tanh", weight_decay=1e-4)
    _assert_matches_oracle(spec, _perturbed_init(spec, rows), _moons_batch(rows, inputs_of))


def _reversed_columns(inputs):
    return np.ascontiguousarray(inputs[:, ::-1])[:, ::-1]


def _every_other(values):
    spaced = np.zeros(2 * values.size)
    spaced[::2] = values
    return spaced[::2]


@pytest.mark.parametrize("sizes, rows, inputs_of, values_of", [
    ((2, 2), 30, _reversed_columns, np.ascontiguousarray),
    ((2, 2), 64, _reversed_columns, np.ascontiguousarray),
    ((2, 64, 64, 2), 3, np.ascontiguousarray, _every_other),
])
def test_non_contiguous_inputs_or_weights_keep_the_oracle_bits(sizes, rows, inputs_of,
                                                               values_of):
    """np.dot and np.matmul take different routes for an operand that is neither C- nor
    F-contiguous, and on these they differ in the last bit: the kernel keeps np.matmul."""
    spec = make_mlp_classifier(sizes, activation="tanh", weight_decay=1e-4)
    values = values_of(_perturbed_init(spec, rows))
    batch = _moons_batch(rows, inputs_of)
    assert not (batch.inputs.flags.forc and values.flags.forc)
    _assert_matches_oracle(spec, values, batch)


def test_products_of_one_term_keep_the_oracle_bits():
    """One row through one-unit layers: every product has one term, which np.dot computes
    as a plain multiply that gives -0.0 at relu's dead units where np.matmul gives 0.0."""
    spec = make_mlp_classifier((1, 1, 1, 2), activation="relu")
    rng = np.random.default_rng(1)
    for _ in range(20):
        batch = Batch(rng.standard_normal((1, 1)), rng.integers(0, 2, 1), np.arange(1))
        _assert_matches_oracle(spec, rng.standard_normal(spec.param_count), batch)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 16, 2)])
def test_a_one_row_weight_gradient_that_underflows_keeps_the_oracle_bits(sizes):
    """One row's weight gradient is an outer product of one term: each product of the
    smallest subnormal inputs with d_z rounds to a zero that np.dot signs and np.matmul
    does not."""
    spec = make_mlp_classifier(sizes)
    batch = Batch(np.array([[5e-324, -5e-324]]), np.array([1]), np.arange(1))
    _assert_matches_oracle(spec, init_params(spec, 0).values, batch)


@pytest.mark.parametrize("sizes, activation", [((2, 16, 2), "tanh"), ((2, 8, 8, 3), "relu")])
def test_one_workspace_serves_interleaved_weight_buffers(sizes, activation):
    """Two weight arrays written in place between calls, as the loop's w and w + e are.

    Every call shares the spec's plan's buffers and kept weight views.
    """
    spec = make_mlp_classifier(sizes, activation=activation, weight_decay=1e-3)
    rng = np.random.default_rng(4)
    a = init_params(spec, 1).values.copy()
    b = a + 0.3 * rng.standard_normal(a.size)
    batches = _epoch(n_classes=sizes[-1])  # the last of them is short
    for batch in batches:
        _assert_grad_matches_oracle(spec, a, batch)
        _assert_grad_matches_oracle(spec, b, batch)
        a -= 0.05 * rng.standard_normal(a.size)  # the kept views must see writes in place
        np.add(a, 0.01, out=b)
    # more weight buffers than the plan keeps views of, and a strided one
    many = [a + 0.01 * k for k in range(objectives.KEPT_WEIGHTS + 2)]
    strided = np.repeat(a, 2)[::2]
    for _ in range(2):
        for values in [*many, strided]:
            _assert_grad_matches_oracle(spec, values, batches[0])
        strided += 0.02


def test_two_specs_and_row_counts_share_one_workspace():
    """Layouts of equal parameter count, several row counts, one weight array: each spec's
    plan serves every row count, interleaved with the other spec's calls."""
    specs = [make_mlp_classifier((2, 4, 3), activation="relu", weight_decay=1e-4),
             make_mlp_classifier((2, 5, 2), activation="tanh")]
    assert specs[0].param_count == specs[1].param_count
    values = init_params(specs[1], 6).values.copy()
    ds = generate_dataset("moons", 61, 0.2, seed=3)
    batches = [whole_dataset_batch(ds), *make_batches(ds, 16, 0, 0)]  # 61, 16, 16, 16, 13 rows
    for _ in range(2):
        for spec in specs:
            for batch in batches:
                _assert_grad_matches_oracle(spec, values, batch)
                loss, acc = eval_heldout(spec, values, batch)
                assert _bits(loss) == _bits(oracle_mlp_eval(spec, values, batch, False)[0])
                assert _bits(acc) == _bits(float(np.mean(
                    oracle_mlp_predict(spec, values, batch.inputs) == batch.targets)))
                assert _bits(eval_loss(spec, values, batch)) == _bits(loss)
            assert _bits(mlp_accuracy(spec, ParamVector(values), ds.inputs, ds.targets)) == \
                _bits(float(np.mean(oracle_mlp_predict(spec, values, ds.inputs) == ds.targets)))
        values *= 1.5


def test_a_returned_gradient_is_not_workspace_memory():
    """With and without the weight-decay term, which the returned array is made by adding."""
    for weight_decay in (0.0, 1e-3):
        spec = make_mlp_classifier((2, 8, 8, 2), weight_decay=weight_decay)
        values = init_params(spec, 2).values
        batch = _epoch()[0]
        first = _assert_grad_matches_oracle(spec, values, batch)
        second = _assert_grad_matches_oracle(spec, 2.0 * values, batch)
        kept = first.tobytes(), second.tobytes()
        third = _assert_grad_matches_oracle(spec, 3.0 * values, batch)
        eval_heldout(spec, 4.0 * values, batch)
        assert (first.tobytes(), second.tobytes()) == kept and kept[0] != kept[1]
        returned = [first, second, third]
        assert not any(np.shares_memory(a, b) for a in returned for b in returned if a is not b)
        # nor any plan buffer of the gradient's size: the gradient the kernel writes,
        # the weight-decay term's and the finiteness screen's zeros
        buffers = [field for field in spec.plan
                   if isinstance(field, np.ndarray) and field.size == spec.param_count]
        assert any(b is spec.plan.grad for b in buffers)
        assert any(b is spec.plan.decay for b in buffers)
        assert not any(np.shares_memory(a, b) for a in returned for b in buffers)


def test_lone_mlp_calls_build_row_buffers_once_per_row_count(monkeypatch):
    built = []
    original = objectives._RowBuffers

    def counted(layout, rows):
        built.append(rows)
        return original(layout, rows)

    monkeypatch.setattr(objectives, "_RowBuffers", counted)
    spec = make_mlp_classifier((2, 16, 2), weight_decay=1e-4)
    w = init_params(spec, 0)
    ds = generate_dataset("moons", 64, 0.15, seed=3)
    batches = [whole_dataset_batch(ds), *make_batches(ds, 20, 0, 0)]  # 64, 20, 20, 20, 4 rows
    for _ in range(3):
        for batch in batches:
            eval_grad(spec, w, batch)
            eval_loss(spec, w, batch)
            eval_heldout(spec, w.values, batch)
        mlp_accuracy(spec, w, ds.inputs[:7], ds.targets[:7])
    assert sorted(built) == [4, 7, 20, 64]


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


@pytest.mark.parametrize("rows", [10, 40])
def test_inputs_reassigned_to_another_row_count_raise(rows):
    # the batch kept its targets' index on its first evaluation; inputs of
    # another row count must not reach the kernel
    spec = make_mlp_classifier((2, 5, 2))
    values = init_params(spec, 0).values
    ds = generate_dataset("blobs", 20, 0.5, seed=1)
    batch = whole_dataset_batch(ds)
    eval_grad(spec, values, batch)
    batch.inputs = np.resize(ds.inputs, (rows, 2))
    for evaluate in (eval_grad, eval_loss, eval_heldout):
        with pytest.raises(ConfigurationError, match="row count"):
            evaluate(spec, values, batch)


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


def _epoch(n=110, batch_size=16, n_classes=None):
    """One epoch's batches of a moons set; 110 rows leave a short last batch of 14.

    Given ``n_classes``, they are cut as the training loop cuts an MLP's epoch.
    """
    return make_batches(generate_dataset("moons", n, 0.2, seed=2), batch_size, 0, 1, n_classes)


@pytest.mark.parametrize("sizes, activation", [((2, 16, 2), "tanh"), ((2, 8, 3), "relu"),
                                               ((2, 8, 8, 2), "tanh")])
def test_batches_primed_from_their_epoch_match_the_oracle(sizes, activation):
    spec = make_mlp_classifier(sizes, activation=activation, weight_decay=1e-3)
    values = init_params(spec, 5).values
    n_classes = sizes[-1]
    batches = _epoch(n_classes=n_classes)
    for batch in batches:
        kept_targets, kept_classes, index, onehot = batch.target_index
        assert kept_targets is batch.targets and kept_classes == n_classes
        rows = np.arange(batch.size)
        assert index.tolist() == (rows * n_classes + batch.targets).tolist()
        assert onehot.tolist() == np.eye(n_classes)[batch.targets].tolist()
        # the index and mask a first evaluation of an unprimed batch would have kept
        fresh = Batch(batch.inputs, batch.targets, batch.indices)
        eval_loss(spec, values, fresh)
        assert index.dtype == fresh.target_index[2].dtype
        assert index.tobytes() == fresh.target_index[2].tobytes()
        assert onehot.dtype == fresh.target_index[3].dtype == np.float64
        assert onehot.shape == (batch.size, n_classes)
        assert onehot.tobytes() == fresh.target_index[3].tobytes()
        assert not onehot.flags.writeable
        _assert_matches_oracle(spec, values, batch)


@pytest.mark.parametrize("n, last", [(110, 8), (2001, 1)])
def test_an_epoch_cut_with_its_class_count_matches_fresh_batches(n, last):
    """The training split of n rows in batches of 16 or 64: 88 rows end in a batch of 8,
    1601 in one of a single row, whose products the kernel takes through np.matmul."""
    spec = make_mlp_classifier((2, 16, 2), weight_decay=1e-4)
    values = init_params(spec, 1).values
    train, _ = train_test_split(generate_dataset("moons", n, 0.2, seed=2))
    batch_size = 16 if n == 110 else 64
    batches = make_batches(train, batch_size, 0, 3, n_classes=2)
    plain = make_batches(train, batch_size, 0, 3)
    assert [b.size for b in batches] == [b.size for b in plain]
    assert batches[-1].size == last and {b.size for b in batches[:-1]} == {batch_size}
    for batch, cut in zip(batches, plain):
        for x, y in ((batch.inputs, cut.inputs), (batch.targets, cut.targets),
                     (batch.indices, cut.indices)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        kept_targets, kept_classes, index, onehot = batch.target_index
        assert kept_targets is batch.targets and kept_classes == 2
        fresh = Batch(batch.inputs.copy(), batch.targets.copy(), batch.indices.copy())
        want_index, want_onehot = objectives._target_index(fresh, 2, 2)
        assert index.dtype == want_index.dtype and index.tobytes() == want_index.tobytes()
        assert onehot.dtype == want_onehot.dtype == np.float64
        assert onehot.shape == want_onehot.shape and onehot.tobytes() == want_onehot.tobytes()
        assert not onehot.flags.writeable
        for w in (values, 3.0 * values):
            loss, grad = eval_grad(spec, w, batch)
            want_loss, want_grad = eval_grad(spec, w, fresh)
            assert _bits(loss) == _bits(want_loss) and grad.tobytes() == want_grad.tobytes()
        _assert_grad_matches_oracle(spec, values, batch)


def test_targets_reassigned_after_priming_are_checked_again():
    spec = make_mlp_classifier((2, 5, 2))
    values = init_params(spec, 3).values
    batches = _epoch(n_classes=2)
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
        make_batches(shifted, 8, 0, 0, n_classes=2)
    as_float = Dataset(ds.kind, ds.seed, ds.noise, ds.inputs, ds.targets.astype(float))
    with pytest.raises(ConfigurationError, match="must be integers"):
        make_batches(as_float, 8, 0, 0, n_classes=2)
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


@settings(deadline=None, max_examples=25)  # each example runs the 20,001-point scalar scan
@given(width_sharp=st.floats(1e-3, 1.0), flat_over_sharp=st.floats(1.01, 1e3),
       depth_gap=st.floats(0.0, 10.0), separation=st.floats(0.05, 20.0))
def test_ridge_has_the_bits_of_the_scalar_scan(width_sharp, flat_over_sharp, depth_gap,
                                               separation):
    geometry = (width_sharp, width_sharp * flat_over_sharp, depth_gap, separation)
    spec = make_sharp_flat(*geometry)
    objectives._RIDGE_CACHE.pop(geometry, None)
    assert _bits(sharp_flat_ridge(spec)) == _bits(oracle_sharp_flat_ridge(spec))


@pytest.mark.parametrize("geometry", [
    (0.08, 0.5, 0.3, 1e80),  # the quartic overflows to inf between the wells
    (1e-160, 0.5, 0.3, 2.0),  # 1 / width_sharp**2 is inf: NaN at both ends, inf between
], ids=["inf", "nan"])
def test_ridge_of_a_landscape_that_is_not_finite_scans_every_point(geometry):
    spec = make_sharp_flat(*geometry)
    kernel = spec.plan.kernel
    points = []

    def counted(x, batch, with_grad):
        points.append(float(x[0]))
        return kernel(x, batch, with_grad)

    spec.__dict__["plan"] = spec.plan._replace(kernel=counted)  # the cached property's slot
    objectives._RIDGE_CACHE.pop(geometry, None)
    ridge = sharp_flat_ridge(spec)
    (x_sharp, _), (x_flat, _) = sharp_flat_centers(spec)
    assert points == np.linspace(x_sharp, x_flat, 20001).tolist()
    assert _bits(ridge) == _bits(oracle_sharp_flat_ridge(spec))
    if geometry[0] == 1e-160:
        assert ridge == x_sharp  # np.argmax's first NaN: the first point


# u = (flat bottom - x) / separation: the landscape blends its wells by a
# smooth step in u, flat for u <= 0 and sharp for u >= 1, whose exp calls
# underflow (through subnormals) within about 1/708 of either end
_U = st.one_of(st.floats(-2.0, 0.0), st.floats(1.0, 3.0),
               st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               st.floats(1e-4, 2e-3), st.floats(1.0 - 2e-3, 1.0 - 1e-4))


@settings(deadline=None, max_examples=300)  # timing on a shared host is not what this checks
@given(width_sharp=st.floats(0.02, 0.5), flat_over_sharp=st.floats(1.01, 20.0),
       depth_gap=st.floats(0.0, 1.0), separation=st.floats(0.25, 4.0), u=_U,
       y=st.floats(-2.0, 2.0))
@example(width_sharp=0.08, flat_over_sharp=6.25, depth_gap=0.3, separation=2.0, u=0.0, y=0.5)
@example(width_sharp=0.08, flat_over_sharp=6.25, depth_gap=0.3, separation=2.0, u=1.0, y=0.5)
@example(width_sharp=0.08, flat_over_sharp=6.25, depth_gap=0.3, separation=2.0, u=1.4e-3, y=0.0)
def test_sharp_flat_matches_the_parent_oracle_bit_for_bit(width_sharp, flat_over_sharp,
                                                          depth_gap, separation, u, y):
    spec = make_sharp_flat(width_sharp, width_sharp * flat_over_sharp, depth_gap, separation)
    x = np.array([separation / 2.0 - u * separation, y])
    ref_loss, ref_grad = oracle_sharp_flat(spec, x, True)
    for _ in range(2):  # the second call runs on the plan the first one kept
        loss, grad = eval_grad(spec, x)
        assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()
        assert _bits(eval_loss(spec, x)) == _bits(ref_loss)
    assert _bits(eval_loss(spec, x)) == _bits(oracle_sharp_flat(spec, x, False)[0])


def test_alternating_specs_on_one_workspace_get_their_own_plans():
    quadratic = make_quadratic([[3.0, 0.5], [0.5, 1.0]], [1.0, -1.0], weight_decay=0.05)
    sharp_flat = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    x = np.array([-0.9, 0.2])
    a, b = quadratic.a, quadratic.b
    quadratic_loss = 0.5 * float(x @ (a @ x)) - float(b @ x) + 0.05 * float(x.dot(x))
    quadratic_grad = a @ x - b + 2.0 * 0.05 * x
    plans = quadratic.plan, sharp_flat.plan
    assert plans[0].kernel is not plans[1].kernel
    for _ in range(3):
        loss, grad = eval_grad(quadratic, x)
        assert quadratic.plan is plans[0]
        assert _bits(loss) == _bits(quadratic_loss)
        assert grad.tobytes() == quadratic_grad.tobytes()
        loss, grad = eval_grad(sharp_flat, x)
        assert sharp_flat.plan is plans[1]
        ref_loss, ref_grad = oracle_sharp_flat(sharp_flat, x, True)
        assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()


def test_a_spec_builds_its_plan_once(monkeypatch):
    built = []
    original = objectives._plan

    def counted(spec):
        built.append(spec)
        return original(spec)

    monkeypatch.setattr(objectives, "_plan", counted)
    mlp = make_mlp_classifier((2, 3, 2), weight_decay=1e-3)
    batch = whole_dataset_batch(generate_dataset("moons", 20, 0.1, seed=0))
    w = init_params(mlp, 0)
    reference = None
    # repeated lone calls share the spec's one plan and its buffers, and give the same bits
    for _ in range(4):
        loss, grad = eval_grad(mlp, w, batch)
        assert _bits(eval_loss(mlp, w, batch)) == _bits(loss)
        if reference is None:
            reference = _bits(loss), grad.tobytes()
        assert (_bits(loss), grad.tobytes()) == reference
    eval_heldout(mlp, w.values, batch)
    fd_gradient(mlp, w, batch, 1e-5)
    sharp_flat = make_sharp_flat(0.07, 0.6, 0.2, 1.8)
    eval_grad(sharp_flat, np.array([-0.8, 0.1]))
    eval_loss(sharp_flat, np.array([0.3, 0.1]))
    sharp_flat_ridge(sharp_flat)
    assert built == [mlp, sharp_flat]


def test_a_spec_cannot_change_under_its_plan():
    spec = make_sharp_flat(0.08, 0.5, 0.3, 2.0)
    x = np.array([-0.9, 0.2])
    first = eval_grad(spec, x)
    for name, value in [("separation", 3.0), ("kind", "quadratic"), ("weight_decay", 0.1)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    second = eval_grad(spec, x)
    assert _bits(first[0]) == _bits(second[0]) and first[1].tobytes() == second[1].tobytes()
    # the arrays are the spec's own read-only copies, and the layer sizes a tuple
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    quadratic = make_quadratic(a, [1.0, 1.0])
    for array in (quadratic.a, quadratic.b):
        with pytest.raises(ValueError):
            array[0] = 7.0
    a[0, 0] = 7.0
    assert quadratic.a[0, 0] == 2.0 and a.flags.writeable
    sizes = [2, 3, 2]
    mlp = ObjectiveSpec(kind="mlp_classifier", layer_sizes=sizes, activation="tanh")
    sizes.append(5)
    assert mlp.layer_sizes == (2, 3, 2) and mlp.param_count == 17


def test_builders_take_tuples_and_numeric_arrays_as_lists():
    for sizes in [(2, 16, 2), np.array([2, 16, 2]), np.array([2, 16, 2], dtype=np.int32)]:
        assert make_mlp_classifier(sizes).layer_sizes == (2, 16, 2)
    reference = make_quadratic([[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0])
    for a, b in [(((2.0, 0.5), (0.5, 1.0)), (1.0, -1.0)),
                 (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1, -1]))]:
        spec = make_quadratic(a, b)
        assert spec.a.tobytes() == reference.a.tobytes()
        assert spec.b.tobytes() == reference.b.tobytes()


@pytest.mark.parametrize("build, message", [
    (lambda: make_quadratic([]), "quadratic matrix must be square"),
    # numpy raised ValueError on a ragged matrix and on a string
    (lambda: make_quadratic([[1.0, 0.0], [0.0]]), "quadratic matrix must be square"),
    (lambda: make_mlp_classifier("ab"), "layer_sizes must be a list, not 'ab'"),
], ids=["empty", "ragged", "str"])
def test_builders_reject_a_list_of_the_wrong_shape(build, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        build()


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
